"""Per-test CPU time, printed after the wall-time --durations table.

Wall time of the suite swings with the host's load; CPU time counts only
the work done, in this process and in the worker processes a test started
and waited for, so it gives a suite-time budget a figure that can be
checked."""

import os
import time

import pytest

CPU_TIMES = pytest.StashKey[dict]()


def _cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def pytest_configure(config):
    config.stash[CPU_TIMES] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = _cpu_seconds()
    yield
    item.config.stash[CPU_TIMES][item.nodeid] = _cpu_seconds() - start


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, config):
    times = config.stash[CPU_TIMES]
    if not times:
        return
    terminalreporter.write_sep("=", "slowest 10 CPU times")
    for nodeid, t in sorted(times.items(), key=lambda kv: -kv[1])[:10]:
        terminalreporter.write_line(f"{t:.2f}s cpu  {nodeid}")
    terminalreporter.write_line(f"{sum(times.values()):.1f}s cpu in {len(times)} test calls")
