"""Per-test CPU time, printed after the wall-time --durations table, and
the one hypothesis profile of the property tests.

Wall time of the suite swings with the host's load; CPU time counts only
the work done, in this process and in the worker processes a test started
and waited for, so it gives a suite-time budget a figure that can be
checked. CPU time still swings with how fast the host runs, so the summary
also gives the summed CPU in units of a fixed canary, timed at the start
of the session and after each test: the median canary is the host's speed
during this run."""

import os
import statistics
import time

import pytest

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # a test extra; only test_properties.py needs it
    pass
else:
    # every run draws the same examples, keeps no example database and
    # allows any example time; each test sets only its max_examples
    settings.register_profile(
        "tier1",
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("tier1")

CPU_TIMES = pytest.StashKey[dict]()
CANARIES = pytest.StashKey[list]()


def _cpu_seconds() -> float:
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _canary() -> float:
    """CPU seconds of a fixed pure-Python workload of the kinds the suite
    runs: integer bit operations, string slicing and parsing, and dict and
    list traffic. Standard library only, so the library under test cannot
    move it."""
    start = time.process_time()
    bits = format(0x9E3779B97F4A7C15 ** 48, "b")
    counts = {}
    for i in range(len(bits) - 12):
        word = int(bits[i : i + 12], 2)
        counts[word] = counts.get(word, 0) + (word ^ (word >> 3)) % 7
    sorted(counts.items(), key=lambda kv: kv[1])
    return time.process_time() - start


def pytest_configure(config):
    config.stash[CPU_TIMES] = {}
    config.stash[CANARIES] = [_canary()]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = _cpu_seconds()
    yield
    item.config.stash[CPU_TIMES][item.nodeid] = _cpu_seconds() - start
    item.config.stash[CANARIES].append(_canary())


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, config):
    times = config.stash[CPU_TIMES]
    if not times:
        return
    terminalreporter.write_sep("=", "slowest 10 CPU times")
    for nodeid, t in sorted(times.items(), key=lambda kv: -kv[1])[:10]:
        terminalreporter.write_line(f"{t:.2f}s cpu  {nodeid}")
    total = sum(times.values())
    terminalreporter.write_line(f"{total:.1f}s cpu in {len(times)} test calls")
    canaries = config.stash[CANARIES]
    canary = statistics.median(canaries)
    terminalreporter.write_line(
        f"{total / canary:.0f} canaries in {len(times)} test calls "
        f"(median canary {canary * 1e3:.3f} ms cpu of {len(canaries)})"
    )
