"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

Set-up is timed first: `import gccodes` plus one warm-up op, not counted
among the ops, on a fixed input; it builds the GF tables, codes and decoder
caches. The benchmark's random draw for that input is not timed; the library
encode that turns a draw into a decode input is.
Then a host-speed probe, then the closed loop: op i's input is generated
(untimed), the op is timed, and its output is checked; the next op starts
only after that. The loop runs at least the workload's `min_ops` ops and
until `--seconds` have passed. With `--trace 1` every input runs once
untraced and once traced, in alternating order, and the per-layer metrics
come from the traced runs' spans.

Host-speed canary: on a shared 2-core VM the same decode ran at anything
from 1x to 2.3x its fastest time, in stretches of milliseconds to minutes,
and a run's median latency followed whichever speed held most of it. So
between ops the worker times a fixed decode (GcParams(256, 8, 3, 2), a
fixed received word), once per CANARY_EVERY_S seconds that have passed
since it last did, so that long ops are followed by a burst of canaries
and every workload gets about as many. Each op's latency is scaled by the
run's fastest canary over the geometric mean of the median canaries of the
two bursts around the op: the latency the op would have had at the fastest
host speed seen in the run. The ratio of canary times cancels the
library's own speed, so a library change still moves the scaled latency.
Set-up time is scaled by the median of five canaries timed right after it.
Unscaled times are reported too.

Prints one JSON object on stdout; writes per-op outputs (and spans) under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from array import array
from math import sqrt
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CANARY_EVERY_S = 0.02

from workloads import WORKLOADS  # noqa: E402
import spans  # noqa: E402


def host_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFF
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def set_up(name: str):
    """Import the library from the checkout and run one warm-up op.
    Returns (gccodes, workload, min_ops, setup seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gccodes

    import_s = perf_counter() - t0
    origin = Path(gccodes.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"gccodes imported from {origin}, not from this checkout")
    factory, min_ops = WORKLOADS[name]
    wl = factory(gccodes)
    draw = wl.draw("warmup", 0)  # the benchmark's own generation, excluded
    t1 = perf_counter()
    wl.op(wl.build(draw))
    return gccodes, wl, min_ops, import_s + perf_counter() - t1


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, perf_counter() - t0


def latency_stats(lat) -> dict:
    """Median, tail and throughput of the op latencies (seconds). The tail is
    the highest percentile up to p95 with at least ten samples beyond it,
    and not below the upper median when a run has fewer than 21 ops. Higher
    levels rest on a few ops of a run: at p99 a sync_vt run has ten, and
    that figure spread 17% across seeds."""
    n = len(lat)
    at = max(n // 2, n - max(10, n // 20) - 1)
    return {
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": sorted(lat)[at] * 1e3,
        "tail_level": 100 * (at + 1) / n,
        "ops_per_s": n / sum(lat),
    }


class Canary:
    """Times a fixed decode between ops; see the module docstring."""

    def __init__(self, gccodes):
        wl = WORKLOADS["decode_d2"][0](gccodes)
        inp = wl.make("canary", 0)
        self.run = lambda: wl.op(inp)
        self.run()  # builds its tables before anything is timed
        self.times = array("d")  # every canary
        self.bursts = array("d")  # the median canary of each burst
        self.last = perf_counter()

    def now(self) -> float:
        """The median of a burst of five canaries taken now, in seconds."""
        self.burst(5)
        return self.bursts[-1]

    def due(self) -> bool:
        return perf_counter() - self.last >= CANARY_EVERY_S

    def tick(self) -> None:
        """One burst: a canary per CANARY_EVERY_S since the last one, 1 to 50."""
        self.burst(min(50, max(1, int((perf_counter() - self.last) / CANARY_EVERY_S))))

    def burst(self, k: int) -> None:
        times = []
        for _ in range(k):
            t0 = perf_counter()
            self.run()
            times.append(perf_counter() - t0)
        self.last = perf_counter()
        self.times.extend(times)
        self.bursts.append(statistics.median(times))

    def scaled(self, lat, before, after) -> list[float]:
        """Each latency at the run's fastest canary speed; op j ran between
        bursts before[j] and after[j]."""
        c = self.bursts
        fastest = min(self.times)
        return [t * fastest / sqrt(c[b] * c[a]) for t, b, a in zip(lat, before, after)]


def run(args) -> dict:
    gccodes, wl, min_ops, setup_s = set_up(args.workload)
    tracer = spans.Tracer(gccodes) if args.trace else None
    traced_op = None if tracer is None else getattr(tracer, f"{wl.kind}_op")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    canary = Canary(gccodes)
    setup_canary_s = canary.now()
    probe = host_probe_ms()

    # Compact arrays, so peak RSS does not grow with the op count.
    lat, before, after = array("d"), array("l"), array("l")
    traced_s = 0.0
    dig = hashlib.sha256()
    errors: list[str] = []
    decode_failures = sync_bits = sync_rounds = 0
    deadline = perf_counter() + args.seconds
    i = 0
    with open(f"{stem}-ops.jsonl", "w") as log:
        while i < min_ops or perf_counter() < deadline:
            inp = wl.make(args.seed, i)
            try:
                if tracer is None:
                    out, t = timed(wl.op, inp)
                else:
                    tracer.op = i
                    if i % 2:
                        traced_out, ts = timed(traced_op, wl, inp)
                        out, t = timed(wl.op, inp)
                    else:
                        out, t = timed(wl.op, inp)
                        traced_out, ts = timed(traced_op, wl, inp)
                    traced_s += ts
                error, summary = wl.check(inp, out)
                if tracer is not None and error is None:
                    error = mismatch(wl, out, traced_out)
            except Exception as exc:  # an op that raises counts as an error
                t, summary, error = None, ("raised",), f"{type(exc).__name__}: {exc}"
            if error is None:
                lat.append(t)
                before.append(len(canary.bursts) - 1)
                decode_failures += wl.failed_decode(out)
                if wl.kind == "sync":
                    sync_rounds += summary[0]
                    sync_bits += summary[1] + summary[2]
            else:
                errors.append(f"op {i}: {error}")
            if i < min_ops:
                dig.update(repr(summary).encode())
            log.write(json.dumps([summary, t]) + "\n")
            i += 1
            if canary.due() or i >= min_ops and perf_counter() >= deadline:
                canary.tick()
                after.extend([len(canary.bursts) - 1] * (len(before) - len(after)))

    ok = len(lat)
    c = sorted(canary.times)
    result = {
        "setup_s": setup_s,
        "setup_canary_s": setup_canary_s,
        "host_probe_ms": probe,
        "canary": {"count": len(c), "fastest_ms": c[0] * 1e3, "median_ms": c[len(c) // 2] * 1e3},
        "ops": i,
        "errors": errors,
        "digest": dig.hexdigest()[:16],
        "digest_ops": min_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if ok:
        result.update(latency_stats(canary.scaled(lat, before, after)))
        result["raw"] = latency_stats(lat)
    if wl.kind == "sync":
        result["sync_bits"] = sync_bits / ok if ok else 0.0
        result["sync_rounds"] = sync_rounds / ok if ok else 0.0
    else:
        result["decode_failures"] = decode_failures
    if tracer is not None:
        tracer.write(f"{stem}-spans.jsonl")
        metrics = spans.layer_metrics(tracer.spans, wl.kind, i, traced_s / sum(lat) - 1)
        result["layers"] = {k: v for k, v in metrics.items() if k not in tracer.absent}
        result["absent"] = sorted(tracer.absent)
    return result


def mismatch(wl, out, traced_out) -> str | None:
    """The traced op must reproduce the untraced op's output exactly."""
    if wl.kind == "decode":
        if wl.candidates(out) != traced_out:
            return "traced decomposition disagrees with gc_decode"
        return None
    if traced_out != out:
        return "traced sync trial disagrees with the untraced one"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.setup_only:
        gccodes, _, _, setup_s = set_up(args.workload)
        result = {"setup_s": setup_s, "setup_canary_s": Canary(gccodes).now()}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
