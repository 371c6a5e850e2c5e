"""The gccodes benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload decode_d2 --seed 1 --seconds 28 --trace 0

Workloads (see README.md in this directory for why each was chosen):
  decode_d2  gc_decode on GcParams(256, 8, 3, 2), 2 deletions / 2 insertions
  decode_d3  gc_decode on GcParams(256, 8, 4, 3), 3 deletions / 3 insertions
  sync_gc    run_sync in GC mode on 10^5-bit files, B = A minus 50 bits
  sync_vt    the same file pairs in VT mode

The workload runs closed-loop in a fresh single-threaded child process
(worker.py). With --trace 0 the command reports the end-to-end metrics,
set-up time being the median over that child and SETUP_REPS more fresh
processes; times are scaled to the run's fastest host speed by a canary
decode (worker.py explains how), and the unscaled times are printed too.
With --trace 1 it reports the per-layer metrics of a traced run.
It prints one line per metric with its unit and base, the seeded-output
digest, and as its last line a JSON object with the keys correct,
attempted, failed and metrics. It exits 1 after that line when any op's
output was wrong. It exits non-zero without a result line when the library
is not in this checkout (2) or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 4
BUDGET_S = 170  # the whole command, children included, ends within this

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child(*args: str, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON output; the
    process is killed and waited for if it runs past `deadline`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gccodes" / "__init__.py").is_file():
        print(f"error: no gccodes source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    w = args.workload
    res = child(
        "--workload", w, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), deadline=deadline,
    )
    n = res["ops"]
    failed = len(res["errors"])
    lines = [
        f"workload {w}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"host_probe_ms {res['host_probe_ms']:.3f} ms  (fixed pure-Python loop, just before the ops)",
        f"canary_ms {res['canary']['fastest_ms']:.4f} ms fastest, {res['canary']['median_ms']:.4f} ms median  "
        f"({res['canary']['count']} fixed decodes between the ops)",
        f"error_frac {failed / n:.6g} frac  ({failed} of {n} ops)",
    ]
    lines += [f"  {e}" for e in res["errors"][:10]]
    if "sync_bits" in res:
        lines.append(f"sync_bits {res['sync_bits']:.6g} bits  (mean A->B plus B->A per trial, {n} trials)")
        lines.append(f"sync_rounds {res['sync_rounds']:.6g} rounds  (mean per trial, {n} trials)")
    else:
        lines.append(
            f"decode_fail_frac {res['decode_failures'] / n:.6g} frac  "
            f"({res['decode_failures']} Failure outcomes of {n} ops)"
        )
    lines.append(f"digest {res['digest']}  (outputs of the first {res['digest_ops']} ops)")

    metrics: dict[str, dict] = {}
    if args.trace:
        units = dict(METRICS)
        for name, (value, base) in res["layers"].items():
            metrics[name] = {"value": value, "unit": units[name]}
            lines.append(f"{name} {value:.6g} {units[name]}  ({base})")
        lines += [f"{name} absent  (its public name is not in gccodes.__all__)" for name in res["absent"]]
    else:
        setups = [res] + [
            child("--workload", w, "--setup-only", deadline=deadline) for _ in range(SETUP_REPS)
        ]
        # Each set-up at the run's fastest canary speed, by the canary timed
        # right after it (worker.py explains the canary).
        fastest_s = res["canary"]["fastest_ms"] / 1e3
        scaled = [s["setup_s"] * fastest_s / s["setup_canary_s"] for s in setups]
        e2e = {
            "setup_s": (
                statistics.median(scaled), "s",
                f"median of {len(setups)} fresh processes at the fastest canary speed",
            ),
            "op_p50_ms": (res["op_p50_ms"], "ms", f"median of {n} ops at the fastest canary speed"),
            "op_tail_ms": (res["op_tail_ms"], "ms", f"p{res['tail_level']:.3f} of the same"),
            "ops_per_s": (res["ops_per_s"], "1/s", f"{n} ops over their summed time, the same"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", "peak resident memory of the workload process"),
        }
        for name, (value, unit, base) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} {value:.6g} {unit}  ({base})")
        raw = res["raw"]
        lines.append(
            f"unscaled: op_p50_ms {raw['op_p50_ms']:.6g}, op_tail_ms {raw['op_tail_ms']:.6g}, "
            f"ops_per_s {raw['ops_per_s']:.6g}, setup_s {statistics.median(s['setup_s'] for s in setups):.6g}  "
            "(as timed, at whatever speed the host ran)"
        )

    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
