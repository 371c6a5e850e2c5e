"""Seedable deletion/insertion channels with explicit edit plans, and the
one runner behind every Monte Carlo harness: trial t of a run with seed s
gets its own seed s * 2^32 + t, so its draws depend only on (s, t) and the
results are the same for any number of worker processes."""

from __future__ import annotations

import concurrent.futures  # loads multiprocessing only when a pool is first built
import os
import random
from dataclasses import dataclass

KINDS = ("deletions", "insertions")
SCOPES = ("whole", "systematic")


@dataclass(frozen=True)
class EditPlan:
    kind: str  # "deletions" | "insertions"
    positions: tuple[int, ...]  # 1-indexed, strictly increasing
    bits: tuple[str, ...] = ()  # inserted bit per position (insertions only)
    scope: str = "whole"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}")
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        what = f"{self.kind[:-1]} positions"
        if self.positions and self.positions[0] < 1:
            raise ValueError(f"{what} must be at least 1")
        if self.kind == "deletions" and self.bits:
            raise ValueError(f"{what} take no bits")
        if self.kind == "insertions" and len(self.bits) != len(self.positions):
            raise ValueError("insertions need one bit per position")
        if any(b not in ("0", "1") for b in self.bits):
            raise ValueError(f"{what} take only the bits '0' and '1'")


def apply_edits(x: str, plan: EditPlan) -> str:
    """Delete the listed positions, or insert the given bits before them."""
    n = len(x)
    ins = plan.kind == "insertions"  # True == 1: an insertion may also follow the last bit
    if plan.positions and plan.positions[-1] > n + ins:  # EditPlan checks the lower bound
        raise ValueError(f"{plan.kind[:-1]} positions out of bounds for length {n}")
    bits = plan.bits if ins else ("",) * len(plan.positions)
    out = []
    prev = 0
    for p, b in zip(plan.positions, bits):
        out += x[prev : p - 1], b
        prev = p - ins
    out.append(x[prev:])
    return "".join(out)


def sample_plan(
    length: int,
    d: int,
    kind: str = "deletions",
    scope: str = "whole",
    seed: int = 0,
    systematic_len: int | None = None,
) -> EditPlan:
    """d distinct edit positions, uniform without replacement; insertions
    also draw fair-coin bit values. `systematic_len` bounds the positions
    when scope is "systematic". Deterministic in the seed."""
    rng = random.Random(seed)
    return _sample_plan(rng, length, d, kind, scope, systematic_len)


def _sample_plan(
    rng: random.Random,
    length: int,
    d: int,
    kind: str,
    scope: str,
    systematic_len: int | None,
) -> EditPlan:
    # EditPlan checks the kind and the scope
    if scope == "systematic":
        if systematic_len is None:
            raise ValueError("systematic scope needs systematic_len")
        limit = systematic_len
    else:
        limit = length
    if kind == "insertions":
        limit += 1  # slot after the last in-scope bit
    if d > limit:
        raise ValueError(f"cannot place {d} distinct edits in {limit} positions")
    positions = tuple(sorted(rng.sample(range(1, limit + 1), d)))
    bits = ()
    if kind == "insertions":
        bits = tuple("1" if rng.getrandbits(1) else "0" for _ in positions)
    return EditPlan(kind, positions, bits, scope)


def run_trials(trial, trials: int, seed: int, workers: int) -> list:
    """trial(seed * 2^32 + t) for t in range(trials), in that order.

    Uses at most min(workers, trials, cpu count) processes, one chunk of
    seeds each, and runs serially when that is one or fewer; `trial` must
    be picklable (a module-level function or a partial of one)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    seeds = [(seed << 32) + t for t in range(trials)]
    procs = min(workers, trials, os.cpu_count() or 1)
    if procs <= 1:
        return [trial(s) for s in seeds]
    with concurrent.futures.ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(trial, seeds, chunksize=-(-trials // procs)))
