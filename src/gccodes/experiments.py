"""Monte Carlo failure-rate estimation, the analytic failure bound, chunk
length / parity count sweeps, and the exhaustive preimage census behind the
decoder's collision bound. Trials run through `channel.run_trials`, so an
estimate is the same for any worker count."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .channel import _sample_plan, apply_edits, run_trials
from .codec import GcParams, Success, gc_decode, gc_encode


@dataclass(frozen=True)
class PfEstimate:
    params: GcParams
    kind: str
    scope: str
    trials: int
    failures: int
    wrong_successes: int  # must stay 0: the decoder never decodes wrongly
    no_candidates: int  # counted inside failures, tracked separately
    seed: int
    wall_time_ms: float = 0.0

    @property
    def pf_hat(self) -> float:
        return self.failures / self.trials


def _trial(params: GcParams, kind: str, scope: str, edits: int, trial_seed: int) -> str:
    """One encode, channel and decode: the outcome's class name, or "wrong"
    for a Success with the wrong message."""
    rng = random.Random(trial_seed)
    message = format(rng.getrandbits(params.k), f"0{params.k}b")
    codeword = gc_encode(message, params)
    plan = _sample_plan(rng, params.n, edits, kind, scope, params.k)
    outcome = gc_decode(apply_edits(codeword, plan), params, kind)
    if isinstance(outcome, Success) and outcome.message != message:
        return "wrong"
    return type(outcome).__name__


def estimate_pf(
    params: GcParams,
    kind: str = "deletions",
    scope: str = "whole",
    trials: int = 10000,
    seed: int = 0,
    workers: int = 1,
    edits: int | None = None,
) -> PfEstimate:
    """Encode a fresh uniform message per trial, apply d = delta random
    edits (overridable via `edits`), decode, and count Failure plus
    NoCandidate outcomes as failures. Results are identical for any
    worker count."""
    d = params.delta if edits is None else edits
    if not 0 <= d <= params.delta:
        raise ValueError("edit count must be in [0, delta]")
    start = time.perf_counter()
    counts = Counter(run_trials(partial(_trial, params, kind, scope, d), trials, seed, workers))
    wall_ms = (time.perf_counter() - start) * 1000.0
    failures = counts["Failure"] + counts["NoCandidate"]
    return PfEstimate(
        params, kind, scope, trials, failures, counts["wrong"], counts["NoCandidate"], seed, wall_ms
    )


def theoretical_bound(params: GcParams) -> float:
    """Analytic failure-probability bound: the case count times the 2^(delta^2)
    input-collision cap, divided by q^(c - delta). Only meaningful below 1
    (requires c > 2*delta for a vanishing value)."""
    t = math.comb(params.k_prime + params.delta - 1, params.delta)
    gamma_cap = 2 ** (params.delta * params.delta)
    # exact int division: q^(c - delta) can exceed a float's range
    return t * gamma_cap / (1 << params.ell * (params.c - params.delta))


def sweep(
    k: int,
    delta: int,
    ell_values: tuple[int, ...],
    c_values: tuple[int, ...],
    trials: int,
    seed: int = 0,
    kind: str = "deletions",
    scope: str = "whole",
    workers: int = 1,
) -> list[PfEstimate]:
    """One estimate per (ell, c) grid point. All points share the per-trial
    seeds, hence the same message stream, for variance reduction."""
    out = []
    for ell in sorted(ell_values):
        for c in sorted(c_values):
            params = GcParams(k=k, ell=ell, c=c, delta=delta)
            out.append(estimate_pf(params, kind, scope, trials, seed, workers))
    return out


def estimate_row(est: PfEstimate) -> dict:
    p = est.params
    return {
        "k": p.k,
        "ell": p.ell,
        "c": p.c,
        "delta": p.delta,
        "scope": est.scope,
        "trials": est.trials,
        "failures": est.failures,
        "pf_hat": est.pf_hat,
        "bound": theoretical_bound(p),
        "redundancy": p.n - p.k,
        "rate": p.k / p.n,
        "seed": est.seed,
        "wall_time_ms": round(est.wall_time_ms, 3),
    }


def gamma_census(
    k: int = 16, ell: int = 4, deletion_position: int = 3, case_index: int = 4
) -> int:
    """Exhaustively decode every k-bit message in a fixed single-deletion
    case using the first parity only, group the outputs by (first parity,
    decoded q-ary string), and return the largest group. For a wrong case
    the bound is 2; the correct case inverts the deletion, so every group
    has size 1."""
    if k > 20:
        raise ValueError("census is exhaustive over 2^k messages; keep k <= 20")
    if ell < 1:
        raise ValueError("ell must be positive")
    if k % ell:
        raise ValueError("census assumes ell divides k")
    kp = k // ell
    if not 1 <= deletion_position <= k:
        raise ValueError("deletion position out of range")
    if not 1 <= case_index <= kp:
        raise ValueError("case index out of range")
    case = case_index - 1
    pos = deletion_position - 1
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    for val in range(1 << k):
        u = format(val, f"0{k}b")
        p1 = 0
        for i in range(kp):
            p1 ^= int(u[i * ell : (i + 1) * ell], 2)
        y = u[:pos] + u[pos + 1 :]
        decoded = []
        cursor = 0
        acc = 0
        for i in range(kp):
            clen = ell - 1 if i == case else ell
            if i != case:
                s = int(y[cursor : cursor + clen], 2)
                decoded.append(s)
                acc ^= s
            else:
                decoded.append(-1)  # placeholder for the erasure
            cursor += clen
        decoded[case] = p1 ^ acc  # erasure decoding from the all-ones parity
        key = (p1, tuple(decoded))
        groups[key] = groups.get(key, 0) + 1
    return max(groups.values())
