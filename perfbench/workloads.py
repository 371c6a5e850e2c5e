"""The four benchmark workloads: seeded inputs, the op each one times, and
the check of every output against the truth the benchmark generated.

Inputs come from the benchmark's own `random.Random`, keyed by workload
(one key for both sync workloads), seed and op index, so op i of a seed is
the same on every run and every commit. The library receives only the generated inputs. Every name taken
from `gccodes` is looked up through `public()`, which admits only names in
`gccodes.__all__`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

FILE_BITS = 100_000  # sync file size, the criterion-13 setting
SYNC_DELETIONS = 50


def public(gccodes, name: str):
    """The exported object `name`, or None when `gccodes.__all__` lacks it."""
    if name not in getattr(gccodes, "__all__", ()):
        return None
    return getattr(gccodes, name, None)


def _rng(workload: str, seed: str | int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _delete(x: str, positions: list[int]) -> str:
    """x without the bits at the given sorted 0-based positions."""
    out = []
    prev = 0
    for p in positions:
        out.append(x[prev:p])
        prev = p + 1
    out.append(x[prev:])
    return "".join(out)


def _insert(x: str, positions: list[int], bits: list[str]) -> str:
    """x with bits[j] placed before the bit at sorted slot positions[j]."""
    out = []
    prev = 0
    for p, b in zip(positions, bits):
        out.append(x[prev:p])
        out.append(b)
        prev = p
    out.append(x[prev:])
    return "".join(out)


@dataclass(frozen=True)
class DecodeInput:
    message: str
    received: str
    mode: str  # "deletions" | "insertions"


@dataclass(frozen=True)
class SyncInput:
    file_a: str
    file_b: str


class DecodeWorkload:
    """gc_decode on one GcParams row; ops alternate between delta deletions
    and delta insertions, all inside the k message bits, so every op scans
    all delta + 1 boundary splits and the per-op cost is uniform."""

    kind = "decode"

    def __init__(self, name: str, gccodes, k: int, ell: int, c: int, delta: int):
        self.name = name
        self.params = public(gccodes, "GcParams")(k, ell, c, delta)
        self.encode = public(gccodes, "gc_encode")
        self.decode = public(gccodes, "gc_decode")
        self.Success = public(gccodes, "Success")
        self.Failure = public(gccodes, "Failure")

    def draw(self, seed, i: int) -> tuple:
        """The benchmark's own random draw for op i: message, mode, edits."""
        p = self.params
        rng = _rng(self.name, seed, i)
        message = _bits(rng, p.k)
        if i % 2 == 0:
            return message, "deletions", sorted(rng.sample(range(p.k), p.delta)), []
        positions = sorted(rng.sample(range(p.k + 1), p.delta))
        return message, "insertions", positions, [rng.choice("01") for _ in positions]

    def build(self, draw: tuple) -> DecodeInput:
        """Encode with the library, then apply the drawn edits."""
        message, mode, positions, bits = draw
        codeword = self.encode(message, self.params)
        if mode == "deletions":
            return DecodeInput(message, _delete(codeword, positions), mode)
        return DecodeInput(message, _insert(codeword, positions, bits), mode)

    def make(self, seed, i: int) -> DecodeInput:
        return self.build(self.draw(seed, i))

    def op(self, inp: DecodeInput):
        return self.decode(inp.received, self.params, inp.mode)

    def candidates(self, outcome) -> frozenset[str]:
        if isinstance(outcome, self.Success):
            return frozenset((outcome.message,))
        if isinstance(outcome, self.Failure):
            return outcome.candidates
        return frozenset()

    def check(self, inp: DecodeInput, outcome) -> tuple[str | None, tuple]:
        """(error or None, digest summary). With at most delta edits the true
        message must be the Success or among the Failure candidates, so a
        wrong Success and any NoCandidate are errors."""
        cands = self.candidates(outcome)
        kind = type(outcome).__name__
        digest = hashlib.sha256(" ".join(sorted(cands)).encode()).hexdigest()[:8]
        summary = (inp.mode[0], kind, len(cands), digest)
        if inp.message not in cands:
            return f"{kind} without the true message", summary
        return None, summary

    def failed_decode(self, outcome) -> bool:
        return isinstance(outcome, self.Failure)


class SyncWorkload:
    """run_sync on 10^5-bit file pairs where B is A minus 50 random bits."""

    kind = "sync"

    def __init__(self, gccodes, mode: str):
        self.run_sync = public(gccodes, "run_sync")
        self.config = public(gccodes, "SyncConfig")(mode=mode)

    def draw(self, seed, i: int) -> SyncInput:
        """Keyed by "sync", not the workload name, so that sync_gc and
        sync_vt synchronize the same file pairs for a seed."""
        rng = _rng("sync", seed, i)
        file_a = _bits(rng, FILE_BITS)
        positions = sorted(rng.sample(range(FILE_BITS), SYNC_DELETIONS))
        return SyncInput(file_a, _delete(file_a, positions))

    @staticmethod
    def build(draw: SyncInput) -> SyncInput:
        return draw

    def make(self, seed, i: int) -> SyncInput:
        return self.draw(seed, i)

    def op(self, inp: SyncInput):
        return self.run_sync(inp.file_a, inp.file_b, self.config)

    def check(self, inp: SyncInput, stats) -> tuple[str | None, tuple]:
        """run_sync does not hand back B's reconstruction; it compares it with
        file_a (the benchmark's truth) itself and reports `success`. The
        benchmark checks that flag and that the bit ledger adds up."""
        summary = (stats.rounds, stats.bits_a_to_b, stats.bits_b_to_a, stats.fallback_bits)
        if not stats.success:
            return "sync ended inexact", summary
        a2b = sum(b for _, direction, _, b in stats.ledger if direction == "a2b")
        b2a = sum(b for _, direction, _, b in stats.ledger if direction == "b2a")
        raw = sum(b for _, _, kind, b in stats.ledger if kind == "raw")
        if (a2b, b2a, raw) != (stats.bits_a_to_b, stats.bits_b_to_a, stats.fallback_bits):
            return "bit ledger does not add up", summary
        if max((r for r, _, _, _ in stats.ledger), default=0) != stats.rounds:
            return "ledger rounds disagree with the round count", summary
        return None, summary

    @staticmethod
    def failed_decode(stats) -> bool:
        return False


# Names and the minimum op count per run. Every run completes at least
# `min_ops` ops, so the digest of the first `min_ops` outputs is comparable
# between runs of one seed whatever the host speed.
WORKLOADS = {
    "decode_d2": (lambda g: DecodeWorkload("decode_d2", g, 256, 8, 3, 2), 400),
    "decode_d3": (lambda g: DecodeWorkload("decode_d3", g, 256, 8, 4, 3), 40),
    "sync_gc": (lambda g: SyncWorkload(g, "gc"), 12),
    "sync_vt": (lambda g: SyncWorkload(g, "vt"), 100),
}
