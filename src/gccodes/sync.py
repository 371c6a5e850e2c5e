"""Two-node file synchronization over a noiseless link.

Node A holds file_a, node B holds file_b = file_a minus d deleted bits.
Each round A sends one message per open segment and B answers. A segment
with gap d is closed by a hash check (d=0), a VT syndrome (d=1), or, in GC
mode, out-of-band MDS parities for 2 <= d <= delta_cap with one extra
parity per retry round; anything else is narrowed by sending the segment's
center bits as an anchor that B locates, splitting the segment in two.
When a repair or split cannot be made, the segment falls back to a raw
transfer, which is what guarantees exact synchronization.

Only payload bits are counted; per-message headers and segment ids are
free. Parities cross the link bare (no repetition tail) because the link
itself never drops bits.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .channel import _sample_plan, apply_edits
from .codec import Failure, Success, decode_with_parities, subsequence_check
from .gf import field
from .mds import SystematicCode
from .vt import NoConsistentInsertion, vt_correct, vt_syndrome

MODES = ("vt", "gc")


class ModelViolation(ValueError):
    """file_b is not a subsequence of file_a (deletions-only model)."""


@dataclass(frozen=True)
class SyncConfig:
    mode: str = "gc"
    anchor_len: int = 25
    delta_cap: int = 2
    hash_len: int = 32

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.anchor_len < 1:
            raise ValueError("anchor_len must be positive")
        if self.mode == "gc" and self.delta_cap < 2:
            raise ValueError("delta_cap must be >= 2 in GC mode")
        if not 1 <= self.hash_len <= 128:
            raise ValueError("hash_len must be in [1, 128], the blake2b digest width")

    def c_init(self, d: int) -> int:
        return d + 1

    def c_max(self, d: int) -> int:
        return 2 * d + 3


@dataclass
class SegmentPair:
    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int
    state: str = "new"  # new | gc_wait | raw_due; closed pairs leave the worklist
    c_cur: int = 0
    ell: int = 0
    parities: tuple[int, ...] = ()
    a_hash: int = 0

    @property
    def a_len(self) -> int:
        return self.a_hi - self.a_lo

    @property
    def b_len(self) -> int:
        return self.b_hi - self.b_lo

    @property
    def d(self) -> int:
        return self.a_len - self.b_len


@dataclass(frozen=True)
class SyncStats:
    rounds: int
    bits_a_to_b: int
    bits_b_to_a: int
    success: bool
    fallback_bits: int
    ledger: tuple[tuple[int, str, str, int], ...]  # (round, direction, kind, bits)


def _digest(bits: str, nbits: int) -> int:
    h = hashlib.blake2b(bits.encode("ascii"), digest_size=16).digest()
    return int.from_bytes(h, "big") & ((1 << nbits) - 1)


def _bits_for(count: int) -> int:
    """Bits needed to address `count` distinct values."""
    return (count - 1).bit_length() if count > 1 else 0


# A GC repair scans O((a_len/ell)^d) guesses; past this many blocks an
# anchor split narrows the segment more cheaply than a repair attempt.
_MAX_REPAIR_BLOCKS = 1500


def _segment_ell(a_len: int, c_total: int) -> int | None:
    """Chunk length for a GC repair: log2 of the segment length, bumped up
    until the field can hold the blocks plus all parities ever needed.
    None when no ell <= 16 works or the segment is too long to repair."""
    ell = min(max(2, _bits_for(a_len + 1)), 16)
    while ell <= 16:
        kp = -(-a_len // ell)
        if kp + c_total <= 1 << ell and kp <= _MAX_REPAIR_BLOCKS:
            return ell
        ell += 1
    return None


def anchor_split(
    file_a: str, file_b: str, pair: SegmentPair, config: SyncConfig
) -> tuple[SegmentPair, SegmentPair] | None:
    """Split on the anchor made of the center bits of A's segment.

    B scans the d+1 offsets the anchor can occupy after d deletions; only a
    unique exact occurrence splits. The matched anchor itself is known
    synchronized and belongs to neither child, so the children's gaps sum
    to the parent's."""
    d = pair.d
    a_len = pair.a_len
    L = min(config.anchor_len, a_len)
    h = (a_len - L) // 2
    anchor = file_a[pair.a_lo + h : pair.a_lo + h + L]
    lo = max(0, h - d)
    hi = min(h, pair.b_len - L)
    matches = [
        o
        for o in range(lo, hi + 1)
        if file_b[pair.b_lo + o : pair.b_lo + o + L] == anchor
    ]
    if len(matches) != 1:
        return None
    o = matches[0]
    left = SegmentPair(pair.a_lo, pair.a_lo + h, pair.b_lo, pair.b_lo + o)
    right = SegmentPair(pair.a_lo + h + L, pair.a_hi, pair.b_lo + o + L, pair.b_hi)
    return left, right


def run_sync(file_a: str, file_b: str, config: SyncConfig) -> SyncStats:
    """Simulate the protocol until every segment is closed and report round
    and bit costs. success means B's reconstruction equals file_a exactly."""
    if not subsequence_check(file_b, file_a):
        raise ModelViolation("file_b must be a subsequence of file_a")

    ledger: list[tuple[int, str, str, int]] = []
    pieces: list[tuple[int, int, str]] = []
    fallback = 0
    rounds = 0
    work = [SegmentPair(0, len(file_a), 0, len(file_b))]

    def commit(a_lo: int, a_hi: int, content: str) -> None:
        if a_hi > a_lo:
            pieces.append((a_lo, a_hi, content))

    def settle(seg: SegmentPair, candidate: str | None, a_hash: int) -> None:
        """Commit a candidate whose hash matches A's, else fall back to raw."""
        if candidate is not None and _digest(candidate, config.hash_len) == a_hash:
            commit(seg.a_lo, seg.a_hi, candidate)
        else:
            seg.state = "raw_due"
            nxt.append(seg)

    def try_gc(seg: SegmentPair, b_seg: str) -> None:
        """Decode with the first c_cur parities; a Failure waits for one more
        parity until c_max is reached."""
        outcome = decode_with_parities(b_seg, seg.a_len, seg.ell, seg.parities[: seg.c_cur])
        if isinstance(outcome, Failure) and seg.c_cur < config.c_max(seg.d):
            seg.state = "gc_wait"
            nxt.append(seg)
        else:
            settle(seg, outcome.message if isinstance(outcome, Success) else None, seg.a_hash)

    while work:
        rounds += 1
        nxt: list[SegmentPair] = []
        for seg in work:
            a_seg = file_a[seg.a_lo : seg.a_hi]
            b_seg = file_b[seg.b_lo : seg.b_hi]
            d = seg.d

            if seg.state == "raw_due":
                ledger.append((rounds, "a2b", "raw", seg.a_len))
                fallback += seg.a_len
                commit(seg.a_lo, seg.a_hi, a_seg)
                continue

            if seg.state == "gc_wait":
                ledger.append((rounds, "a2b", "gc_parity", seg.ell))
                seg.c_cur += 1
                try_gc(seg, b_seg)
                continue

            if d == 0:
                ledger.append((rounds, "a2b", "hash", config.hash_len))
                settle(seg, b_seg, _digest(a_seg, config.hash_len))
                continue

            if d == 1:
                cost = _bits_for(seg.a_len + 1) + config.hash_len
                ledger.append((rounds, "a2b", "vt_syndrome", cost))
                try:
                    candidate = vt_correct(b_seg, vt_syndrome(a_seg))
                except NoConsistentInsertion:
                    candidate = None
                settle(seg, candidate, _digest(a_seg, config.hash_len))
                continue

            if config.mode == "gc" and d <= config.delta_cap:
                ell = _segment_ell(seg.a_len, config.c_max(d))
                if ell is not None:
                    seg.c_cur = config.c_init(d)
                    cost = seg.c_cur * ell + config.hash_len
                    ledger.append((rounds, "a2b", "gc_parities", cost))
                    kp = -(-seg.a_len // ell)
                    symbols = [
                        int(ch, 2) << (ell - len(ch))
                        for ch in (a_seg[i * ell : (i + 1) * ell] for i in range(kp))
                    ]
                    code = SystematicCode(field(ell), kp, config.c_max(d))
                    seg.parities = code.encode(symbols)
                    seg.ell = ell
                    seg.a_hash = _digest(a_seg, config.hash_len)
                    try_gc(seg, b_seg)
                    continue
                # segment too large for the backing field: fall through to anchor

            L = min(config.anchor_len, seg.a_len)
            ledger.append((rounds, "a2b", "anchor", L))
            split = anchor_split(file_a, file_b, seg, config)
            ledger.append((rounds, "b2a", "anchor_reply", _bits_for(d + 2)))
            if split is None:
                seg.state = "raw_due"
                nxt.append(seg)
            else:
                left, right = split
                commit(left.a_hi, right.a_lo, file_a[left.a_hi : right.a_lo])
                for child in (left, right):
                    if child.a_len > 0:
                        nxt.append(child)
        work = nxt

    pieces.sort(key=lambda p: p[0])
    reconstruction = "".join(content for _, _, content in pieces)
    a2b = sum(bits for _, direction, _, bits in ledger if direction == "a2b")
    b2a = sum(bits for _, direction, _, bits in ledger if direction == "b2a")
    return SyncStats(
        rounds=rounds,
        bits_a_to_b=a2b,
        bits_b_to_a=b2a,
        success=reconstruction == file_a,
        fallback_bits=fallback,
        ledger=tuple(ledger),
    )


def _sync_trial(file_bits: int, d: int, mode: str, config: SyncConfig, trial_seed: int) -> SyncStats:
    rng = random.Random(trial_seed)
    file_a = format(rng.getrandbits(file_bits), f"0{file_bits}b")
    plan = _sample_plan(rng, file_bits, d, "deletions", "whole", None)
    file_b = apply_edits(file_a, plan)
    return run_sync(file_a, file_b, replace(config, mode=mode))


def run_sync_trials(
    file_bits: int,
    d: int,
    trials: int,
    mode: str,
    seed: int = 0,
    config: SyncConfig | None = None,
    workers: int = 1,
) -> list[SyncStats]:
    """Random-instance trials; trial t depends only on (seed, t), so VT and
    GC runs with the same seed synchronize the same file pairs."""
    if trials < 1:
        raise ValueError("trials must be positive")
    cfg = config if config is not None else SyncConfig(mode=mode)
    seeds = [(seed << 32) + t for t in range(trials)]
    if workers <= 1:
        return [_sync_trial(file_bits, d, mode, cfg, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                _sync_trial,
                [file_bits] * trials,
                [d] * trials,
                [mode] * trials,
                [cfg] * trials,
                seeds,
            )
        )


def sync_row(mode: str, file_bits: int, d: int, stats: list[SyncStats], seed: int) -> dict:
    trials = len(stats)
    return {
        "mode": mode,
        "file_bits": file_bits,
        "d": d,
        "trials": trials,
        "mean_rounds": sum(s.rounds for s in stats) / trials,
        "mean_cost_bits": sum(s.bits_a_to_b + s.bits_b_to_a for s in stats) / trials,
        "mean_fallback_bits": sum(s.fallback_bits for s in stats) / trials,
        "success_rate": sum(1 for s in stats if s.success) / trials,
        "seed": seed,
    }


SYNC_CSV_FIELDS = (
    "mode",
    "file_bits",
    "d",
    "trials",
    "mean_rounds",
    "mean_cost_bits",
    "mean_fallback_bits",
    "success_rate",
    "seed",
)
