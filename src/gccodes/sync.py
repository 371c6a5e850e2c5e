"""Two-node file synchronization over a noiseless link.

Node A holds file_a, node B holds file_b = file_a minus d deleted bits.
A segment with gap d is closed by a hash check (d=0), a VT syndrome (d=1),
or, in GC mode, out-of-band MDS parities for 2 <= d <= delta_cap with one
extra parity per retry round; anything else is narrowed by sending the
segment's center bits as an anchor that B locates, splitting the segment in
two. When a repair or split cannot be made, the segment falls back to a raw
transfer, which is what guarantees exact synchronization.

A segment's messages depend only on its own bits, so the round of a message
is its depth in the segment tree: the whole file opens in round 1, an
anchor's children open one round after it, and each retry parity or raw
fallback comes one round after the message before it.

Only payload bits are counted; per-message headers and segment ids are
free. Parities cross the link bare (no repetition tail) because the link
itself never drops bits.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial

from .channel import _sample_plan, apply_edits, run_trials
from .codec import Failure, Success, _block_parities, _check_bits, decode_with_parities
from .codec import subsequence_check
from .vt import vt_correct, vt_syndrome

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


@dataclass(frozen=True)
class SegmentPair:
    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int

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

    B searches the d+1 offsets the anchor can occupy after d deletions for
    a first and then a second exact occurrence; only a unique one splits.
    The matched anchor itself is known synchronized and belongs to neither
    child, so the children's gaps sum to the parent's."""
    a_len = pair.a_len
    L = min(config.anchor_len, a_len)
    h = (a_len - L) // 2
    anchor = file_a[pair.a_lo + h : pair.a_lo + h + L]
    start = pair.b_lo + max(0, h - pair.d)
    end = pair.b_lo + min(h, pair.b_len - L) + L  # a match must end by here
    o = file_b.find(anchor, start, end)
    if o < 0 or file_b.find(anchor, o + 1, end) >= 0:
        return None
    left = SegmentPair(pair.a_lo, pair.a_lo + h, pair.b_lo, o)
    right = SegmentPair(pair.a_lo + h + L, pair.a_hi, o + L, pair.b_hi)
    return left, right


def run_sync(file_a: str, file_b: str, config: SyncConfig) -> SyncStats:
    """Simulate the protocol until every segment is closed and report round
    and bit costs. success means B's reconstruction equals file_a exactly.

    Each segment is followed to its end before the next one is taken from a
    LIFO stack of (round, segment); children are pushed right first, so the
    walk is a preorder of the segment tree, and one stable sort of the
    ledger by round gives each round's messages in segment order."""
    _check_bits(file_a, "file_a")
    _check_bits(file_b, "file_b")
    if not subsequence_check(file_b, file_a):
        raise ModelViolation("file_b must be a subsequence of file_a")

    hash_len = config.hash_len
    ledger: list[tuple[int, str, str, int]] = []
    pieces: list[tuple[int, str]] = []  # (a_lo, the bits B commits from there)
    stack = [(1, SegmentPair(0, len(file_a), 0, len(file_b)))]

    def settle(rnd: int, seg: SegmentPair, a_seg: str, candidate: str | None) -> None:
        """Commit a candidate whose hash matches A's; otherwise A sends the
        segment raw in the next round and B commits A's bits. Equal strings
        have equal hashes, so only a differing candidate is hashed."""
        if candidate != a_seg and (
            candidate is None or _digest(candidate, hash_len) != _digest(a_seg, hash_len)
        ):
            ledger.append((rnd + 1, "a2b", "raw", seg.a_len))
            candidate = a_seg
        pieces.append((seg.a_lo, candidate))

    while stack:
        rnd, seg = stack.pop()
        d = seg.d
        # GC repair needs a field that holds the blocks and every parity; a
        # segment too large for it goes to an anchor like any d > 1 in VT mode
        gc = config.mode == "gc" and 2 <= d <= config.delta_cap
        ell = _segment_ell(seg.a_len, 2 * d + 3) if gc else None

        if d > 1 and ell is None:
            ledger.append((rnd, "a2b", "anchor", min(config.anchor_len, seg.a_len)))
            split = anchor_split(file_a, file_b, seg, config)
            ledger.append((rnd, "b2a", "anchor_reply", _bits_for(d + 2)))
            if split is None:
                settle(rnd, seg, file_a[seg.a_lo : seg.a_hi], None)
            else:
                left, right = split
                pieces.append((left.a_hi, file_a[left.a_hi : right.a_lo]))
                stack.extend((rnd + 1, child) for child in (right, left) if child.a_len > 0)
            continue

        a_seg = file_a[seg.a_lo : seg.a_hi]
        b_seg = file_b[seg.b_lo : seg.b_hi]
        if d == 0:
            ledger.append((rnd, "a2b", "hash", hash_len))
            settle(rnd, seg, a_seg, b_seg)
        elif d == 1:
            ledger.append((rnd, "a2b", "vt_syndrome", _bits_for(seg.a_len + 1) + hash_len))
            settle(rnd, seg, a_seg, vt_correct(b_seg, vt_syndrome(a_seg)))
        else:
            # d + 1 parities first, then one more per round while decoding
            # fails, up to 2d + 3; A encodes only the c parities it sends
            c = d + 1
            ledger.append((rnd, "a2b", "gc_parities", c * ell + hash_len))
            while True:
                parities = _block_parities(a_seg, ell, c)
                outcome = decode_with_parities(b_seg, seg.a_len, ell, parities)
                if not isinstance(outcome, Failure) or c == 2 * d + 3:
                    break
                rnd += 1
                c += 1
                ledger.append((rnd, "a2b", "gc_parity", ell))
            settle(rnd, seg, a_seg, outcome.message if isinstance(outcome, Success) else None)

    ledger.sort(key=lambda entry: entry[0])
    pieces.sort(key=lambda piece: piece[0])
    return SyncStats(
        rounds=ledger[-1][0],
        bits_a_to_b=sum(bits for _, direction, _, bits in ledger if direction == "a2b"),
        bits_b_to_a=sum(bits for _, direction, _, bits in ledger if direction == "b2a"),
        success="".join(content for _, content in pieces) == file_a,
        fallback_bits=sum(bits for _, _, kind, bits in ledger if kind == "raw"),
        ledger=tuple(ledger),
    )


def _sync_trial(file_bits: int, d: int, config: SyncConfig, trial_seed: int) -> SyncStats:
    rng = random.Random(trial_seed)
    file_a = format(rng.getrandbits(file_bits), f"0{file_bits}b")
    plan = _sample_plan(rng, file_bits, d, "deletions", "whole", None)
    return run_sync(file_a, apply_edits(file_a, plan), config)


def run_sync_trials(
    file_bits: int,
    d: int,
    trials: int,
    config: SyncConfig,
    seed: int = 0,
    workers: int = 1,
) -> list[SyncStats]:
    """Random-instance trials under `config`; trial t depends only on (seed, t),
    so VT and GC configs with the same seed synchronize the same file pairs."""
    if file_bits < 1:
        raise ValueError("file_bits must be positive")
    return run_trials(partial(_sync_trial, file_bits, d, config), trials, seed, workers)


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

