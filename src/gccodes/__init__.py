"""Systematic guess-and-check codes for multiple deletions or insertions,
plus a VT single-deletion codec and a two-node file-sync simulator."""

from .channel import EditPlan, apply_edits, sample_plan
from .codec import (
    DecodeOutcome,
    Failure,
    GcParams,
    MalformedTail,
    NoCandidate,
    Success,
    decode_case,
    decode_with_parities,
    gc_decode,
    gc_encode,
    recover_parities_del,
    recover_parities_ins,
    subsequence_check,
)
from .experiments import PfEstimate, estimate_pf, gamma_census, sweep, theoretical_bound
from .gf import GF2m, field
from .mds import SystematicCode
from .sync import ModelViolation, SegmentPair, SyncConfig, SyncStats, anchor_split, run_sync
from .vt import NoConsistentInsertion, VtSyndrome, vt_correct, vt_syndrome

__version__ = "0.1.0"

__all__ = [
    "DecodeOutcome",
    "EditPlan",
    "Failure",
    "GF2m",
    "GcParams",
    "MalformedTail",
    "ModelViolation",
    "NoCandidate",
    "NoConsistentInsertion",
    "PfEstimate",
    "SegmentPair",
    "Success",
    "SyncConfig",
    "SyncStats",
    "SystematicCode",
    "VtSyndrome",
    "anchor_split",
    "apply_edits",
    "decode_case",
    "decode_with_parities",
    "estimate_pf",
    "field",
    "gamma_census",
    "gc_decode",
    "gc_encode",
    "recover_parities_del",
    "recover_parities_ins",
    "run_sync",
    "sample_plan",
    "subsequence_check",
    "sweep",
    "theoretical_bound",
    "vt_correct",
    "vt_syndrome",
]
