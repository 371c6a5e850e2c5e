"""Checks of the benchmark's traced runs.

    python3 -m pytest perfbench/test_decomposition.py -q

The traced decode is a decomposition of gc_decode into the public tail
recovery plus one decode_with_parities per boundary split; it must give
gc_decode's message or candidate set on every op. Layer names missing from
gccodes.__all__ must be reported absent without breaking the run.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gccodes  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Seeds and op counts chosen so that both runs include Failure outcomes
# (decode_d2 seed 0: ops 24 and 1095; decode_d3 seed 1: op 18).
@pytest.mark.parametrize("name, seed, ops", [("decode_d2", 0, 1200), ("decode_d3", 1, 40)])
def test_decomposition_reproduces_gc_decode(name, seed, ops):
    wl = WORKLOADS[name][0](gccodes)
    tracer = Tracer(gccodes)
    kinds = set()
    for i in range(ops):
        tracer.op = i
        inp = wl.make(seed, i)
        outcome = wl.op(inp)
        assert tracer.decode_op(wl, inp) == wl.candidates(outcome), f"op {i}"
        kinds.add(type(outcome).__name__)
    assert kinds == {"Success", "Failure"}
    assert not tracer.absent
    splits = wl.params.delta + 1
    assert len(tracer.spans) == ops * (2 + splits)  # op, tail, one scan per split
    metrics = layer_metrics(tracer.spans, "decode", ops, 0.0)
    assert metrics["codec.splits_per_op"][0] == splits


def without(*names):
    """A stand-in for gccodes whose __all__ lacks the given names."""
    keep = [n for n in gccodes.__all__ if n not in names]
    return types.SimpleNamespace(__all__=keep, **{n: getattr(gccodes, n) for n in keep})


def test_missing_codec_names_are_absent_and_the_op_still_runs():
    g = without("recover_parities_del", "recover_parities_ins")
    wl = WORKLOADS["decode_d2"][0](g)
    tracer = Tracer(g)
    inp = wl.make(0, 0)
    assert tracer.decode_op(wl, inp) == wl.candidates(wl.op(inp))
    assert "codec.tail_del_us" in tracer.absent
    assert "codec.ns_per_guess_d2" in tracer.absent


def test_missing_systematic_code_marks_mds_absent():
    g = without("SystematicCode")
    wl = WORKLOADS["sync_gc"][0](g)
    tracer = Tracer(g)
    inp = wl.make(0, 0)
    assert tracer.sync_op(wl, inp) == wl.op(inp)
    assert tracer.absent == {"mds.encode_ms"}
