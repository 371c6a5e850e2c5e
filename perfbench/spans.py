"""Spans around the calls into each layer, recorded from the benchmark's own
files, and the per-layer metrics derived from them.

A span is (name, start_ns, end_ns, parent span id or -1, op id, info); its
id is its index in `Tracer.spans`. Spans stay in memory and are written out
when the run ends. Layers whose public names are missing from
`gccodes.__all__` are not traced, and their metrics are reported absent.

Layers and where they are measured:
  codec  decode workloads: an op is decomposed into the public tail recovery
         (`recover_parities_del` / `_ins`) and one `decode_with_parities`
         per boundary split; the op span's self time is the merge.
  sync   sync workloads: the names `gccodes.sync` calls are wrapped in that
         module for the traced trial; the trial span's self time is sync's.
  vt     `vt_correct` / `vt_syndrome` as called by sync.
  mds    `SystematicCode.encode` as called by sync.
  gf     no span: its exp/log lookups are inlined in the codec and mds spans.
  channel, experiments, cli: not measured. `estimate_pf` is the decode loop
         plus the channel, and the CLI is I/O around the same calls.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter_ns

from workloads import public

# Name gccodes.sync calls -> (span name, metrics reported absent without it).
SYNC_CALLS = {
    "decode_with_parities": ("repair", (
        "sync.repair_ms", "sync.repair_calls", "sync.repair_ns_per_guess",
        "sync.repair_ok_frac", "sync.repair_kp_max",
    )),
    "anchor_split": ("anchor", ("sync.anchor_ms", "sync.anchor_calls", "sync.anchor_hit_frac")),
    "subsequence_check": ("check", ("sync.check_ms",)),
    "vt_correct": ("vt_correct", ("vt.correct_ms", "vt.calls")),
    "vt_syndrome": ("vt_syndrome", ("vt.syndrome_ms", "vt.calls")),
}

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("codec.tail_del_us", "us"),
    ("codec.tail_ins_us", "us"),
    ("codec.scan_d0_us", "us"),
    ("codec.scan_d1_us", "us"),
    ("codec.scan_d2_us", "us"),
    ("codec.scan_d3_us", "us"),
    ("codec.ns_per_guess_d1", "ns"),
    ("codec.ns_per_guess_d2", "ns"),
    ("codec.ns_per_guess_d3", "ns"),
    ("codec.merge_us", "us"),
    ("codec.splits_per_op", "count"),
    ("codec.guesses_per_op", "count"),
    ("codec.candidates_per_op", "count"),
    ("sync.repair_ms", "ms"),
    ("sync.repair_calls", "count"),
    ("sync.repair_ns_per_guess", "ns"),
    ("sync.repair_ok_frac", "frac"),
    ("sync.repair_kp_max", "blocks"),
    ("sync.anchor_ms", "ms"),
    ("sync.anchor_calls", "count"),
    ("sync.anchor_hit_frac", "frac"),
    ("sync.check_ms", "ms"),
    ("sync.fallback_bits", "bits"),
    ("sync.self_ms", "ms"),
    ("vt.correct_ms", "ms"),
    ("vt.syndrome_ms", "ms"),
    ("vt.calls", "count"),
    ("mds.encode_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    def __init__(self, gccodes):
        self.g = gccodes
        self.spans: list[tuple] = []
        self.current = -1
        self.op = -1
        self.absent: set[str] = set()

    def span(self, name: str, fn, *args, info=None):
        """Call fn(*args) inside a span; `info(result)` may add a detail."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.current
        self.current = sid
        start = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = perf_counter_ns()
            self.current = parent
            self.spans[sid] = (name, start, end, parent, self.op, None)
        if info is not None:
            self.spans[sid] = self.spans[sid][:5] + (info(result),)
        return result

    def wrap(self, name: str, fn, info=None):
        def traced(*args):
            return self.span(name, fn, *args, info=info)

        return traced

    # -- decode workloads ---------------------------------------------------

    def decode_op(self, wl, inp):
        """One traced decode: the op span holds the tail recovery and one
        decode_with_parities per split. Returns the merged candidate set.
        Without those public names the op span holds a plain gc_decode."""
        g = self.g
        recover = public(g, f"recover_parities_{inp.mode[:3]}")
        scan = public(g, "decode_with_parities")
        if recover is None or scan is None:
            self.absent.update(n for n, _ in METRICS if n.startswith("codec."))
            return self.span("op", lambda: wl.candidates(wl.op(inp)), info=len)
        p = wl.params
        kp = -(-p.k // p.ell)
        malformed = public(g, "MalformedTail") or ValueError

        def op():
            try:
                parity_bits, splits = self.span(f"tail_{inp.mode[:3]}", recover, inp.received, p)
            except malformed:
                return frozenset()
            parities = tuple(int(parity_bits[r * p.ell : (r + 1) * p.ell], 2) for r in range(p.c))
            found = set()
            for region, d in splits:
                outcome = self.span(
                    f"scan_d{d}", scan, region, p.k, p.ell, parities, inp.mode,
                    info=lambda o, d=d: comb(kp + d - 1, d),
                )
                found |= wl.candidates(outcome)
            return frozenset(found)

        return self.span("op", op, info=len)

    # -- sync workloads -----------------------------------------------------

    def sync_op(self, wl, inp):
        """One traced sync trial, with the names gccodes.sync calls wrapped in
        that module and SystematicCode.encode wrapped on its class."""
        g = self.g
        module = sys.modules[wl.run_sync.__module__]
        success = public(g, "Success") or ()  # isinstance(x, ()) is False
        saved = {}
        for name, (label, metrics) in SYNC_CALLS.items():
            fn = public(g, name)
            if fn is None or getattr(module, name, None) is not fn:
                self.absent.update(metrics)
                continue
            saved[name] = fn
            if label == "repair":
                setattr(module, name, self._repair(fn, success))
            elif label == "anchor":
                setattr(module, name, self.wrap(label, fn, info=lambda o: o is not None))
            else:
                setattr(module, name, self.wrap(label, fn))
        code_cls = public(g, "SystematicCode")
        encode = getattr(code_cls, "encode", None)
        if encode is None:
            self.absent.add("mds.encode_ms")
        else:
            code_cls.encode = lambda code, message: self.span("mds_encode", encode, code, message)
        try:
            return self.span("op", wl.op, inp, info=lambda s: s.fallback_bits)
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)
            if encode is not None:
                code_cls.encode = encode

    def _repair(self, fn, success):
        """decode_with_parities wrapped so that its span records (Success?,
        k', guesses), the guesses being C(k'+d-1, d) from the arguments."""

        def repair(received, k, ell, parities, mode="deletions"):
            d = k - len(received) if mode == "deletions" else len(received) - k
            kp = -(-k // ell)
            return self.span(
                "repair", fn, received, k, ell, parities, mode,
                info=lambda o: (isinstance(o, success), kp, comb(kp + d - 1, d)),
            )

        return repair

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op", "info"]) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def layer_metrics(spans, kind: str, ops: int, overhead: float) -> dict:
    """{name: (value, base)} for every per-layer metric, from the spans of
    `ops` traced ops. Times per call are means over the calls named in the
    base; times per op are means over the ops. A workload that never makes
    a call reports 0 for it, with base 0."""
    calls: dict[str, list] = {}
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, info in spans:
        calls.setdefault(name, []).append((end - start, info))
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = [
        s[2] - s[1] - child_ns[sid] for sid, s in enumerate(spans) if s[0] == "op"
    ]

    def n(name):
        return len(calls.get(name, ()))

    def ns(name):
        return sum(t for t, _ in calls.get(name, ()))

    def per_call(name, scale):
        k = n(name)
        return (ns(name) / k / scale if k else 0.0), f"{k} {name} calls"

    def per_op(total, what):
        return (total / ops if ops else 0.0), f"{what} over {ops} ops"

    m = {"trace.overhead_frac": (overhead, f"traced vs untraced time of the same {ops} ops")}
    if kind == "decode":
        guesses = {d: sum(i for _, i in calls.get(f"scan_d{d}", ())) for d in range(4)}
        m["codec.tail_del_us"] = per_call("tail_del", 1e3)
        m["codec.tail_ins_us"] = per_call("tail_ins", 1e3)
        for d in range(4):
            m[f"codec.scan_d{d}_us"] = per_call(f"scan_d{d}", 1e3)
        for d in (1, 2, 3):
            g = guesses[d]
            m[f"codec.ns_per_guess_d{d}"] = (ns(f"scan_d{d}") / g if g else 0.0), f"{g} d={d} guesses"
        m["codec.merge_us"] = per_op(sum(self_ns) / 1e3, "op span self time")
        m["codec.splits_per_op"] = per_op(sum(n(f"scan_d{d}") for d in range(4)), "splits")
        m["codec.guesses_per_op"] = per_op(sum(guesses.values()), "guesses")
        m["codec.candidates_per_op"] = per_op(sum(i for _, i in calls.get("op", ())), "candidates")
    else:
        repairs = calls.get("repair", ())
        guesses = sum(i[2] for _, i in repairs)
        k = len(repairs)
        m["sync.repair_ms"] = per_op(ns("repair") / 1e6, "repair time")
        m["sync.repair_calls"] = per_op(k, f"{k} repair calls")
        m["sync.repair_ns_per_guess"] = (ns("repair") / guesses if guesses else 0.0), f"{guesses} guesses"
        m["sync.repair_ok_frac"] = (sum(i[0] for _, i in repairs) / k if k else 0.0), f"{k} repair calls"
        m["sync.repair_kp_max"] = max((i[1] for _, i in repairs), default=0), f"{k} repair calls"
        anchors = calls.get("anchor", ())
        a = len(anchors)
        m["sync.anchor_ms"] = per_op(ns("anchor") / 1e6, "anchor time")
        m["sync.anchor_calls"] = per_op(a, f"{a} anchor calls")
        m["sync.anchor_hit_frac"] = (sum(i for _, i in anchors) / a if a else 0.0), f"{a} anchor calls"
        m["sync.check_ms"] = per_op(ns("check") / 1e6, "entry subsequence_check time")
        m["sync.fallback_bits"] = per_op(sum(i for _, i in calls.get("op", ())), "raw fallback bits")
        m["sync.self_ms"] = per_op(sum(self_ns) / 1e6, "trial span self time")
        m["vt.correct_ms"] = per_op(ns("vt_correct") / 1e6, "vt_correct time")
        m["vt.syndrome_ms"] = per_op(ns("vt_syndrome") / 1e6, "vt_syndrome time")
        v = n("vt_correct") + n("vt_syndrome")
        m["vt.calls"] = per_op(v, f"{v} vt calls")
        m["mds.encode_ms"] = per_op(ns("mds_encode") / 1e6, "SystematicCode.encode time")
    return {name: m.get(name, (0.0, "not called by this workload")) for name, _ in METRICS}
