import random
import subprocess
import sys

import gccodes

# Names the benchmark (perfbench/) looks up in gccodes.__all__; a name that
# leaves the public API silently blanks the per-layer metrics built on it.
BENCHMARK_NAMES = (
    "GcParams",
    "gc_encode",
    "gc_decode",
    "Success",
    "Failure",
    "MalformedTail",
    "recover_parities_del",
    "recover_parities_ins",
    "decode_with_parities",
    "anchor_split",
    "subsequence_check",
    "vt_correct",
    "vt_syndrome",
    "run_sync",
    "SyncConfig",
    "SystematicCode",
)


def test_every_exported_name_resolves():
    for name in gccodes.__all__:
        assert getattr(gccodes, name, None) is not None, name


def test_benchmark_names_are_exported():
    missing = [name for name in BENCHMARK_NAMES if name not in gccodes.__all__]
    assert missing == []
    assert callable(gccodes.SystematicCode.encode)


# Names the benchmark wraps in gccodes.sync to time the sync, vt and mds
# layers; sync must keep calling them through its module globals.
SYNC_WRAPPED = (
    "decode_with_parities",
    "anchor_split",
    "subsequence_check",
    "vt_correct",
    "vt_syndrome",
)


def test_sync_binds_the_public_callables():
    for name in SYNC_WRAPPED:
        assert getattr(gccodes.sync, name) is getattr(gccodes, name), name


def test_sync_calls_every_wrapped_name(monkeypatch):
    calls = dict.fromkeys(SYNC_WRAPPED + ("encode",), 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in SYNC_WRAPPED:
        monkeypatch.setattr(gccodes.sync, name, counting(name, getattr(gccodes.sync, name)))
    code_cls = gccodes.SystematicCode
    monkeypatch.setattr(code_cls, "encode", counting("encode", code_cls.encode))
    rng = random.Random(12)
    file_a = format(rng.getrandbits(4000), "04000b")
    # the root's anchor leaves gaps 0 (hash) and 3; a second anchor splits
    # the 3 into 2 (GC) and 1 (VT)
    file_b = gccodes.apply_edits(file_a, gccodes.EditPlan("deletions", (2100, 2200, 3900)))
    stats = gccodes.run_sync(file_a, file_b, gccodes.SyncConfig(mode="gc"))
    assert stats.success
    kinds = {kind for _, _, kind, _ in stats.ledger}
    assert {"hash", "vt_syndrome", "gc_parities", "anchor"} <= kinds
    assert all(calls.values()), calls


def test_import_loads_no_process_or_socket_modules():
    # the trial runner reaches ProcessPoolExecutor only when it runs, so a
    # bare import stays light
    heavy = ("multiprocessing", "concurrent.futures.process", "subprocess", "socket")
    code = f"import sys, gccodes; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
