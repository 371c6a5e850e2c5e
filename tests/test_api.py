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
