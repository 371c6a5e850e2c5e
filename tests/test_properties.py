"""Property tests over drawn code parameters. derandomize=True fixes the
examples, so every run of the suite checks the same cases."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gccodes import apply_edits, sample_plan
from gccodes.codec import MODES

from vectors import check_against_reference


@st.composite
def edited_regions(draw):
    """(message, region, ell, c, mode): a k-bit message hit by d <= 5
    edits, with c > d parities and k' + c <= 2^ell."""
    ell = draw(st.integers(2, 16))
    q = 1 << ell
    d = draw(st.integers(0, min(5, q - 2)))
    c = draw(st.integers(d + 1, min(d + 3, q - 1)))
    kp = draw(st.integers(1, min(q - c, 8)))
    k = draw(st.integers((kp - 1) * ell + 1, kp * ell))
    mode = draw(st.sampled_from(MODES))
    assume(d <= k + (mode == "insertions"))  # distinct edit positions
    msg = format(draw(st.integers(0, (1 << k) - 1)), f"0{k}b")
    plan = sample_plan(k, d, mode, seed=draw(st.integers(0, 2**32)))
    return msg, apply_edits(msg, plan), ell, c, mode


@settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edited_regions())
def test_scan_equals_reference_and_keeps_the_message(case):
    check_against_reference(*case)
