import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta_otto import coth, csch

from conftest import COTH_008, COTH_0025


def test_coth_frozen_values():
    assert coth(0.08) == pytest.approx(COTH_008, rel=1e-15)
    assert coth(0.025) == pytest.approx(COTH_0025, rel=1e-15)


def test_coth_matches_laurent_at_tiny_x():
    # the expm1 form against the two-term Laurent series, exact to double
    # precision at x = 1e-6
    x = 1e-6
    assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-15)


def test_coth_csch_match_laurent_at_small_x():
    # the expm1 form against the three-term Laurent series of each, whose
    # truncation error at x = 1.01e-4 is far below the tolerance
    x = 1.01e-4
    series = 1.0 / x + x / 3.0 - x**3 / 45.0
    assert coth(x) == pytest.approx(series, rel=1e-12)
    series = 1.0 / x - x / 6.0 + 7.0 * x**3 / 360.0
    assert csch(x) == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.08, 1.0, 5.0, 30.0])
def test_coth_csch_identity(x):
    # coth^2 - csch^2 = 1; the difference of two ~1/x^2 numbers puts an
    # eps/x^2 floor on the achievable accuracy, so scale the tolerance
    tol = 1e-13 + 5e-15 * coth(x) ** 2
    assert coth(x) ** 2 - csch(x) ** 2 == pytest.approx(1.0, abs=tol)


def test_no_overflow_for_cold_states():
    assert coth(400.0) == 1.0
    assert csch(400.0) == pytest.approx(2.0 * math.exp(-400.0), rel=1e-13)
    assert csch(800.0) == 0.0  # graceful underflow


@pytest.mark.parametrize("x", [1e-6, 0.08, 7.0])
def test_odd_symmetry(x):
    assert coth(-x) == -coth(x)
    assert csch(-x) == -csch(x)


def test_zero_argument_raises():
    with pytest.raises(ZeroDivisionError):
        coth(0.0)
    with pytest.raises(ZeroDivisionError):
        csch(0.0)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(exponent=st.floats(-300.0, 3.0), negative=st.booleans())
# where 1 - exp(-2|x|) computed with exp loses the most digits
@example(exponent=math.log10(1.0002e-4), negative=False)
@example(exponent=math.log10(1.23e-4), negative=True)
def test_coth_csch_match_mpmath(exponent, negative):
    x = math.copysign(10.0 ** exponent, -1.0 if negative else 1.0)
    with mpmath.workdps(40):
        for fn, ref in ((coth, mpmath.coth), (csch, mpmath.csch)):
            want = ref(mpmath.mpf(x))
            # csch(x) for |x| > 709 lies below the smallest normal float,
            # where only an absolute error of a few subnormals is possible
            assert abs(fn(x) - want) <= 1e-15 * abs(want) + 1e-323, fn
