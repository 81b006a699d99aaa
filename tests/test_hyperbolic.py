import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta_otto import ThermalOscillatorState

from conftest import COTH_008, COTH_0025


def at(x):
    """The thermal state whose beta hbar omega / 2 is exactly x."""
    return ThermalOscillatorState(2.0 * x, 1.0)


def test_coth_frozen_values():
    assert at(0.08).nu == pytest.approx(COTH_008, rel=1e-15)
    assert at(0.025).nu == pytest.approx(COTH_0025, rel=1e-15)


def test_coth_matches_laurent_at_tiny_x():
    # the expm1 form against the two-term Laurent series, exact to double
    # precision at x = 1e-6
    x = 1e-6
    assert at(x).nu == pytest.approx(1.0 / x + x / 3.0, rel=1e-15)


def test_coth_csch_match_laurent_at_small_x():
    # the expm1 form against the three-term Laurent series of each, whose
    # truncation error at x = 1.01e-4 is far below the tolerance
    x = 1.01e-4
    state = at(x)
    series = 1.0 / x + x / 3.0 - x**3 / 45.0
    assert state.nu == pytest.approx(series, rel=1e-12)
    series = 1.0 / x - x / 6.0 + 7.0 * x**3 / 360.0
    assert state.csch4 == pytest.approx(series**4, rel=4e-12)


@pytest.mark.parametrize("x", [1e-3, 0.08, 1.0, 5.0, 30.0])
def test_coth_csch_identity(x):
    # coth^2 - csch^2 = 1; the difference of two ~1/x^2 numbers puts an
    # eps/x^2 floor on the achievable accuracy, so scale the tolerance
    state = at(x)
    tol = 1e-13 + 5e-15 * state.nu ** 2
    assert state.nu ** 2 - math.sqrt(state.csch4) == pytest.approx(1.0,
                                                                   abs=tol)


def test_no_overflow_for_cold_states():
    assert at(400.0).nu == 1.0
    assert at(150.0).csch4 == pytest.approx(16.0 * math.exp(-600.0),
                                            rel=1e-13)
    assert at(400.0).csch4 == 0.0  # graceful underflow
    assert at(800.0).csch4 == 0.0


# x from just above where csch^4 overflows (~8.6e-78) to deep underflow
@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(exponent=st.floats(-77.0, 3.0))
# where 1 - exp(-2x) computed with exp loses the most digits
@example(exponent=math.log10(1.0002e-4))
@example(exponent=math.log10(1.23e-4))
def test_coth_csch_match_mpmath(exponent):
    x = 10.0 ** exponent
    state = at(x)
    with mpmath.workdps(40):
        coth, csch = mpmath.coth(mpmath.mpf(x)), mpmath.csch(mpmath.mpf(x))
        assert abs(state.nu - coth) <= 1e-15 * coth
        # csch(x)^4 for x > 177 lies below the smallest normal float,
        # where only an absolute error of a few subnormals is possible;
        # the fourth power carries csch's relative error four times
        assert abs(state.csch4 - csch**4) <= 5e-15 * csch**4 + 1e-323
