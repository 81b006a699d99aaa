import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta_otto import (EngineConfig, ThermalOscillatorState, engine_condition,
                      gaussian_fidelity, heat_sign_threshold,
                      hot_isochore_heat, stroke_work)

from conftest import (CONFIG_BOX, COTH_008, COTH_0025, HEAT_THRESHOLD, Q2_AD,
                      W1_AD, W3_AD)


def test_thermal_mean_energy_frozen():
    cold = ThermalOscillatorState(0.5, 0.32)
    hot = ThermalOscillatorState(0.05, 1.0)
    assert cold.mean_energy == pytest.approx(0.16 * COTH_008, rel=1e-14)
    assert hot.mean_energy == pytest.approx(0.5 * COTH_0025, rel=1e-14)


def test_thermal_state_validation():
    with pytest.raises(ValueError):
        ThermalOscillatorState(-0.5, 0.32)
    with pytest.raises(ValueError):
        ThermalOscillatorState(0.5, 0.0)
    # beta hbar omega / 2 is positive but its occupation factors are not
    # finite floats: csch^4 overflows, x underflows to a subnormal or to 0
    for beta in (1e-100, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="not finite"):
            ThermalOscillatorState(beta, 1.0)


def test_state_owns_its_occupation_factors():
    cold = ThermalOscillatorState(0.5, 0.32)
    assert cold.nu == pytest.approx(COTH_008, rel=1e-14)
    assert cold.csch4 == pytest.approx((COTH_008**2 - 1.0) ** 2, rel=1e-12)
    assert cold.mean_energy == 0.5 * 0.32 * cold.nu


def test_adiabatic_stroke_works_frozen(base_config):
    c = base_config
    w1 = stroke_work(1.0, c.cold, c.omega2)
    w3 = stroke_work(1.0, c.hot, c.omega1)
    assert w1 == pytest.approx(W1_AD, rel=1e-14)
    assert w3 == pytest.approx(W3_AD, rel=1e-14)


def test_stroke_work_increases_with_q_star(base_config):
    c = base_config
    base = stroke_work(1.0, c.cold, c.omega2)
    assert stroke_work(1.3, c.cold, c.omega2) > base


def test_hot_isochore_heat_frozen(base_config):
    c = base_config
    assert hot_isochore_heat(1.0, c.cold, c.hot) == pytest.approx(Q2_AD,
                                                                  rel=1e-14)


def test_heat_sign_threshold(base_config):
    cold, hot = base_config.cold, base_config.hot
    level = heat_sign_threshold(cold, hot)
    assert level == pytest.approx(HEAT_THRESHOLD, rel=1e-13)
    # heat vanishes exactly at the threshold and is negative beyond it
    scale = hot_isochore_heat(1.0, cold, hot)
    assert abs(hot_isochore_heat(level, cold, hot)) < 1e-12 * scale
    assert hot_isochore_heat(level * 1.01, cold, hot) < 0.0


def test_adiabatic_efficiency_identity(base_config):
    c = base_config
    for beta1, beta2 in ((0.5, 0.05), (0.9, 0.04), (2.0, 0.3)):
        cfg = EngineConfig(beta1=beta1, beta2=beta2)
        w1 = stroke_work(1.0, cfg.cold, c.omega2)
        w3 = stroke_work(1.0, cfg.hot, c.omega1)
        eta = -(w1 + w3) / hot_isochore_heat(1.0, cfg.cold, cfg.hot)
        assert eta == pytest.approx(1.0 - c.omega1 / c.omega2, abs=1e-12)


def test_engine_condition_branches():
    assert engine_condition(-1.0, 2.0) is True
    assert not engine_condition(0.5, 2.0)    # no net work out
    assert not engine_condition(-1.0, -0.1)  # heat into hot bath
    assert not engine_condition(0.5, -0.1)
    # both conditions are strict
    assert not engine_condition(0.0, 2.0)
    assert not engine_condition(-1.0, 0.0)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
def test_bath_state_invariants(config):
    cold, hot = config.cold, config.hot
    for f in (gaussian_fidelity(cold, config.omega2),
              gaussian_fidelity(hot, config.omega1)):
        assert 0.0 < f <= 1.0
    # the hot heat vanishes at its sign threshold, relative to its terms
    level = heat_sign_threshold(cold, hot)
    scale = 0.5 * hot.hbar * hot.omega * hot.nu
    assert abs(hot_isochore_heat(level, cold, hot)) <= 1e-12 * scale
    # the adiabatic cycle runs at the Otto efficiency for any bath pair
    w_ad = (stroke_work(1.0, cold, config.omega2)
            + stroke_work(1.0, hot, config.omega1))
    eta = -w_ad / hot_isochore_heat(1.0, cold, hot)
    assert eta == pytest.approx(1.0 - config.omega1 / config.omega2,
                                abs=1e-12)


# the occupation factors coth and csch^4 of beta hbar omega / 2
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
