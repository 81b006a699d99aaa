import pytest
from hypothesis import given, settings

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
