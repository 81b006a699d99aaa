import pytest

from sta_otto import (EngineConfig, ThermalOscillatorState, engine_condition,
                      heat_sign_threshold, hot_isochore_heat, stroke_work)

from conftest import (COTH_008, COTH_0025, HEAT_THRESHOLD, Q2_AD, W1_AD,
                      W3_AD)


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


def test_adiabatic_stroke_works_frozen(base_config):
    c = base_config
    w1 = stroke_work(1.0, c.omega1, c.omega2, c.beta1)
    w3 = stroke_work(1.0, c.omega2, c.omega1, c.beta2)
    assert w1 == pytest.approx(W1_AD, rel=1e-14)
    assert w3 == pytest.approx(W3_AD, rel=1e-14)


def test_stroke_work_increases_with_q_star(base_config):
    c = base_config
    base = stroke_work(1.0, c.omega1, c.omega2, c.beta1)
    assert stroke_work(1.3, c.omega1, c.omega2, c.beta1) > base


def test_hot_isochore_heat_frozen(base_config):
    assert hot_isochore_heat(1.0, base_config) == pytest.approx(Q2_AD,
                                                                 rel=1e-14)


def test_heat_sign_threshold(base_config):
    level = heat_sign_threshold(base_config)
    assert level == pytest.approx(HEAT_THRESHOLD, rel=1e-13)
    # heat vanishes exactly at the threshold and is negative beyond it
    scale = hot_isochore_heat(1.0, base_config)
    assert abs(hot_isochore_heat(level, base_config)) < 1e-12 * scale
    assert hot_isochore_heat(level * 1.01, base_config) < 0.0


def test_adiabatic_efficiency_identity(base_config):
    c = base_config
    for beta1, beta2 in ((0.5, 0.05), (0.9, 0.04), (2.0, 0.3)):
        w1 = stroke_work(1.0, c.omega1, c.omega2, beta1)
        w3 = stroke_work(1.0, c.omega2, c.omega1, beta2)
        cfg = EngineConfig(beta1=beta1, beta2=beta2)
        eta = -(w1 + w3) / hot_isochore_heat(1.0, cfg)
        assert eta == pytest.approx(1.0 - c.omega1 / c.omega2, abs=1e-12)


def test_engine_condition_branches():
    assert engine_condition(-1.0, 2.0) is True
    assert not engine_condition(0.5, 2.0)    # no net work out
    assert not engine_condition(-1.0, -0.1)  # heat into hot bath
    assert not engine_condition(0.5, -0.1)
    # both conditions are strict
    assert not engine_condition(0.0, 2.0)
    assert not engine_condition(-1.0, 0.0)
