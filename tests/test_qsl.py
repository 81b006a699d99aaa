import math

import pytest

from sta_otto import (DivisionByZeroCost, DomainError, InvalidDenominator,
                      ThermalOscillatorState, bures_angle, cycle_constants,
                      efficiency_bound, gaussian_fidelity, power_bound,
                      qsl_time)

from conftest import F1, F3, L1, L3, OVERLAP_ZERO_T, Q2_AD, W1_AD, W3_AD

W_AD = W1_AD + W3_AD


def thermal(beta, omega):
    return ThermalOscillatorState(beta, omega)


def test_stroke_fidelities_frozen():
    assert gaussian_fidelity(thermal(0.5, 0.32), 1.0) == pytest.approx(
        F1, rel=1e-12)
    assert gaussian_fidelity(thermal(0.05, 1.0), 0.32) == pytest.approx(
        F3, rel=1e-12)


def test_stroke_angles_frozen(base_config):
    const = cycle_constants(base_config)
    assert gaussian_fidelity(base_config.cold, 1.0) == pytest.approx(
        F1, rel=1e-12)
    assert const.angle1 == pytest.approx(L1, rel=1e-12)
    assert const.angle3 == pytest.approx(L3, rel=1e-12)


def test_zero_temperature_limit():
    beta = 100.0 / 0.32
    f = gaussian_fidelity(thermal(beta, 0.32), 1.0)
    assert f == pytest.approx(OVERLAP_ZERO_T, abs=1e-9)
    closed = 2.0 * math.sqrt(0.32 * 1.0) / (0.32 + 1.0)
    assert OVERLAP_ZERO_T == pytest.approx(closed, rel=1e-12)


def test_identity_fidelity():
    for beta in (0.05, 0.5, 20.0):
        f = gaussian_fidelity(thermal(beta, 0.7), 0.7)
        assert abs(f - 1.0) <= 1e-12
        # arccos near 1 has a sqrt(eps) floor, so the angle tolerance
        # cannot be tightened past ~1e-8
        assert bures_angle(min(f, 1.0)) <= 1e-7


def test_fidelity_argument_validation():
    # a bad beta or omega_a cannot reach the fidelity: the state refuses
    # it (test_thermal_state_validation)
    with pytest.raises(ValueError, match="omega_b"):
        gaussian_fidelity(thermal(0.5, 0.32), -1.0)
    with pytest.raises(ValueError, match="omega_b"):
        gaussian_fidelity(thermal(0.5, 0.32), 0.0)


def test_fidelity_stays_physical_at_extremes():
    for beta in (1e-6, 1e4):
        for wb in (0.01, 100.0):
            f = gaussian_fidelity(thermal(beta, 0.32), wb)
            assert 0.0 < f <= 1.0 + 1e-12


def test_bures_angle_edges():
    assert bures_angle(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert bures_angle(1.0) == 0.0
    with pytest.raises(DomainError):
        bures_angle(-1e-6)
    with pytest.raises(DomainError):
        bures_angle(1.0 + 1e-6)


def test_qsl_time():
    assert qsl_time(0.0, 3.0) == 0.0
    assert qsl_time(L1, 2.0, hbar=4.0) == pytest.approx(2.0 * L1, rel=1e-15)
    with pytest.raises(DivisionByZeroCost):
        qsl_time(L1, 0.0)
    with pytest.raises(DivisionByZeroCost):
        qsl_time(L1, -1.0)
    with pytest.raises(DomainError):
        qsl_time(-0.1, 1.0)


def test_efficiency_bound_reduces_to_adiabatic():
    assert efficiency_bound(W_AD, Q2_AD, 0.0, 1.0) \
        == pytest.approx(0.68, abs=1e-12)


def test_efficiency_bound_tightens_with_angles():
    loose = efficiency_bound(W_AD, Q2_AD, 0.0, 1.0)
    tight = efficiency_bound(W_AD, Q2_AD, L1 + L3, 1.0)
    assert tight < loose
    # longer cycles pay less for the same geometry
    assert efficiency_bound(W_AD, Q2_AD, L1 + L3, 100.0) > tight


def test_efficiency_bound_validation():
    with pytest.raises(ValueError):
        efficiency_bound(W_AD, Q2_AD, 0.0, 0.0)
    with pytest.raises(InvalidDenominator):
        efficiency_bound(W_AD, -1.0, 0.0, 1.0)


def test_power_bound():
    assert power_bound(0.0, 1.0, 2.0) == 0.0
    assert power_bound(W_AD, 0.5, 1.5) == pytest.approx(-W_AD / 2.0,
                                                        rel=1e-15)
    with pytest.raises(InvalidDenominator):
        power_bound(W_AD, 0.0, 0.0)
