import itertools
import math

import mpmath
import pytest

from sta_otto import (DivisionByZeroCost, DomainError, EngineConfig,
                      InvalidDenominator, ThermalOscillatorState, bures_angle,
                      cycle_constants, efficiency_bound, gaussian_fidelity,
                      power_bound, qsl_time)

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
        state = thermal(beta, 0.7)
        assert abs(gaussian_fidelity(state, 0.7) - 1.0) <= 1e-12
        # 1 - F is read without cancellation, so identical states are
        # exactly zero apart
        assert bures_angle(state, 0.7) == 0.0


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
    for beta in (1e-6, 0.5, 1e4):
        state = thermal(beta, 0.32)
        assert bures_angle(state, 0.32) == 0.0
        angles = [bures_angle(state, 0.32 * ratio)
                  for ratio in (1.5, 10.0, 1e3, 1e10, 1e20)]
        assert all(0.0 < a < math.pi / 2.0 for a in angles)
        assert angles == sorted(angles)
        # the states grow orthogonal as the ratio grows
        assert math.pi / 2.0 - angles[-1] < 2e-5
        if beta >= 0.5:   # where nu^2 eps stays finite at ratio 1e300
            assert bures_angle(state, 0.32e300) == pytest.approx(
                math.pi / 2.0, rel=1e-15)
    with pytest.raises(ValueError, match="omega_b"):
        bures_angle(thermal(0.5, 0.32), 0.0)


def _mp_bures_angle(state, omega_b):
    """arccos(sqrt(F)) from the Delta/delta form, with nu and csch^4
    taken exactly at the state's beta hbar omega / 2.  It keeps 50
    digits past the up to 154 (csch^2 < 1e154) that
    sqrt(Delta + delta) - sqrt(delta) cancels for hot states."""
    x = 0.5 * state.beta * state.hbar * state.omega
    with mpmath.workdps(50 + 154):
        a, b, x = (mpmath.mpf(v) for v in (state.omega, omega_b, x))
        big = mpmath.coth(x) ** 2 * (2 + a / b + b / a)
        delta = mpmath.csch(x) ** 4
        f = 2 / (mpmath.sqrt(big + delta) - mpmath.sqrt(delta))
        return mpmath.acos(mpmath.sqrt(f))


def _box_corners():
    keys = ("omega1", "omega2", "beta1", "beta2", "hbar")
    ends = ((0.25, 0.4), (0.8, 1.25), (0.4, 0.625), (0.04, 0.0625),
            (0.5, 2.0))
    return [EngineConfig(**dict(zip(keys, corner)))
            for corner in itertools.product(*ends)]


@pytest.mark.parametrize("config", _box_corners() + [
    EngineConfig(omega1=0.32e6, omega2=1e6, beta1=0.5e-6, beta2=0.05e-6),
    EngineConfig(omega1=0.01, beta1=50.0),
    EngineConfig(beta1=1000.0),
    EngineConfig(beta2=5e-77),
    EngineConfig(beta1=1e300)] + [
    EngineConfig(omega1=1.0 - 10.0**-k) for k in (4, 7, 10, 15)])
def test_bures_angle_matches_mpmath(config):
    for state, omega_b in ((config.cold, config.omega2),
                           (config.hot, config.omega1)):
        want = _mp_bures_angle(state, omega_b)
        assert abs(bures_angle(state, omega_b) - want) <= 1e-14 * want


@pytest.mark.parametrize("beta", [1e-3, 0.5, 1e3])
def test_bures_angle_small_ratio_limit(beta):
    # for small eps = (omega_a - omega_b)^2/(omega_a omega_b) the angle
    # tends to (sqrt(eps)/2) nu/sqrt(nu^2 + 1), with relative
    # corrections of order eps
    state = thermal(beta, 0.7)
    nu = state.nu
    for h in (1e-3, 1e-5, 1e-7):
        omega_b = 0.7 * (1.0 + h)
        eps = (0.7 - omega_b) ** 2 / (0.7 * omega_b)
        limit = 0.5 * math.sqrt(eps) * nu / math.sqrt(nu * nu + 1.0)
        assert bures_angle(state, omega_b) == pytest.approx(
            limit, rel=eps + 1e-14)


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
