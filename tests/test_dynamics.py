import numpy as np
import pytest

from sta_otto import (adiabaticity_from_ermakov, adiabaticity_parameter,
                      ermakov_from_linear, ermakov_residual,
                      lcd_final_adiabaticity, linear_pair_endpoint,
                      polynomial_ramp, solve_effective_pair,
                      solve_ermakov_direct, solve_linear_pair,
                      solve_second_moments)
from sta_otto.protocol import omega_of

from conftest import Q1_TAU1, Q1_TAU001, SUDDEN_CAP


@pytest.fixture(scope="module")
def ramp():
    return polynomial_ramp(0.32, 1.0, 1.0)


@pytest.fixture(scope="module")
def pair(ramp):
    return solve_linear_pair(ramp)


def test_initial_conditions(pair):
    x, xd, y, yd = pair.evaluate(0.0)
    assert (x, y, yd) == (0.0, 1.0, 0.0)
    assert xd == 1.0


def test_wronskian_constant(pair):
    ts = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(pair.wronskian(ts) - 1.0)) < 1e-10


def test_endpoint_q_star_regression(pair, ramp):
    q = adiabaticity_parameter(pair, 1.0, 1.0)
    assert q == pytest.approx(Q1_TAU1, rel=1e-9)


@pytest.mark.parametrize("tau", [0.01, 0.25, 1.0, 10.0])
@pytest.mark.parametrize("ends", [(0.32, 1.0), (1.0, 0.32)])
def test_endpoint_solve_matches_dense_bitwise(ends, tau):
    # the production solve drops the dense output; its end state must be
    # exactly the dense solution's value at t = tau
    ramp = polynomial_ramp(*ends, tau)
    dense = solve_linear_pair(ramp).evaluate(tau)
    assert linear_pair_endpoint(ramp) == tuple(float(v) for v in dense)


def test_fast_drive_approaches_sudden_cap():
    ramp = polynomial_ramp(0.32, 1.0, 0.01)
    pair = solve_linear_pair(ramp)
    q = adiabaticity_parameter(pair, 1.0, 0.01)
    assert q == pytest.approx(Q1_TAU001, rel=1e-9)
    assert q < SUDDEN_CAP + 1e-9


def test_slow_drive_is_adiabatic():
    ramp = polynomial_ramp(0.32, 1.0, 100.0)
    pair = solve_linear_pair(ramp)
    q = adiabaticity_parameter(pair, 1.0, 100.0)
    assert abs(q - 1.0) < 1e-3


def test_q_star_never_below_one(pair, ramp):
    omega = omega_of(ramp)
    for t in np.linspace(0.0, 1.0, 101):
        q = adiabaticity_parameter(pair, omega(float(t)), float(t))
        assert q >= 1.0 - 1e-9


def test_ermakov_route_matches_pair(pair, ramp):
    erk = ermakov_from_linear(pair)
    assert erk.b(0.0) == pytest.approx(1.0, abs=1e-12)
    assert erk.b_dot(0.0) == pytest.approx(0.0, abs=1e-12)
    omega = omega_of(ramp)
    for t in np.linspace(0.0, 1.0, 101):
        wt = omega(float(t))
        q_pair = adiabaticity_parameter(pair, wt, float(t))
        q_erk = adiabaticity_from_ermakov(erk, wt, float(t))
        assert q_erk == pytest.approx(q_pair, rel=1e-10)


def test_moment_route_matches_pair(pair, ramp):
    mom = solve_second_moments(ramp, beta=0.5)
    omega = omega_of(ramp)
    for t in np.linspace(0.0, 1.0, 51):
        wt = omega(float(t))
        q_pair = adiabaticity_parameter(pair, wt, float(t))
        assert mom.q_star(float(t), wt) == pytest.approx(q_pair, rel=1e-9)


def test_moment_route_beta_independent(ramp):
    # Q* is an energy ratio; the initial temperature must drop out
    cold = solve_second_moments(ramp, beta=7.0)
    hot = solve_second_moments(ramp, beta=0.01)
    for t in (0.25, 0.6, 1.0):
        wt = omega_of(ramp)(t)
        assert cold.q_star(t, wt) == pytest.approx(hot.q_star(t, wt),
                                                   rel=1e-9)


def test_direct_ermakov_integration_agrees(pair, ramp):
    erk = ermakov_from_linear(pair)
    direct = solve_ermakov_direct(ramp)
    for t in np.linspace(0.0, 1.0, 21):
        assert direct.b(float(t)) == pytest.approx(erk.b(float(t)),
                                                   rel=1e-9)
        assert direct.b_dot(float(t)) == pytest.approx(erk.b_dot(float(t)),
                                                       abs=1e-8)


def test_ermakov_residual_small(pair, ramp):
    worst = max(ermakov_residual(pair, ramp, float(t))
                for t in np.linspace(0.0, 1.0, 101))
    assert worst < 1e-8


def test_lcd_lands_on_adiabatic_state():
    for tau in (0.1, 1.0):
        for wi, wf in ((0.32, 1.0), (1.0, 0.32)):
            ramp = polynomial_ramp(wi, wf, tau)
            assert abs(lcd_final_adiabaticity(ramp) - 1.0) < 1e-6


def test_effective_pair_through_inversion():
    # tau = 0.1 inverts the trap mid-stroke; the linear equation just runs
    ramp = polynomial_ramp(0.32, 1.0, 0.1)
    pair = solve_effective_pair(ramp)
    ts = np.linspace(0.0, 0.1, 51)
    assert np.max(np.abs(pair.wronskian(ts) - 1.0)) < 1e-9


def test_tolerance_validation(ramp):
    with pytest.raises(ValueError):
        solve_linear_pair(ramp, rel_tol=1e-3)
    with pytest.raises(ValueError):
        solve_linear_pair(ramp, abs_tol=0.0)
    with pytest.raises(ValueError):
        solve_second_moments(ramp, beta=-1.0)
