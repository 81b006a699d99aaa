import pytest

from sta_otto import (ConfigError, EngineConfig, SolverFailure,
                      ThermalOscillatorState, adiabaticity_from_ermakov,
                      ermakov_from_linear, ermakov_residual, husimi_q_star,
                      moment_q_star, polynomial_ramp, solve_effective_pair,
                      solve_linear_pair, solve_second_moments, wronskian)
from sta_otto.checks import effective_samples
from sta_otto.config import linspace
from sta_otto.protocol import omega_of

from conftest import Q1_TAU1, Q1_TAU001, SUDDEN_CAP

TIMES = linspace(0.0, 1.0, 101)
# the default tolerances, which every solver reads from the config
CONFIG = EngineConfig()


@pytest.fixture(scope="module")
def ramp():
    return polynomial_ramp(0.32, 1.0, 1.0)


@pytest.fixture(scope="module")
def states(ramp):
    return solve_linear_pair(ramp, TIMES, CONFIG)


def test_initial_conditions(states):
    x, xd, y, yd = states[0]
    assert (x, y, yd) == (0.0, 1.0, 0.0)
    assert xd == 1.0


def test_states_are_plain_tuples(states):
    assert len(states) == len(TIMES)
    assert all(type(s) is tuple and len(s) == 4 for s in states)
    assert all(type(v) is float for v in states[-1])


def test_wronskian_constant(states):
    assert max(abs(wronskian(s) - 1.0) for s in states) < 1e-10


def test_endpoint_q_star_regression(states):
    q = husimi_q_star(0.32, 1.0, states[-1])
    assert q == pytest.approx(Q1_TAU1, rel=1e-9)


@pytest.mark.parametrize("tau", [0.01, 0.25, 1.0, 10.0])
@pytest.mark.parametrize("ends", [(0.32, 1.0), (1.0, 0.32)])
def test_endpoint_solve_matches_dense_bitwise(ends, tau):
    # the production solve samples t = tau alone; its state must be
    # exactly the last state of a solve sampled densely across the stroke
    ramp = polynomial_ramp(*ends, tau)
    sampled = solve_linear_pair(ramp, linspace(0.0, tau, 101), CONFIG)
    assert solve_linear_pair(ramp, (tau,), CONFIG) == [sampled[-1]]


def test_fast_drive_approaches_sudden_cap():
    ramp = polynomial_ramp(0.32, 1.0, 0.01)
    q = husimi_q_star(0.32, 1.0, solve_linear_pair(ramp, (0.01,), CONFIG)[0])
    assert q == pytest.approx(Q1_TAU001, rel=1e-9)
    assert q < SUDDEN_CAP + 1e-9


def test_slow_drive_is_adiabatic():
    ramp = polynomial_ramp(0.32, 1.0, 100.0)
    q = husimi_q_star(0.32, 1.0,
                      solve_linear_pair(ramp, (100.0,), CONFIG)[0])
    assert abs(q - 1.0) < 1e-3


def test_q_star_never_below_one(states, ramp):
    omega = omega_of(ramp)
    for t, state in zip(TIMES, states):
        assert husimi_q_star(0.32, omega(t), state) >= 1.0 - 1e-9


def test_ermakov_route_matches_pair(states, ramp):
    b0, b0_dot = ermakov_from_linear(0.32, states[0])
    assert b0 == pytest.approx(1.0, abs=1e-12)
    assert b0_dot == pytest.approx(0.0, abs=1e-12)
    omega = omega_of(ramp)
    for t, state in zip(TIMES, states):
        wt = omega(t)
        q_pair = husimi_q_star(0.32, wt, state)
        q_erk = adiabaticity_from_ermakov(
            0.32, wt, ermakov_from_linear(0.32, state))
        assert q_erk == pytest.approx(q_pair, rel=1e-10)


def test_moment_route_matches_pair(ramp):
    times = linspace(0.0, 1.0, 51)
    pairs = solve_linear_pair(ramp, times, CONFIG)
    initial = ThermalOscillatorState(0.5, 0.32)
    moments = solve_second_moments(ramp, times, initial, CONFIG)
    omega = omega_of(ramp)
    for t, pair, mom in zip(times, pairs, moments):
        wt = omega(t)
        q_pair = husimi_q_star(0.32, wt, pair)
        assert moment_q_star(wt, mom, initial, CONFIG) == pytest.approx(
            q_pair, rel=1e-9)


def test_moment_route_beta_independent(ramp):
    # Q* is an energy ratio; the initial temperature must drop out
    times = (0.25, 0.6, 1.0)
    cold = ThermalOscillatorState(7.0, 0.32)
    hot = ThermalOscillatorState(0.01, 0.32)
    cold_moments = solve_second_moments(ramp, times, cold, CONFIG)
    hot_moments = solve_second_moments(ramp, times, hot, CONFIG)
    for t, c, h in zip(times, cold_moments, hot_moments):
        wt = omega_of(ramp)(t)
        assert moment_q_star(wt, c, cold, CONFIG) == pytest.approx(
            moment_q_star(wt, h, hot, CONFIG), rel=1e-9)


def test_ermakov_residual_small(states):
    worst = max(ermakov_residual(0.32, state) for state in states)
    assert worst < 1e-8


def test_lcd_lands_on_adiabatic_state():
    for strokes in effective_samples(CONFIG).values():
        for ramp, _, _, states in strokes:
            q = husimi_q_star(ramp.omega_initial, ramp.omega_final,
                              states[-1])
            assert abs(q - 1.0) < 1e-6


def test_effective_pair_through_inversion():
    # tau = 0.1 inverts the trap mid-stroke; the linear equation just runs
    ramp = polynomial_ramp(0.32, 1.0, 0.1)
    states = solve_effective_pair(ramp, linspace(0.0, 0.1, 51), CONFIG)
    assert max(abs(wronskian(s) - 1.0) for s in states) < 1e-9


def test_second_moments_start_mismatch_rejected(ramp):
    # the thermal start must sit where the schedule starts (0.32, not 1)
    hot = ThermalOscillatorState(0.05, 1.0)
    with pytest.raises(ConfigError, match="does not match protocol start"):
        solve_second_moments(ramp, (1.0,), hot, CONFIG)


def test_phase_budget_refused_before_any_step(monkeypatch):
    # a stroke of 1e5 rad or more is a SolverFailure before scipy runs
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("a refused stroke reached solve_ivp")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    initial = ThermalOscillatorState(0.5, 0.32)
    for solve in (solve_linear_pair, solve_effective_pair):
        with pytest.raises(SolverFailure, match="solver budget"):
            solve(polynomial_ramp(0.32, 1.0, 1e5), (1e5,), CONFIG)
    with pytest.raises(SolverFailure, match="solver budget"):
        solve_second_moments(polynomial_ramp(0.32, 1e6, 0.1), (0.1,),
                             initial, CONFIG)
