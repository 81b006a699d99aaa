import pytest
from hypothesis import example, given, settings

from sta_otto import (ConfigError, EngineConfig, SolverFailure,
                      ThermalOscillatorState, adiabaticity_from_ermakov,
                      ermakov_from_linear, moment_q_star, polynomial_ramp,
                      q_star_excess, series_pair_state, solve_effective_pair,
                      solve_linear_pair, solve_second_moments,
                      sudden_pair_series, wronskian)
from sta_otto.checks import effective_samples
from sta_otto.config import linspace
from sta_otto.dynamics import SERIES_PHASE
from sta_otto.protocol import omega_of

from conftest import CONFIG_BOX, Q1_TAU1, Q1_TAU001, SUDDEN_CAP

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


def q_star(omega0, omega_t, state):
    # the package's one formula for Q* from a pair state
    return 1.0 + q_star_excess(omega0, omega_t, state)


def test_endpoint_q_star_regression(states):
    q = q_star(0.32, 1.0, states[-1])
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
    q = q_star(0.32, 1.0, solve_linear_pair(ramp, (0.01,), CONFIG)[0])
    assert q == pytest.approx(Q1_TAU001, rel=1e-9)
    assert q < SUDDEN_CAP + 1e-9


def test_slow_drive_is_adiabatic():
    ramp = polynomial_ramp(0.32, 1.0, 100.0)
    q = q_star(0.32, 1.0, solve_linear_pair(ramp, (100.0,), CONFIG)[0])
    assert abs(q - 1.0) < 1e-3


def test_q_star_never_below_one(ramp):
    # 1 + a sum of squares is >= 1 by construction; the independent
    # moment route must agree
    initial = ThermalOscillatorState(0.5, 0.32)
    moments = solve_second_moments(ramp, TIMES, initial, CONFIG)
    omega = omega_of(ramp)
    for t, mom in zip(TIMES, moments):
        assert moment_q_star(omega(t), mom, initial, CONFIG) >= 1.0 - 1e-9


def test_ermakov_route_matches_pair(states, ramp):
    b0, b0_dot = ermakov_from_linear(0.32, states[0])
    assert b0 == pytest.approx(1.0, abs=1e-12)
    assert b0_dot == pytest.approx(0.0, abs=1e-12)
    omega = omega_of(ramp)
    for t, state in zip(TIMES, states):
        wt = omega(t)
        q_pair = q_star(0.32, wt, state)
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
        q_pair = q_star(0.32, wt, pair)
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


def test_lcd_lands_on_adiabatic_state():
    for strokes in effective_samples(CONFIG).values():
        for ramp, _, _, states in strokes:
            assert q_star_excess(ramp.omega_initial, ramp.omega_final,
                                 states[-1]) < 1e-6


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


def _series_error(omega1, omega2, phase):
    # relative gap in Q* - 1 between the series and DOP853 at t = tau,
    # for the stroke of phase max(omega) tau
    tau = phase / omega2
    exact = solve_linear_pair(polynomial_ramp(omega1, omega2, tau), (tau,),
                              CONFIG)[0]
    series = series_pair_state(sudden_pair_series(omega1, omega2), tau)
    return abs(q_star_excess(omega1, omega2, series)
               / q_star_excess(omega1, omega2, exact) - 1.0)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
@example(config=EngineConfig(omega1=0.01, beta1=50.0))
def test_series_matches_pair_in_trust_region(config):
    # up to 4.3e-10 at phase 1 and 4.6e-7 at the trust phase 2 over the
    # box (2.9e-10 and 3.0e-7 at the default, 2.4e-10 and 2.1e-7 at
    # omega2/omega1 = 100)
    w1, w2 = config.omega1, config.omega2
    assert _series_error(w1, w2, 1.0) <= 3e-9
    assert _series_error(w1, w2, SERIES_PHASE) <= 3e-6


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
def test_series_tau2_term_is_dyson_c2(config):
    # Q* = Q_s + c2 tau^2 + O(tau^4), with the sudden-side Dyson closed
    # form c2 = [w1^2 w2^2 - 2 w1^2 A1 - 2 w2^2 (A0 - A1) + A0^2]
    # / (2 w1 w2), A0 = int omega^2 ds, A1 = int s omega^2 ds, from the
    # exact moments of the ramp shape p: int p = 1/2, int p^2 = 181/462,
    # int s p = 5/14, int s p^2 = 10/33
    w1, w2 = config.omega1, config.omega2
    d = w2 - w1
    a0 = w1 * w1 + 2.0 * w1 * d / 2.0 + d * d * 181.0 / 462.0
    a1 = w1 * w1 / 2.0 + 2.0 * w1 * d * 5.0 / 14.0 + d * d * 10.0 / 33.0
    c2 = ((w1 * w1 * w2 * w2 - 2.0 * w1 * w1 * a1 - 2.0 * w2 * w2 * (a0 - a1)
           + a0 * a0) / (2.0 * w1 * w2))
    x, xd, y, yd = sudden_pair_series(w1, w2)
    assert (x[0], xd[0], y[0]) == (1.0, 1.0, 1.0)
    # the tau^2 term of Husimi's numerator over 2 w1 w2
    series_c2 = ((w1 * w1 * (w2 * w2 * x[0] * x[0] + 2.0 * xd[0] * xd[1])
                  + w2 * w2 * 2.0 * y[0] * y[1] + yd[0] * yd[0])
                 / (2.0 * w1 * w2))
    assert series_c2 == pytest.approx(c2, rel=1e-13)


def test_series_c2_at_default():
    x, xd, y, yd = sudden_pair_series(0.32, 1.0)
    c2 = (0.32**2 * (1.0 + 2.0 * xd[1]) + 2.0 * y[1] + yd[0]**2) / 0.64
    assert c2 == pytest.approx(-0.0410471, abs=1e-7)


@pytest.mark.parametrize("tau", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("ends", [(0.32, 1.0), (0.999, 1.0), (0.01, 1.0)])
def test_q_star_excess_is_husimi_less_wronskian(ends, tau):
    # Husimi's textbook Q* (Prog. Theor. Phys. 9, 381 (1953)), kept here
    # as a reference only: Q*_H = W + squares/(2 omega0 omega_t) is an
    # identity of any state, so on DOP853 states it holds to roundoff,
    # W - 1 and all
    w0, wt = ends
    states = solve_linear_pair(polynomial_ramp(w0, wt, tau),
                               linspace(0.0, tau, 11), CONFIG)
    omega = omega_of(polynomial_ramp(w0, wt, tau))
    for t, (x, xd, y, yd) in zip(linspace(0.0, tau, 11), states):
        w = omega(t)
        husimi = ((w0 * w0 * (w * w * x * x + xd * xd) + w * w * y * y
                   + yd * yd) / (2.0 * w0 * w))
        state = (x, xd, y, yd)
        split = (wronskian(state) - 1.0) + q_star_excess(w0, w, state)
        assert abs((husimi - 1.0) - split) <= 4e-15 * husimi
