import cmath
import math

import pytest
from hypothesis import example, given, settings

from sta_otto import (ConfigError, EngineConfig, SolverFailure,
                      ThermalOscillatorState, adiabaticity_from_ermakov,
                      ermakov_from_linear, magnus_pair, moment_q_star,
                      polynomial_ramp, q_star_excess, series_pair_state,
                      solve_effective_pair, solve_linear_pair,
                      solve_second_moments, sudden_pair_series, wronskian)
from sta_otto.checks import effective_samples, pair_samples
from sta_otto.config import linspace
from sta_otto.dynamics import SERIES_PHASE
from sta_otto.protocol import omega_of

from conftest import CONFIG_BOX, Q1_TAU1, Q1_TAU001, SUDDEN_CAP

TIMES = linspace(0.0, 1.0, 101)
CONFIG = EngineConfig()


@pytest.fixture(scope="module")
def ramp():
    return polynomial_ramp(0.32, 1.0, 1.0)


@pytest.fixture(scope="module")
def states(ramp):
    return solve_linear_pair(ramp, TIMES)


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
    sampled = solve_linear_pair(ramp, linspace(0.0, tau, 101))
    assert solve_linear_pair(ramp, (tau,)) == [sampled[-1]]


def test_fast_drive_approaches_sudden_cap():
    ramp = polynomial_ramp(0.32, 1.0, 0.01)
    q = q_star(0.32, 1.0, solve_linear_pair(ramp, (0.01,))[0])
    assert q == pytest.approx(Q1_TAU001, rel=1e-9)
    assert q < SUDDEN_CAP + 1e-9


def test_slow_drive_is_adiabatic():
    ramp = polynomial_ramp(0.32, 1.0, 100.0)
    q = q_star(0.32, 1.0, solve_linear_pair(ramp, (100.0,))[0])
    assert abs(q - 1.0) < 1e-3


def test_q_star_never_below_one(ramp):
    # 1 + a sum of squares is >= 1 by construction; the independent
    # moment route must agree
    initial = ThermalOscillatorState(0.5, 0.32)
    moments = solve_second_moments(ramp, TIMES, initial)
    omega = omega_of(ramp)
    for t, mom in zip(TIMES, moments):
        assert moment_q_star(omega(t), mom, initial) >= 1.0 - 1e-9


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
    pairs = solve_linear_pair(ramp, times)
    initial = ThermalOscillatorState(0.5, 0.32)
    moments = solve_second_moments(ramp, times, initial)
    omega = omega_of(ramp)
    for t, pair, mom in zip(times, pairs, moments):
        wt = omega(t)
        q_pair = q_star(0.32, wt, pair)
        assert moment_q_star(wt, mom, initial) == pytest.approx(
            q_pair, rel=1e-9)


def test_moment_route_beta_independent(ramp):
    # Q* is an energy ratio: the initial temperature and hbar must drop
    # out (beta scales as 1/hbar, so beta hbar omega stays the same), as
    # the mass does, which is why the moments are taken at mass 1; the
    # largest spread reads 3.3e-11
    times = (0.25, 0.6, 1.0)
    omega = omega_of(ramp)
    reference = None
    for hbar in (1e-3, 1.0, 50.0):
        for beta in (7.0, 0.01):
            initial = ThermalOscillatorState(beta / hbar, 0.32, hbar)
            moments = solve_second_moments(ramp, times, initial)
            q = [moment_q_star(omega(t), mom, initial)
                 for t, mom in zip(times, moments)]
            reference = reference or q
            assert q == pytest.approx(reference, rel=1e-9), (hbar, beta)


def test_ermakov_route_less_pair_route_closed_form():
    # Q*_erk - Q*_pair = (W - 1) + omega0 (1 - W^2) / (2 omega_t b^2) for
    # any state: W - 1 because the pair route is 1 + a sum of squares,
    # and the rest is the Ermakov route's difference from Husimi's form.
    # On the default pair samples it holds to 6.9e-16; the second term
    # alone is off by 3.4e-10
    worst = 0.0
    for strokes in pair_samples(CONFIG).values():
        for ramp, _, times, states in strokes:
            omega, w0 = omega_of(ramp), ramp.omega_initial
            for t, state in zip(times, states):
                wt, w = omega(t), wronskian(state)
                b, b_dot = ermakov_from_linear(w0, state)
                gap = (adiabaticity_from_ermakov(w0, wt, (b, b_dot))
                       - q_star(w0, wt, state))
                worst = max(worst, abs(gap - (w - 1.0) - w0 * (1.0 - w * w)
                                       / (2.0 * wt * b * b)))
    assert worst <= 1e-14


@pytest.mark.parametrize("config", [
    CONFIG, EngineConfig(omega1=0.01, beta1=50.0)],
    ids=["default", "ratio 100"])
def test_magnus_pair_matches_dop853_on_pair_samples(config):
    # validate holds only the production Q*1 to the DOP853 pair, so the
    # kernel is held here on all six of its pair-sample strokes, both
    # directions, at t = tau: 3.8e-11 at the default, 2.2e-10 at
    # omega2/omega1 = 100
    for strokes in pair_samples(config).values():
        for ramp, _, _, states in strokes:
            omega, w0, wt = (omega_of(ramp), ramp.omega_initial,
                             ramp.omega_final)
            state = magnus_pair(lambda t: omega(t) ** 2, ramp.duration,
                                max(w0, wt))
            q_pair = q_star(w0, wt, states[-1])
            assert abs(q_star(w0, wt, state) / q_pair - 1.0) <= 1e-8


def test_lcd_lands_on_adiabatic_state():
    for strokes in effective_samples(CONFIG).values():
        for ramp, _, _, states in strokes:
            assert q_star_excess(ramp.omega_initial, ramp.omega_final,
                                 states[-1]) < 1e-6


def test_effective_pair_through_inversion():
    # tau = 0.1 inverts the trap mid-stroke; the linear equation just runs
    ramp = polynomial_ramp(0.32, 1.0, 0.1)
    states = solve_effective_pair(ramp, linspace(0.0, 0.1, 51))
    assert max(abs(wronskian(s) - 1.0) for s in states) < 1e-9


@pytest.mark.parametrize("solve", [
    lambda ramp: solve_linear_pair(ramp, TIMES),
    lambda ramp: solve_effective_pair(ramp, TIMES),
    lambda ramp: solve_second_moments(
        ramp, TIMES, ThermalOscillatorState(0.5, 0.32))],
    ids=["linear", "effective", "moments"])
def test_oracle_solves_run_at_fixed_tolerances(monkeypatch, ramp, solve):
    # every DOP853 solve runs at rtol 1e-10 and atol 1e-12, whatever the
    # config; the results the program prints were frozen at these values
    import scipy.integrate
    real, seen = scipy.integrate.solve_ivp, []

    def recording(*args, **kwargs):
        seen.append((args[3], kwargs["rtol"], kwargs["atol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", recording)
    solve(ramp)
    assert seen == [("DOP853", 1e-10, 1e-12)]


def test_second_moments_start_mismatch_rejected(ramp):
    # the thermal start must sit where the schedule starts (0.32, not 1)
    hot = ThermalOscillatorState(0.05, 1.0)
    with pytest.raises(ConfigError, match="does not match protocol start"):
        solve_second_moments(ramp, (1.0,), hot)


def test_phase_budget_refused_before_any_step(monkeypatch):
    # a stroke of 1e5 rad or more is a SolverFailure before scipy runs
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("a refused stroke reached solve_ivp")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    initial = ThermalOscillatorState(0.5, 0.32)
    for solve in (solve_linear_pair, solve_effective_pair):
        with pytest.raises(SolverFailure, match="solver budget"):
            solve(polynomial_ramp(0.32, 1.0, 1e5), (1e5,))
    with pytest.raises(SolverFailure, match="solver budget"):
        solve_second_moments(polynomial_ramp(0.32, 1e6, 0.1), (0.1,),
                             initial)
    # the kernel's steps grow with the phase: refused before the first
    with pytest.raises(SolverFailure, match="solver budget"):
        magnus_pair(refuse, 1e5, 1.0)


@pytest.mark.parametrize("omega_sq", [4.0, 0.0, -4.0],
                         ids=["oscillator", "free", "inverted"])
def test_magnus_pair_exact_for_constant_omega_sq(omega_sq):
    # with omega^2 constant the commutator vanishes and each step is the
    # exact exponential: cos and sin, the identity plus h A, or cosh and
    # sinh, so only rounding separates the kernel from the closed form
    duration, k = 3.0, math.sqrt(abs(omega_sq))
    state = magnus_pair(lambda t: omega_sq, duration, k)
    if omega_sq > 0.0:
        c, s = math.cos(k * duration), math.sin(k * duration)
        want = (s / k, c, c, -k * s)
    elif omega_sq < 0.0:
        c, s = math.cosh(k * duration), math.sinh(k * duration)
        want = (s / k, c, c, k * s)
    else:
        want = (duration, 1.0, 1.0, 0.0)
    assert state == pytest.approx(want, rel=1e-12, abs=1e-12)


def _exact_ramp_pair(omega1, omega2, tau):
    # omega(t) = omega1/(1 + kappa t) turns f'' + omega^2 f = 0 into the
    # Euler equation x^2 f_xx + (omega1/kappa)^2 f = 0 in x = 1 + kappa t,
    # solved by x^p with p = 1/2 +- sqrt(1/4 - (omega1/kappa)^2); the
    # pair is the combination of the two with X(0) = Y'(0) = 0 and
    # X'(0) = Y(0) = 1, read at x = omega1/omega2, t = tau
    kappa = (omega1 / omega2 - 1.0) / tau
    root = cmath.sqrt(0.25 - (omega1 / kappa) ** 2)
    p1, p2 = 0.5 + root, 0.5 - root
    x = omega1 / omega2
    f1, f2 = x ** p1, x ** p2
    state = ((f1 - f2) / (kappa * (p1 - p2)),
             (p1 * f1 - p2 * f2) / (x * (p1 - p2)),
             (p2 * f1 - p1 * f2) / (p2 - p1),
             kappa * p1 * p2 * (f1 - f2) / (x * (p2 - p1)))
    return tuple(v.real for v in state)


# the largest relative error in Q* - 1 of the kernel against the exact
# ramp over tau = 0.01 to 1000 reads 3.6e-8 at omega2/omega1 = 1.001,
# 2.2e-8 at 3.125 and 4.5e-7 at 100; in Q* itself, 7.9e-11 at the first
# two.  At ratio 100 omega rises 100-fold towards the end of the stroke,
# faster than the quintic ever does, and N steps resolve it less well:
# 16N steps bring tau = 10 from 4.4e-7 to 2.5e-11, so the oracle is not
# the limit
@pytest.mark.parametrize("ratio, bound", [(1.001, 1e-7), (3.125, 1e-7),
                                          (100.0, 1e-6)])
def test_magnus_pair_matches_exact_ramp(ratio, bound):
    omega1, omega2 = 1.0 / ratio, 1.0
    for tau in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
        kappa = (omega1 / omega2 - 1.0) / tau
        state = magnus_pair(lambda t: (omega1 / (1.0 + kappa * t)) ** 2,
                            tau, omega2)
        exact = q_star_excess(omega1, omega2,
                              _exact_ramp_pair(omega1, omega2, tau))
        got = q_star_excess(omega1, omega2, state)
        assert abs(got / exact - 1.0) <= bound, tau
        # every step has determinant 1
        assert abs(wronskian(state) - 1.0) <= 1e-12, tau


def _series_error(omega1, omega2, phase):
    # relative gap in Q* - 1 between the series and DOP853 at t = tau,
    # for the stroke of phase max(omega) tau
    tau = phase / omega2
    exact = solve_linear_pair(polynomial_ramp(omega1, omega2, tau), (tau,))[0]
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
                               linspace(0.0, tau, 11))
    omega = omega_of(polynomial_ramp(w0, wt, tau))
    for t, (x, xd, y, yd) in zip(linspace(0.0, tau, 11), states):
        w = omega(t)
        husimi = ((w0 * w0 * (w * w * x * x + xd * xd) + w * w * y * y
                   + yd * yd) / (2.0 * w0 * w))
        state = (x, xd, y, yd)
        split = (wronskian(state) - 1.0) + q_star_excess(w0, w, state)
        assert abs((husimi - 1.0) - split) <= 4e-15 * husimi
