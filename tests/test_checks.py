from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from sta_otto import EngineConfig, checks, cost, cycle, protocol
from sta_otto.checks import (check_bound_ordering, check_cost_consistency,
                             check_ermakov_residual, check_lcd_exactness,
                             check_power_ordering, check_q_star_routes,
                             check_wronskian, effective_samples, pair_samples,
                             run_all_checks)

from conftest import CONFIG_BOX, production_excess


def test_fidelity_identity_requires_a_zero_angle(base_config,
                                                monkeypatch):
    # identical states are exactly zero apart, so an angle of 1e-9 (below
    # the 1e-7 that an arccos of a rounded F needed) fails the check
    assert checks.check_fidelity_identity(base_config).passed
    monkeypatch.setattr(checks, "bures_angle", lambda state, omega: 1e-9)
    r = checks.check_fidelity_identity(base_config)
    assert not r.passed
    assert r.detail.endswith("max angle = 1e-09")


def test_bound_ordering_catches_eta_qsl_above_carnot(base_config,
                                                     base_sweep):
    assert check_bound_ordering(base_config, base_sweep).passed
    eta_carnot = 1.0 - base_config.beta2 / base_config.beta1
    row = base_sweep[-1]
    # above Carnot, yet eta_sa <= eta_qsl <= eta_ad and p_sa <= p_qsl hold
    bad = replace(row, eta_qsl=eta_carnot + 0.01, eta_ad=eta_carnot + 0.02)
    assert row.eta_sa <= bad.eta_qsl <= bad.eta_ad and row.p_sa <= row.p_qsl
    r = check_bound_ordering(base_config, base_sweep[:-1] + [bad])
    assert not r.passed
    assert r.residual == bad.eta_qsl - eta_carnot
    assert r.detail == "200/200 grid points satisfy the short-time premise"


def test_every_solve_samples_known_times(base_config, monkeypatch):
    # every caller knows the times it reads before the solve, so no solve
    # may build an interpolant or keep its steps for later reads
    import scipy.integrate

    from sta_otto import run_cycle

    solve_ivp = scipy.integrate.solve_ivp
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", recorded)
    config = replace(base_config, tau_count=4)
    run_cycle(config, 1.0)
    run_all_checks(config)
    assert calls
    assert all(kwargs.get("t_eval") is not None for kwargs in calls)
    assert not any(kwargs.get("dense_output") for kwargs in calls)


def test_validate_work_budget(base_config, monkeypatch):
    # each (stroke, tau) pair is solved once on its 101-point grid and
    # shared by the checks that read it; cost_scaling takes its tau = 1
    # reference from cycle_constants instead of a quadrature of its own;
    # lcd_exactness and cost_consistency share one effective-pair solve
    # per (stroke, tau), and q_star_routes adds one moment solve per
    # bare-pair grid.  The production Q*1 at the 3 pair-sample taus,
    # which q_star_routes and power_ordering share, adds one solve per
    # tau.  With the sudden side of adiabatic_limit and 6 cycles of
    # rescaling_invariance that makes 31 DOP853 solves at any grid size:
    # the row checks read cycle_from_q_star, which solves nothing.  The
    # Magnus kernel runs twice, for the production Q*1 at the one
    # pair-sample tau past phase 2 and for adiabatic_limit's slow side
    import scipy.integrate

    calls = Counter()
    solve, quad = checks.solve_linear_pair, checks.sa_cost_time_average
    effective, moments = checks.solve_effective_pair, checks.solve_second_moments
    solve_ivp, magnus = scipy.integrate.solve_ivp, cycle.magnus_pair

    def counted_solve(protocol, times, *args):
        calls["pair_grid_solves"] += len(times) == 101
        return solve(protocol, times, *args)

    def counted_quad(*args):
        calls["cost_scaling_quads"] += 1
        return quad(*args)

    def counted_effective(*args):
        calls["effective_solves"] += 1
        return effective(*args)

    def counted_moments(*args):
        calls["moment_solves"] += 1
        return moments(*args)

    def counted_solve_ivp(*args, **kwargs):
        calls["solve_ivp"] += 1
        return solve_ivp(*args, **kwargs)

    def counted_magnus(*args):
        calls["magnus_pair"] += 1
        return magnus(*args)

    for module in (checks, cycle):
        monkeypatch.setattr(module, "solve_linear_pair", counted_solve)
    monkeypatch.setattr(cycle, "magnus_pair", counted_magnus)
    monkeypatch.setattr(checks, "sa_cost_time_average", counted_quad)
    monkeypatch.setattr(checks, "solve_effective_pair", counted_effective)
    monkeypatch.setattr(checks, "solve_second_moments", counted_moments)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", counted_solve_ivp)
    for tau_count in (4, 200):
        calls.clear()
        run_all_checks(replace(base_config, tau_count=tau_count))
        assert calls == {"pair_grid_solves": 6, "cost_scaling_quads": 4,
                         "effective_solves": 10, "moment_solves": 6,
                         "solve_ivp": 31, "magnus_pair": 2}, (tau_count,
                                                             calls)


def test_cost_scaling_catches_k3_off_by_1e9(base_config, monkeypatch):
    # the expansion quadrature is the one check on k3 = k1 nu_hot/nu_cold
    assert checks.check_cost_scaling(base_config).passed
    const = cycle.cycle_constants(base_config)
    off = replace(const, k3=const.k3 * (1.0 + 1e-9))
    monkeypatch.setattr(checks, "cycle_constants", lambda config: off)
    assert not checks.check_cost_scaling(base_config).passed


@pytest.mark.parametrize("coefficient, floor", [(3.0 / 8.0, 0.1),
                                                (0.2501, 1e-4)])
def test_cost_consistency_catches_wrong_omega_dot_term(base_config,
                                                       monkeypatch,
                                                       coefficient, floor):
    # the cost integrand is held to the shortcut's dynamics, so a shape
    # factor whose omega'^2 term is off fails, even by 1e-4 relative
    effective = effective_samples(base_config)
    assert check_cost_consistency(base_config, effective).residual < 1e-9

    def wrong(sample):
        w = sample.omega
        return (sample.omega_ddot / (4.0 * w**3)
                - coefficient * sample.omega_dot**2 / w**4)

    monkeypatch.setattr(cost, "shortcut_shape_factor", wrong)
    r = check_cost_consistency(base_config, effective)
    assert not r.passed
    assert r.residual > floor


def test_q_star_routes_catches_q3_off_by_1e7(base_config, monkeypatch):
    # every route of the expansion stroke (the one started at omega2) is
    # off by the same 1e-7, so the routes agree and only the comparison
    # of Q*3 with Q*1 at t = tau can fail
    samples = pair_samples(base_config)
    production = production_excess(base_config, samples)
    clean = check_q_star_routes(base_config, samples, production)
    assert clean.passed
    omega2 = base_config.omega2

    def off(route, start_frequency, base=0.0):
        # route returns Q* - base; Q* itself is planted 1e-7 off
        def planted(*args):
            q = route(*args) + base
            if start_frequency(args) == omega2:
                q *= 1.0 + 1e-7
            return q - base
        return planted

    # the pair route reads Q* as 1 + q_star_excess
    monkeypatch.setattr(checks, "q_star_excess",
                        off(checks.q_star_excess, lambda a: a[0], 1.0))
    monkeypatch.setattr(checks, "adiabaticity_from_ermakov",
                        off(checks.adiabaticity_from_ermakov,
                            lambda a: a[0]))
    monkeypatch.setattr(checks, "moment_q_star",
                        off(checks.moment_q_star, lambda a: a[2].omega))
    r = check_q_star_routes(base_config, samples, production)
    assert not r.passed
    assert r.residual == pytest.approx(1e-7, rel=1e-2)
    # the route spread is unchanged; only the symmetry part moved
    assert r.detail.partition(",")[0] == clean.detail.partition(",")[0]


def test_q_star_routes_floor_catches_moment_route_low_by_2e9(base_config,
                                                             monkeypatch):
    # the moment route scaled by 1 - 2e-9 stays within the 1e-8 spread,
    # but its Q* at t = 0, where Q* = 1, falls below the floor 1 - 1e-9
    samples = pair_samples(base_config)
    production = production_excess(base_config, samples)
    assert check_q_star_routes(base_config, samples, production).passed
    moment_q_star = checks.moment_q_star
    monkeypatch.setattr(checks, "moment_q_star",
                        lambda *args: moment_q_star(*args) * (1.0 - 2e-9))
    r = check_q_star_routes(base_config, samples, production)
    assert not r.passed
    assert r.residual <= 1e-8
    assert float(r.detail.rsplit("= ", 1)[1]) < 1.0 - 1e-9


def test_q_star_routes_catches_production_state_off(base_config,
                                                    monkeypatch):
    # X' of the production DOP853 endpoint state scaled by 1.1 past phase
    # 0.5 moves Q*1 at tau = 1 from 1.68265 to 1.64088.  validate's own
    # pair samples are untouched, so q_star_routes, which holds the
    # production Q*1 to them, fails, and no other check does
    solve = cycle.solve_linear_pair

    def planted(protocol, times):
        states = solve(protocol, times)
        if protocol.omega_final * protocol.duration <= 0.5:
            return states
        return [(x, xd * 1.1, y, yd) for x, xd, y, yd in states]

    monkeypatch.setattr(cycle, "solve_linear_pair", planted)
    assert cycle.run_cycle(base_config, 1.0).q_star_1 == pytest.approx(
        1.64088, abs=1e-5)
    results = run_all_checks(replace(base_config, tau_count=4))
    assert [r.name for r in results if not r.passed] == ["q_star_routes"]
    routes = next(r for r in results if r.name == "q_star_routes")
    assert routes.residual == pytest.approx(0.0248, rel=1e-2)


def _scaled(samples, kx, ky):
    # every state with X, X' scaled by kx and Y, Y' by ky
    return {tau: [(ramp, initial, times,
                   [(x * kx, xd * kx, y * ky, yd * ky)
                    for x, xd, y, yd in states])
                  for ramp, initial, times, states in strokes]
            for tau, strokes in samples.items()}


def test_wronskian_catches_off_by_1e7(base_config):
    # X and X' of every pair sample scaled by 1 + 1e-7 put W - 1 at 1e-7
    samples = pair_samples(base_config)
    assert check_wronskian(base_config, samples).passed
    r = check_wronskian(base_config, _scaled(samples, 1.0 + 1e-7, 1.0))
    assert not r.passed
    assert r.residual == pytest.approx(1e-7, rel=1e-2)


def test_ermakov_residual_catches_wronskian_off_by_1e7(base_config):
    # Y and Y' of every effective sample scaled by 1 + 1e-7: W and b(0)
    # are then 1 + 1e-7, so b is off the Ermakov scaling from t = 0
    effective = effective_samples(base_config)
    assert check_ermakov_residual(base_config, effective).passed
    r = check_ermakov_residual(base_config,
                               _scaled(effective, 1.0, 1.0 + 1e-7))
    assert not r.passed
    assert r.residual == pytest.approx(1e-7, rel=1e-2)


def _wrong_omega_dot_term(omega, omega_dot, omega_ddot):
    # Omega^2 with 0.7499 for the 3/4 of its omega'^2 term
    return (omega * omega - 0.7499 * omega_dot * omega_dot
            / (omega * omega) + 0.5 * omega_ddot / omega)


def test_ermakov_residual_catches_wrong_omega_dot_term(base_config,
                                                        monkeypatch):
    # the effective pair leaves the Ermakov scaling by about 1.8e-4
    monkeypatch.setattr(protocol, "effective_frequency_sq",
                        _wrong_omega_dot_term)
    r = check_ermakov_residual(base_config, effective_samples(base_config))
    assert not r.passed
    assert r.residual > 1e-5


def test_lcd_exactness_catches_wrong_omega_dot_term(base_config,
                                                    monkeypatch):
    # the shortcut misses the adiabatic state by 2.56e-5 in Q* - 1
    assert check_lcd_exactness(base_config,
                               effective_samples(base_config)).passed
    monkeypatch.setattr(protocol, "effective_frequency_sq",
                        _wrong_omega_dot_term)
    r = check_lcd_exactness(base_config, effective_samples(base_config))
    assert not r.passed
    assert r.residual == pytest.approx(2.56e-5, rel=1e-2)


def test_power_ordering_on_long_strokes():
    # the long half of a tau_max = 1e3 grid, where Q* - 1 falls to 1e-13:
    # Husimi's form of the same solves read P_NA > P_SA by 8.7e-12
    config = EngineConfig(tau_min=274.0, tau_max=1000.0, tau_count=5)
    rows = cycle.sweep(config)
    assert not any(r.failed for r in rows)
    r = check_power_ordering(config, rows)
    assert r.passed and r.residual == 0.0, r


@pytest.mark.parametrize("config", [
    None,
    EngineConfig(omega1=0.345, omega2=0.93, beta1=0.46, beta2=0.054,
                 tau_count=50),
    EngineConfig(omega1=0.999, tau_count=50),
    EngineConfig(omega1=0.01, beta1=50.0, tau_count=50)],
    ids=["default", "jittered", "ratio 1.001", "ratio 100"])
def test_row_checks_match_the_sweep_bitwise(base_config, base_sweep,
                                            monkeypatch, config):
    # the four grid checks read no column that Q* enters, so on the
    # Q*1 = 1 rows they return what they return on the sweep; the rows of
    # power_ordering are run_cycle's at the pair samples' taus
    config = config or base_config
    read = {}
    for check in (checks.check_bound_ordering, checks.check_eta_sa_monotone,
                  checks.check_power_ordering, checks.check_p_sa_scaling,
                  checks.check_eta_ordering):
        def recorded(config, rows, check=check):
            read[check] = rows
            return check(config, rows)
        monkeypatch.setattr(checks, check.__name__, recorded)
    run_all_checks(config)
    solved = read.pop(check_power_ordering)
    assert [r.tau for r in solved] == list(pair_samples(config))
    assert solved == [cycle.run_cycle(config, r.tau) for r in solved]
    rows = base_sweep if config is base_config else cycle.sweep(config)
    assert len(read) == 4
    for check, grid in read.items():
        assert len(grid) == len(rows)
        assert check(config, grid) == check(config, rows), check.__name__


def test_power_ordering_catches_na_works_reflected_about_1(base_config,
                                                           monkeypatch):
    # NA works that read Q*1 reflected about 1 put P_NA above P_SA by
    # hbar (Q*1 - 1)(omega2 nu_cold + omega1 nu_hot)/(4 tau) wherever
    # Q*1 > 1: power_ordering's solved rows see it, and no other check
    config = replace(base_config, tau_count=4)
    assert all(r.passed for r in run_all_checks(config))
    stroke_work = cycle.stroke_work
    monkeypatch.setattr(cycle, "stroke_work",
                        lambda q, start, omega: stroke_work(2.0 - q, start,
                                                            omega))
    results = run_all_checks(config)
    assert [r.name for r in results if not r.passed] == ["power_ordering"]


def test_ermakov_residual_passes_at_ratio_100(base_config):
    # omega2/omega1 = 100: the scaling factor b falls to 0.1, and the
    # dimensionless residual still reads about 7e-10
    config = replace(base_config, omega1=0.01, beta1=50.0)
    r = check_ermakov_residual(config, effective_samples(config))
    assert r.passed and r.residual < 1e-9, r


def test_rescaling_invariance_catches_q_star_off_by_1e8(base_config,
                                                         monkeypatch):
    # only the time-rescaled config (omega -> 2 omega) is off, so only
    # the time-rescaling half of the check can fail
    assert checks.check_rescaling_invariance(base_config).passed
    faster = 2.0 * base_config.omega1
    run_cycle = checks.run_cycle

    def planted(config, tau):
        row = run_cycle(config, tau)
        if config.omega1 != faster:
            return row
        return replace(row, q_star_1=row.q_star_1 * (1.0 + 1e-8))

    monkeypatch.setattr(checks, "run_cycle", planted)
    r = checks.check_rescaling_invariance(base_config)
    assert not r.passed
    assert r.detail.startswith("hbar -> 2 hbar, beta -> beta/2: 0;")


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
def test_dynamical_checks_hold_across_configs(config):
    # the 1e-8 gates are not tuned to the default config
    effective = effective_samples(config)
    cost_check = check_cost_consistency(config, effective)
    ermakov = check_ermakov_residual(config, effective)
    samples = pair_samples(config)
    routes = check_q_star_routes(config, samples,
                                 production_excess(config, samples))
    assert cost_check.passed and cost_check.residual < 1e-8, cost_check
    assert ermakov.passed and ermakov.residual < 1e-8, ermakov
    assert routes.passed and routes.residual < 1e-8, routes


def _sudden_reading(result):
    # adiabatic_limit's detail ends with its sudden-side reading
    return float(result.detail.rsplit(": ", 1)[1])


@pytest.mark.parametrize("config", [
    EngineConfig(omega1=0.999),
    EngineConfig(),
    EngineConfig(omega1=0.01, beta1=50.0),
    EngineConfig(omega1=0.32e6, omega2=1e6, beta1=0.5e-6, beta2=0.05e-6,
                 tau_min=1e-8, tau_max=1e-5),
    EngineConfig(beta1=1000.0),
    EngineConfig(beta2=1e-6),
    EngineConfig(hbar=1e-3, beta1=500.0, beta2=50.0)],
    ids=["ratio 1.001", "default", "ratio 100", "MHz", "beta1 = 1000",
         "beta2 = 1e-6", "hbar = 1e-3"])
def test_adiabatic_limit_sudden_side_readings(config):
    # DOP853 against the series at max(omega) tau = 0.25: 3.8e-13 at
    # ratio 100, the worst of these, and the gate (4e-11) is 100x that
    assert _sudden_reading(checks.check_adiabatic_limit(config)) <= 1e-12


def test_adiabatic_limit_catches_sudden_q_star_off_by_1e8(base_config,
                                                          monkeypatch):
    # Q* off by 1e-8 at the sudden side's tau alone: the slow side still
    # passes, and the sudden side fails
    clean = checks.check_adiabatic_limit(base_config)
    assert clean.passed
    sudden_tau = 0.25 / base_config.omega2
    solve = checks.compression_q_star_excess

    def planted(config, tau):
        e = solve(config, tau)
        return (1.0 + e) * (1.0 + 1e-8) - 1.0 if tau == sudden_tau else e

    monkeypatch.setattr(checks, "compression_q_star_excess", planted)
    r = checks.check_adiabatic_limit(base_config)
    assert not r.passed
    assert _sudden_reading(r) == pytest.approx(1e-8, rel=1e-2)
    assert r.detail.partition(";")[0] == clean.detail.partition(";")[0]
