from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from sta_otto import checks, cost, cycle
from sta_otto.checks import (check_bound_ordering, check_cost_consistency,
                             check_ermakov_residual, check_q_star_routes,
                             effective_samples, pair_samples, run_all_checks)

from conftest import CONFIG_BOX


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
    # bare-pair grid
    calls = Counter()
    solve, quad = checks.solve_linear_pair, checks.sa_cost_time_average
    effective, moments = checks.solve_effective_pair, checks.solve_second_moments

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

    for module in (checks, cycle):
        monkeypatch.setattr(module, "solve_linear_pair", counted_solve)
    monkeypatch.setattr(checks, "sa_cost_time_average", counted_quad)
    monkeypatch.setattr(checks, "solve_effective_pair", counted_effective)
    monkeypatch.setattr(checks, "solve_second_moments", counted_moments)
    run_all_checks(replace(base_config, tau_count=4))
    assert calls["pair_grid_solves"] == 6
    assert calls["cost_scaling_quads"] == 4
    assert calls["effective_solves"] == 10
    assert calls["moment_solves"] == 6


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
    clean = check_q_star_routes(base_config, samples)
    assert clean.passed
    omega2 = base_config.omega2

    def off(route, start_frequency):
        def planted(*args):
            q = route(*args)
            return q * (1.0 + 1e-7) if start_frequency(args) == omega2 else q
        return planted

    for name in ("husimi_q_star", "adiabaticity_from_ermakov"):
        monkeypatch.setattr(checks, name,
                            off(getattr(checks, name), lambda a: a[0]))
    monkeypatch.setattr(checks, "moment_q_star",
                        off(checks.moment_q_star, lambda a: a[2].omega))
    r = check_q_star_routes(base_config, samples)
    assert not r.passed
    assert r.residual == pytest.approx(1e-7, rel=1e-2)
    # the route spread is unchanged; only the symmetry part moved
    assert r.detail.partition(",")[0] == clean.detail.partition(",")[0]


def test_ermakov_residual_catches_wronskian_off_by_1e7(base_config):
    # X and X' of every sample scaled by 1 + 1e-7 put W - 1 at 1e-7: the
    # reduced residual omega0^2 |W^2 - 1| / b^3 is then about 2e-7 at
    # t = 0 of the expansion stroke (omega0 = 1, b = 1)
    samples = pair_samples(base_config)
    assert check_ermakov_residual(base_config, samples).passed
    k = 1.0 + 1e-7
    planted = {tau: [(protocol, initial, times,
                      [(x * k, xd * k, y, yd) for x, xd, y, yd in states])
                     for protocol, initial, times, states in strokes]
               for tau, strokes in samples.items()}
    r = check_ermakov_residual(base_config, planted)
    assert not r.passed
    assert r.residual > 1e-7


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
def test_dynamical_checks_hold_across_configs(config):
    # the 1e-8 gates are not tuned to the default config
    cost_check = check_cost_consistency(config, effective_samples(config))
    routes = check_q_star_routes(config, pair_samples(config))
    assert cost_check.passed and cost_check.residual < 1e-8, cost_check
    assert routes.passed and routes.residual < 1e-8, routes
