from collections import Counter
from dataclasses import replace

from sta_otto import checks, cycle
from sta_otto.checks import check_bound_ordering, run_all_checks


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
    # reference from cycle_constants instead of a quadrature of its own
    calls = Counter()
    solve, quad = checks.solve_linear_pair, checks.sa_cost_time_average

    def counted_solve(protocol, times, *args):
        calls["pair_grid_solves"] += len(times) == 101
        return solve(protocol, times, *args)

    def counted_quad(*args):
        calls["cost_scaling_quads"] += 1
        return quad(*args)

    for module in (checks, cycle):
        monkeypatch.setattr(module, "solve_linear_pair", counted_solve)
    monkeypatch.setattr(checks, "sa_cost_time_average", counted_quad)
    run_all_checks(replace(base_config, tau_count=4))
    assert calls["pair_grid_solves"] == 6
    assert calls["cost_scaling_quads"] == 4


def test_cost_scaling_catches_k3_off_by_1e9(base_config, monkeypatch):
    # the expansion quadrature is the one check on k3 = k1 nu_hot/nu_cold
    assert checks.check_cost_scaling(base_config).passed
    const = cycle.cycle_constants(base_config)
    off = replace(const, k3=const.k3 * (1.0 + 1e-9))
    monkeypatch.setattr(checks, "cycle_constants", lambda config: off)
    assert not checks.check_cost_scaling(base_config).passed
