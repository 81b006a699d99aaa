from dataclasses import replace

from sta_otto.checks import check_bound_ordering


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
    from sta_otto.checks import run_all_checks

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
