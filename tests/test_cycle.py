import math
from collections import Counter
from dataclasses import fields, replace

import pytest

from sta_otto import (CycleMetrics, NoSignChange, SolverFailure,
                      TrapInversionError, check_trap_inversion,
                      compression_q_star, cycle_constants,
                      find_efficiency_crossover, find_heat_sign_threshold,
                      husimi_q_star, polynomial_ramp, rescaled, run_cycle,
                      solve_linear_pair, sweep)
from sta_otto import cycle

from conftest import (COST1_TAU1, COST3_TAU1, L1, L3, Q1_TAU001, Q1_TAU1,
                      Q2_AD, STRICT_ARGMIN_T, STRICT_MIN_OMEGA_EFF_SQ,
                      SUDDEN_CAP, TAU_HEAT_DEATH_B02, TAU_STAR, W1_AD,
                      W3_AD)

_FLOAT_FIELDS = [f.name for f in fields(CycleMetrics)
                 if f.name not in ("is_engine_na", "flags")]


@pytest.fixture(scope="module")
def unit_metrics(base_config):
    return run_cycle(base_config, 1.0)


def test_adiabatic_reference_values(unit_metrics):
    assert unit_metrics.w1_ad == pytest.approx(W1_AD, rel=1e-12)
    assert unit_metrics.w3_ad == pytest.approx(W3_AD, rel=1e-12)
    assert unit_metrics.q2_ad == pytest.approx(Q2_AD, rel=1e-12)
    assert unit_metrics.eta_ad == pytest.approx(0.68, abs=1e-12)


def test_unit_cycle_frozen_values(unit_metrics):
    assert unit_metrics.q_star_1 == pytest.approx(Q1_TAU1, rel=1e-9)
    # both strokes share the ramp shape, so their Q* agree closely
    assert unit_metrics.q_star_3 == pytest.approx(unit_metrics.q_star_1,
                                                  rel=1e-9)
    assert unit_metrics.cost1 == pytest.approx(COST1_TAU1, rel=1e-10)
    assert unit_metrics.cost3 == pytest.approx(COST3_TAU1, rel=1e-10)
    assert unit_metrics.bures1 == pytest.approx(L1, rel=1e-10)
    assert unit_metrics.bures3 == pytest.approx(L3, rel=1e-10)


def test_metric_identities(unit_metrics):
    m = unit_metrics
    w_ad = m.w1_ad + m.w3_ad
    w_na = m.w1_na + m.w3_na
    assert m.eta_sa == pytest.approx(-w_ad / (m.q2_ad + m.cost_total),
                                     rel=1e-13)
    assert m.eta_na == pytest.approx(-w_na / m.q2_na, rel=1e-13)
    assert m.p_sa == pytest.approx(-w_ad / 2.0, rel=1e-13)
    assert m.p_na == pytest.approx(-w_na / 2.0, rel=1e-13)
    assert m.tqsl1 == pytest.approx(m.bures1 / m.cost1, rel=1e-13)
    assert m.p_qsl == pytest.approx(-w_ad / (m.tqsl1 + m.tqsl3), rel=1e-13)
    assert m.cost_total == m.cost1 + m.cost3
    assert m.is_engine_na


def test_tau_validation(base_config):
    with pytest.raises(ValueError, match="tau must be positive"):
        run_cycle(base_config, 0.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        run_cycle(base_config, -1.0)
    with pytest.raises(ValueError):
        compression_q_star(base_config, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_tau_rejected(base_config, no_solve, bad):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        run_cycle(base_config, bad)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        compression_q_star(base_config, bad)
    with pytest.raises(ValueError, match="bracket"):
        find_efficiency_crossover(base_config, (0.01, bad))
    with pytest.raises(ValueError, match="bracket"):
        find_heat_sign_threshold(base_config, (bad, 10.0))


def test_compression_q_star_matches_cycle(base_config, unit_metrics):
    assert compression_q_star(base_config, 1.0) \
        == pytest.approx(unit_metrics.q_star_1, rel=1e-12)
    q_sudden = compression_q_star(base_config, 0.01)
    assert q_sudden == pytest.approx(Q1_TAU001, rel=1e-9)
    assert q_sudden < SUDDEN_CAP + 1e-9


def test_sweep_shape_and_flags(base_config, base_sweep):
    assert len(base_sweep) == base_config.tau_count
    taus = [m.tau for m in base_sweep]
    assert taus == sorted(taus)
    assert taus[0] == pytest.approx(base_config.tau_min, rel=1e-12)
    assert taus[-1] == pytest.approx(base_config.tau_max, rel=1e-12)
    allowed = {"inversion_1", "inversion_3"}
    for m in base_sweep:
        assert set(m.flags) <= allowed, m.flags
        assert m.is_engine_na
        for name in _FLOAT_FIELDS:
            assert math.isfinite(getattr(m, name))
    inverted = [m for m in base_sweep if m.flags]
    assert 0 < len(inverted) < len(base_sweep)
    # inversion happens at short times only: flagged rows form a prefix
    assert all(m.flags for m in base_sweep[:len(inverted)])


def test_sweep_deterministic(base_config, base_sweep):
    again = sweep(base_config)
    assert again == base_sweep


def test_strict_mode(base_config):
    strict = replace(base_config, strict=True)
    with pytest.raises(TrapInversionError):
        run_cycle(strict, 0.1)
    rows = sweep(replace(strict, tau_count=12))
    errors = [m for m in rows if m.flags and m.flags[0].startswith("error:")]
    assert errors
    for m in errors:
        assert m.flags[0].startswith("error:TrapInversionError:")
        assert not m.is_engine_na
        for name in _FLOAT_FIELDS:
            value = getattr(m, name)
            assert math.isfinite(value)
            if name != "tau":
                assert value == 0.0


def test_strict_message(base_config):
    strict = replace(base_config, strict=True)
    with pytest.raises(TrapInversionError) as info:
        run_cycle(strict, 0.1)
    assert str(info.value) == (
        f"inversion_1: effective frequency squared reaches "
        f"{STRICT_MIN_OMEGA_EFF_SQ!r} at t = {STRICT_ARGMIN_T!r}")
    # just below tau_c the message still reports the compression scan
    with pytest.raises(TrapInversionError) as info:
        run_cycle(strict, 2.5)
    report = check_trap_inversion(polynomial_ramp(0.32, 1.0, 2.5))
    assert str(info.value) == (
        f"inversion_1: effective frequency squared reaches "
        f"{report.min_omega_eff_sq!r} at t = {report.argmin_t!r}")


def test_per_tau_work_budget(base_config, monkeypatch):
    cycle_constants(base_config)
    calls = Counter()
    for name in ("solve_linear_pair", "check_trap_inversion",
                 "sa_cost_time_average"):
        def counted(*args, _name=name, _fn=getattr(cycle, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cycle, name, counted)
    for tau in (0.5, 5.0):
        calls.clear()
        run_cycle(base_config, tau)
        assert (calls["solve_linear_pair"], calls["check_trap_inversion"],
                calls["sa_cost_time_average"]) == (1, 0, 0)


def test_cycle_constants_match_per_tau_routes(base_config):
    const = cycle_constants(base_config)
    assert cycle_constants(replace(base_config)) is const
    assert const.k1 == pytest.approx(COST1_TAU1, rel=1e-10)
    assert const.k3 == pytest.approx(COST3_TAU1, rel=1e-10)
    for tau in (0.1, 1.0, 10.0):
        m = run_cycle(base_config, tau)
        assert m.cost1 * tau * tau == pytest.approx(COST1_TAU1, rel=1e-10)
        assert m.cost3 * tau * tau == pytest.approx(COST3_TAU1, rel=1e-10)
        assert m.q_star_3 == m.q_star_1
        # time reversal: an independent solve of the expansion stroke
        # lands on the compression's Q*
        expansion = polynomial_ramp(1.0, 0.32, tau)
        state = solve_linear_pair(expansion, (tau,), base_config.rel_tol,
                                  base_config.abs_tol)[0]
        q3 = husimi_q_star(1.0, 0.32, state)
        assert q3 == pytest.approx(m.q_star_1, rel=1e-9)
        inverted = tau <= const.tau_c
        assert ("inversion_1" in m.flags) is inverted
        assert ("inversion_3" in m.flags) is inverted


def test_efficiency_crossover(base_config):
    tau_star = find_efficiency_crossover(base_config, (0.01, 10.0))
    assert tau_star == pytest.approx(TAU_STAR, rel=1e-4)
    below = run_cycle(base_config, 0.5 * tau_star)
    above = run_cycle(base_config, 2.0 * tau_star)
    assert below.eta_sa < below.eta_na
    assert above.eta_sa > above.eta_na


def test_crossover_requires_sign_change(base_config):
    with pytest.raises(NoSignChange):
        find_efficiency_crossover(base_config, (5.0, 10.0))
    with pytest.raises(ValueError, match="bracket"):
        find_efficiency_crossover(base_config, (0.0, 10.0))


def test_root_search_non_convergence(base_config, monkeypatch):
    def stall(*args, **kwargs):
        raise RuntimeError("Failed to converge after 100 iterations.")
    monkeypatch.setattr("scipy.optimize.brentq", stall)
    with pytest.raises(SolverFailure, match="did not converge"):
        find_efficiency_crossover(base_config, (0.01, 10.0))


def test_heat_sign_threshold_unreachable_for_quintic(base_config):
    # the ramp's Q* tops out at the sudden value, below the heat-sign
    # level for these baths, so no root exists anywhere on the grid
    with pytest.raises(NoSignChange):
        find_heat_sign_threshold(base_config, (0.01, 10.0))


def test_heat_sign_threshold_colder_bath(base_config):
    config = replace(base_config, beta1=0.2)
    tau_death = find_heat_sign_threshold(config, (0.01, 10.0))
    assert tau_death == pytest.approx(TAU_HEAT_DEATH_B02, rel=1e-4)
    below = run_cycle(config, 0.9 * tau_death)
    above = run_cycle(config, 1.1 * tau_death)
    assert below.q2_na < 0.0 < above.q2_na
    assert below.q2_ad > 0.0 and above.q2_ad > 0.0
    assert not below.is_engine_na and not above.is_engine_na


def test_rescaling_invariance(base_config, unit_metrics):
    lam = 2.0
    scaled = run_cycle(rescaled(base_config, lam), 1.0)
    m = unit_metrics
    for name in ("q_star_1", "q_star_3", "eta_sa", "eta_na", "eta_ad",
                 "eta_qsl", "bures1", "bures3", "tqsl1", "tqsl3"):
        assert getattr(scaled, name) == pytest.approx(getattr(m, name),
                                                      rel=1e-12), name
    for name in ("w1_na", "w3_na", "w1_ad", "w3_ad", "q2_na", "q2_ad",
                 "cost1", "cost3", "p_sa", "p_na", "p_qsl"):
        assert getattr(scaled, name) == pytest.approx(lam * getattr(m, name),
                                                      rel=1e-12), name
    assert scaled.is_engine_na == m.is_engine_na
    with pytest.raises(ValueError):
        rescaled(base_config, 0.0)


def test_cost_overtakes_bare_work_once(base_sweep):
    # at short times the driving cost dwarfs the bare work output; the
    # two curves cross exactly once on the grid
    diff = [m.cost_total - abs(m.w1_na + m.w3_na) for m in base_sweep]
    assert diff[0] > 0.0 > diff[-1]
    signs = [d > 0.0 for d in diff]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1


def test_speed_limit_premise_holds_on_grid(base_sweep):
    for m in base_sweep:
        assert m.tqsl1 <= m.tau and m.tqsl3 <= m.tau
        assert "qsl_premise_1" not in m.flags
        assert "qsl_premise_3" not in m.flags
