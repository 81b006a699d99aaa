import math
import random
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sta_otto import (CycleMetrics, EngineConfig, NoSignChange,
                      SolverFailure, compression_q_star_excess,
                      cycle_constants, find_efficiency_crossover,
                      find_heat_sign_threshold, polynomial_ramp,
                      q_star_excess, rescaled, run_cycle, solve_linear_pair,
                      sweep)
from sta_otto import cycle, strokes
from sta_otto.checks import check_rescaling_invariance
from sta_otto.dynamics import SERIES_PHASE

from conftest import (CONFIG_BOX, COST1_TAU1, COST3_TAU1, L1, L3,
                      POLE_CONFIG, Q1_TAU001, Q1_TAU1, Q2_AD, SUDDEN_CAP,
                      TAU_HEAT_DEATH_B02, TAU_STAR, TAU_STAR_FAR, W1_AD,
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
        compression_q_star_excess(base_config, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_tau_rejected(base_config, no_solve, bad):
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        run_cycle(base_config, bad)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        compression_q_star_excess(base_config, bad)
    with pytest.raises(ValueError, match="bracket"):
        find_efficiency_crossover(base_config, (0.01, bad))
    with pytest.raises(ValueError, match="bracket"):
        find_heat_sign_threshold(base_config, (bad, 10.0))


def test_compression_q_star_matches_cycle(base_config, unit_metrics):
    assert 1.0 + compression_q_star_excess(base_config, 1.0) \
        == pytest.approx(unit_metrics.q_star_1, rel=1e-12)
    q_sudden = 1.0 + compression_q_star_excess(base_config, 0.01)
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


def test_per_tau_work_budget(base_config, monkeypatch):
    # one Q* solve per tau on one route: DOP853 at phase max(omega) tau
    # = 0.5, the Magnus kernel at 5, past SERIES_PHASE; no quadrature
    cycle_constants(base_config)
    calls = Counter()
    for name in ("solve_linear_pair", "magnus_pair", "sa_cost_time_average"):
        def counted(*args, _name=name, _fn=getattr(cycle, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cycle, name, counted)
    for tau, routes in ((0.5, (1, 0)), (5.0, (0, 1))):
        calls.clear()
        run_cycle(base_config, tau)
        assert (calls["solve_linear_pair"], calls["magnus_pair"],
                calls["sa_cost_time_average"]) == (*routes, 0)


def test_per_config_work_budget(monkeypatch):
    # the calls a config costs, pinned so that a port of these routines
    # keeps them: one cost quadrature and one inversion threshold per
    # config, one ODE solve per tau (DOP853 at or below phase
    # SERIES_PHASE, the Magnus kernel past it)
    import scipy.integrate

    calls = Counter()
    for module, name in ((scipy.integrate, "quad"),
                         (scipy.integrate, "solve_ivp"),
                         (cycle, "magnus_pair"),
                         (cycle, "inversion_threshold")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    config = EngineConfig(omega1=0.31, beta2=0.049)   # not cached yet
    cycle_constants(config)
    assert calls == {"quad": 1, "inversion_threshold": 1}
    for tau, route in ((0.5, "solve_ivp"), (5.0, "magnus_pair")):
        calls.clear()
        run_cycle(config, tau)
        assert calls == {route: 1}


def test_occupation_factors_computed_once_per_config(monkeypatch):
    # the bath states own coth(beta hbar omega / 2): one state build per
    # bath when the config is built, none per tau
    calls = []
    build = strokes.ThermalOscillatorState.__post_init__

    def counted(state):
        calls.append(state)
        build(state)

    monkeypatch.setattr(strokes.ThermalOscillatorState, "__post_init__",
                        counted)
    counts = []
    for n in (4, 8):
        calls.clear()
        sweep(EngineConfig(tau_min=1.0, tau_max=2.0, tau_count=n))
        counts.append(len(calls))
    assert counts == [2, 2]


def test_long_stroke_keeps_q_star_above_one(base_config):
    # Husimi's form of the same DOP853 state reads Q* - 1 = -1.25e-9 here
    m = run_cycle(base_config, 1000.0)
    assert m.q_star_1 >= 1.0
    assert m.p_na <= m.p_sa


def _adiabatic_tail(omega_i, omega_f, tau):
    # first-order adiabatic perturbation theory for the quintic ramp,
    # whose omega' and omega'' vanish at both ends and omega''' = 60 d /
    # tau^3 there (Berry, Proc. R. Soc. A 429, 61 (1990))
    d = omega_f - omega_i
    return (225.0 * d * d / 8.0 * (1.0 / tau) ** 6
            * (omega_i ** -8 + omega_f ** -8
               - 2.0 * math.cos((omega_i + omega_f) * tau)
               / (omega_i ** 4 * omega_f ** 4)))


@pytest.mark.parametrize("tau", [500.0, 1000.0, 2000.0])
def test_long_stroke_q_star_matches_adiabatic_tail(base_config, tau):
    # the production solve here is the Magnus kernel: its Q*1 - 1 lies
    # within 2.6e-4 of the tail (1.6e-4 at tau = 1000, 1.1e-4 at 2000;
    # 3.5e-9, 1.7e-8 and 8e-7 off DOP853 at rtol 1e-13), far below the
    # float spacing near 1, to which 1 + (Q*1 - 1) would round it
    # (2.9e-2 off at 2000); abs=0 drops approx's default 1e-12, which
    # would pass any of these
    assert max(base_config.omega1, base_config.omega2) * tau > SERIES_PHASE
    excess = compression_q_star_excess(base_config, tau)
    tail = _adiabatic_tail(base_config.omega1, base_config.omega2, tau)
    assert excess == pytest.approx(tail, rel=1e-3, abs=0.0)
    if tau == 1000.0:
        assert run_cycle(base_config, tau).q_star_1 == 1.0 + excess


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX, phase=st.floats(0.01, 300.0))
@example(config=EngineConfig(), phase=300.0)
def test_q_star_at_least_one_and_time_reversal(config, phase):
    # Q* >= 1, so P_NA <= P_SA, exactly at every phase max(omega) tau up
    # to 300; an independent solve of the expansion stroke lands on Q*1
    w1, w2 = config.omega1, config.omega2
    tau = phase / max(w1, w2)
    m = run_cycle(config, tau)
    assert m.q_star_1 >= 1.0
    assert m.p_na <= m.p_sa
    state = solve_linear_pair(polynomial_ramp(w2, w1, tau), (tau,))[0]
    q3 = 1.0 + q_star_excess(w2, w1, state)
    assert q3 == pytest.approx(m.q_star_1, rel=1e-9)


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
        state = solve_linear_pair(expansion, (tau,))[0]
        q3 = 1.0 + q_star_excess(1.0, 0.32, state)
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


def _cycles_either_side(config, tau, rel=1e-4):
    """Cycles at tau (1 -/+ rel), between which eta_sa - eta_na must
    change sign."""
    sides = [run_cycle(config, tau * f) for f in (1 - rel, 1 + rel)]
    below, above = (m.eta_sa - m.eta_na for m in sides)
    assert below * above < 0.0
    return sides


def test_no_crossover_at_heat_sign_pole():
    # eta_sa - eta_na changes sign across the heat-sign root, but the
    # bare cycle is no engine on either side, so no crossing exists
    pole = find_heat_sign_threshold(POLE_CONFIG, (0.01, 10.0))
    sides = _cycles_either_side(POLE_CONFIG, pole)
    assert not any(m.is_engine_na for m in sides)
    with pytest.raises(NoSignChange):
        find_efficiency_crossover(POLE_CONFIG, (0.01, 10.0))


def _reference_crossover(config, bracket):
    """scipy's Brent root, xtol 1e-12 in ln tau, of the same level gap
    ln(Q*1 - 1) - ln(Q_sa - 1); None where the gap keeps its sign."""
    level = cycle._crossover_level(config)

    def gap(s):
        excess = compression_q_star_excess(config, math.exp(s))
        return math.log(max(excess, sys.float_info.min)) - level(s)

    try:
        return brentq(gap, *map(math.log, bracket), xtol=1e-12)
    except ValueError:
        return None


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX,
       bracket=st.sampled_from([(0.01, 10.0), (10.0, 40.0)]))
def test_crossover_is_a_real_crossing(config, bracket):
    # the search agrees with a converged Brent root of the same gap on
    # whether a root exists and where, and the root is a real crossing
    reference = _reference_crossover(config, bracket)
    try:
        tau_star = find_efficiency_crossover(config, bracket)
    except NoSignChange:
        assert reference is None
        return
    assert reference is not None
    assert abs(math.log(tau_star) - reference) <= 1e-6
    sides = _cycles_either_side(config, tau_star, rel=1e-5)
    assert all(m.is_engine_na for m in sides)


def test_far_crossover_past_long_stroke_defect(base_config):
    # at tau = 2000 Q*1 - 1 is 1.8e-15, far below the level (Husimi's
    # form read it as negative): the bare drive wins there again, and the
    # search lands on the second root
    tau_star = find_efficiency_crossover(base_config, (10.0, 2000.0))
    assert tau_star == pytest.approx(TAU_STAR_FAR, rel=1e-6)


def test_root_search_work_budget(base_config, monkeypatch):
    # one Q* solve at each bracket end and one per step of the model of
    # ln(Q*1 - 1) against the closed-form level, in ln tau: the short
    # root lies where the sudden-side series holds, so one step lands on
    # it; the long one and the heat-sign root lie past the series' trust
    # phase, where the model is the line through the latest solves.  A
    # solve is a compression_q_star_excess call, on either route
    calls = Counter()

    def counted(*args, _fn=cycle.compression_q_star_excess, **kwargs):
        calls["solve"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(cycle, "compression_q_star_excess", counted)
    colder = replace(base_config, beta1=0.2)
    for search, config, bracket, budget in (
            (find_efficiency_crossover, base_config, (0.01, 10.0), 3),
            (find_efficiency_crossover, base_config, (10.0, 40.0), 7),
            (find_heat_sign_threshold, colder, (0.01, 10.0), 8)):
        calls.clear()
        search(config, bracket)
        assert calls["solve"] <= budget, (bracket, calls)


def test_crossover_solves_per_root_on_study_region(monkeypatch):
    # the benchmark's crossover study draws its configs from this region;
    # a Brent search on the whole gap takes 9.8 solves per root there,
    # and the line model through the latest solves alone takes 6.0; a
    # solve is a compression_q_star_excess call, on either route
    calls = Counter()

    def counted(*args, _fn=cycle.compression_q_star_excess, **kwargs):
        calls["solve"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(cycle, "compression_q_star_excess", counted)
    rng = random.Random(2016)
    for _ in range(20):
        config = EngineConfig(omega1=rng.uniform(0.35, 0.5),
                              beta1=rng.uniform(0.5, 0.95),
                              beta2=rng.uniform(0.02, 0.05))
        find_efficiency_crossover(config, (0.01, 10.0))
    assert calls["solve"] / 20 <= 3.5, calls


def _search_with_shape(search, config, bracket, reshape):
    """(ln root or None where no sign change, Q* solves) of a search
    whose model shape is reshape(the series' shape)."""
    calls = Counter()

    def counted(*args, _fn=cycle.compression_q_star_excess, **kwargs):
        calls["solve"] += 1
        return _fn(*args, **kwargs)

    def planted(config, _build=cycle._sudden_shape):
        shape = _build(config)
        return lambda s: reshape(shape, s)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cycle, "compression_q_star_excess", counted)
        m.setattr(cycle, "_sudden_shape", planted)
        try:
            root = math.log(search(config, bracket))
        except NoSignChange:
            root = None
    return root, calls["solve"]


def _solves_against_flat(search, config, bracket, reshape):
    """(Q* solves with no shape, with reshape), once the two searches
    have agreed on the root within 1e-6 in ln tau, or on NoSignChange.
    With no shape the model is the line through the latest solves
    alone, the search before the series."""
    want, flat = _search_with_shape(search, config, bracket,
                                    lambda shape, s: 0.0)
    got, solves = _search_with_shape(search, config, bracket, reshape)
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - want) <= 1e-6
    return flat, solves


_SEARCHES = [(find_efficiency_crossover, (0.01, 10.0)),
             (find_efficiency_crossover, (10.0, 40.0)),
             (find_heat_sign_threshold, (0.01, 10.0))]


# a constant offset cancels against the model's anchor on a solve, so
# the planted offset is a step of 0.3 in ln(Q*1 - 1) at tau = 0.2 or
# 0.15; a sign change of the model at such a jump is not taken as its
# root, which at 0.15 would end the default search at the jump
@pytest.mark.parametrize("reshape", [
    lambda shape, s: 1.5 * shape(s),
    lambda shape, s: shape(s) + (0.3 if s > math.log(0.2) else 0.0),
    lambda shape, s: shape(s) + (0.3 if s > math.log(0.15) else 0.0)],
    ids=["scaled by 1.5", "offset by 0.3 past tau = 0.2",
         "offset by 0.3 past tau = 0.15"])
@pytest.mark.parametrize("config, search, bracket", [
    (EngineConfig(), *_SEARCHES[0]),
    (EngineConfig(), *_SEARCHES[1]),
    (EngineConfig(beta1=0.2), *_SEARCHES[2]),
    (POLE_CONFIG, *_SEARCHES[0])])
def test_wrong_shape_costs_solves_never_a_root(config, search, bracket,
                                               reshape):
    # every Q* the search compares with the level is a solve, so a wrong
    # model finds the same root or NoSignChange, within the cap
    _, solves = _solves_against_flat(search, config, bracket, reshape)
    assert solves <= 2 + cycle._ROOT_ITERATIONS


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX, case=st.sampled_from(_SEARCHES))
def test_series_shape_costs_at_most_one_extra_solve(config, case):
    search, bracket = case
    flat, solves = _solves_against_flat(search, config, bracket,
                                        lambda shape, s: shape(s))
    assert solves <= flat + 1, (flat, solves)


def test_root_search_non_convergence(base_config, monkeypatch):
    # the default crossover takes two steps past the bracket ends, one
    # solve and the step that stays within 1e-6 of it: a cap of one
    # raises instead of returning the last iterate
    monkeypatch.setattr(cycle, "_ROOT_ITERATIONS", 1)
    with pytest.raises(SolverFailure, match="did not converge"):
        find_efficiency_crossover(base_config, (0.01, 10.0))


def test_root_search_refuses_non_finite_q_star(base_config,
                                               nan_q_star_inside):
    # a NaN Q* inside the bracket fails the search; it is never taken as
    # a side of the sign change
    with pytest.raises(SolverFailure, match="did not converge"):
        find_efficiency_crossover(base_config, (0.01, 10.0))
    with pytest.raises(SolverFailure, match="did not converge"):
        find_heat_sign_threshold(replace(base_config, beta1=0.2),
                                 (0.01, 10.0))


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


def test_search_reads_q_star_excess_below_float_spacing(base_config,
                                                        monkeypatch):
    # a heat-sign level of 1e-14 puts the root near tau = 1512, where
    # Q*1 - 1 is 50x below the float spacing near 1; read as
    # 1 + (Q*1 - 1) it rounds, and the search lands 2.6e-3 off in ln tau.
    # Q*1 - 1 oscillates by 2% there, so the gap has roots close by: a
    # sign change of the gap within 1e-6 either side of the returned root
    # is what brentq would need to find one there
    level = (1.0 + 1e-14) - 1.0
    monkeypatch.setattr(cycle, "heat_sign_threshold",
                        lambda cold, hot: 1.0 + 1e-14)
    root = math.log(find_heat_sign_threshold(base_config, (1000.0, 2000.0)))

    def gap(s):
        excess = compression_q_star_excess(base_config, math.exp(s))
        return math.log(excess) - math.log(level)

    assert gap(root - 1e-6) * gap(root + 1e-6) < 0.0


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX, tau=st.floats(0.01, 40.0))
def test_crossover_level_is_the_cycles_crossing(config, tau):
    # a bare cycle whose Q* sits on the closed-form level runs at the
    # shortcut's efficiency eta_sa, built by run_cycle from the costs
    q = 1.0 + math.exp(cycle._crossover_level(config)(math.log(tau)))
    w_na = (strokes.stroke_work(q, config.cold, config.omega2)
            + strokes.stroke_work(q, config.hot, config.omega1))
    eta_na = -w_na / strokes.hot_isochore_heat(q, config.cold, config.hot)
    assert eta_na == pytest.approx(run_cycle(config, tau).eta_sa, rel=1e-10)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(config=CONFIG_BOX)
def test_rescaling_invariance(config):
    # the field lists live in the validate check alone
    assert check_rescaling_invariance(config).passed
    assert (run_cycle(rescaled(config, 2.0), 1.0).is_engine_na
            == run_cycle(config, 1.0).is_engine_na)
    with pytest.raises(ValueError):
        rescaled(config, 0.0)


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
