"""Acceptance gate: one test and one summary line per criterion.

Criteria 4 and 6 are left failing on purpose.  Both demand behavior the
smooth quintic ramp cannot produce at the default working point; the
tests state the demanded property verbatim, measure what actually
happens, and fail with the quantitative explanation rather than
glossing over the gap.  Details live in the failure messages below.
"""

import time

import pytest

from sta_otto import (EngineConfig, NoSignChange, find_efficiency_crossover,
                      find_heat_sign_threshold, heat_sign_threshold,
                      run_cycle)
from sta_otto.checks import (check_adiabatic_efficiency, check_bound_ordering,
                             check_cost_scaling, check_fidelity_identity,
                             check_fidelity_zero_t, check_lcd_exactness,
                             check_p_sa_scaling, check_power_ordering,
                             check_q_star_routes, check_wronskian,
                             effective_samples, pair_samples)

from conftest import HEAT_THRESHOLD, SUDDEN_CAP, TAU_STAR, production_excess


def test_criterion_1_adiabatic_efficiency(base_config, record_criterion):
    r = check_adiabatic_efficiency(base_config)
    record_criterion(1, "adiabatic efficiency closed form", r.passed,
                     f"|eta_ad - (1 - omega1/omega2)| = {r.residual:.3g}")
    assert r.passed, r


def test_criterion_2_shortcut_exactness(base_config, record_criterion):
    r = check_lcd_exactness(base_config, effective_samples(base_config))
    record_criterion(2, "shortcut lands on the adiabatic target", r.passed,
                     f"max |Q* - 1| = {r.residual:.3g}")
    assert r.passed, r


def test_criterion_3_cost_scaling(base_config, record_criterion):
    r = check_cost_scaling(base_config)
    record_criterion(3, "driving cost scales as 1/tau^2", r.passed,
                     f"max rel spread of cost*tau^2 = {r.residual:.3g}")
    assert r.passed, r


def test_criterion_4_efficiency_sweep(base_config, base_sweep,
                                      record_criterion):
    start = time.perf_counter()
    rows = base_sweep
    eta_na = [m.eta_na for m in rows]
    increasing = all(b > a for a, b in zip(eta_na, eta_na[1:]))
    approaches = all(e < rows[0].eta_ad for e in eta_na)
    bounded = all(m.eta_sa <= m.eta_ad + 1e-12 for m in rows)

    gaps = [m.eta_sa - m.eta_na for m in rows]
    signs = [g > 0.0 for g in gaps]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    tau_star = find_efficiency_crossover(base_config, (0.01, 10.0))
    regression = abs(tau_star - TAU_STAR) <= 1e-4 * TAU_STAR
    shortcut_wins_below = all(m.eta_sa > m.eta_na for m in rows
                              if m.tau < tau_star)
    bare_wins_above = all(m.eta_sa < m.eta_na for m in rows
                          if m.tau > tau_star)
    orientation = shortcut_wins_below and bare_wins_above
    elapsed = time.perf_counter() - start

    below = run_cycle(base_config, 0.5 * tau_star)
    above = run_cycle(base_config, 2.0 * tau_star)
    gap_lo = below.eta_sa - below.eta_na
    gap_hi = above.eta_sa - above.eta_na

    passed = (increasing and approaches and bounded and changes == 1
              and regression and orientation)
    record_criterion(
        4, "efficiency sweep shape and crossover", passed,
        f"tau* = {tau_star:.6g}, one crossover, eta_na monotone; "
        f"orientation inverted: gap({0.5 * tau_star:.3g}) = {gap_lo:.3g}, "
        f"gap({2 * tau_star:.3g}) = {gap_hi:.3g}")

    assert increasing and approaches, "eta_na fails to rise toward eta_ad"
    assert bounded, "eta_sa exceeds eta_ad"
    assert changes == 1, f"{changes} grid crossovers, expected 1"
    assert regression, f"tau* = {tau_star!r} drifted from {TAU_STAR!r}"
    assert elapsed < 30.0
    if not orientation:
        pytest.fail(
            "crossover orientation is inverted for the quintic ramp: "
            f"eta_sa - eta_na = {gap_lo:.4g} at tau = {0.5 * tau_star:.4g} "
            f"(bare drive wins) and {gap_hi:+.4g} at tau = "
            f"{2 * tau_star:.4g} (shortcut wins), the opposite of the "
            "demanded 'shortcut wins only below tau*'.  Cause: this ramp "
            "is gentle enough that Q*_1 saturates at the sudden value "
            f"{SUDDEN_CAP} instead of growing without bound, so the bare "
            "cycle stays an engine with eta_na -> 0.021 > 0 as tau -> 0, "
            "while the shortcut's 1/tau^2 driving cost sends eta_sa -> 0; "
            "at short times the bare drive therefore has the higher "
            "efficiency.  The demanded ordering reappears only in the far "
            "adiabatic regime: the bare deficit decays ~ tau^-6, faster "
            "than the tau^-2 cost, giving a second sign change near "
            "tau ~ 17-20, outside the sweep grid [0.01, 10].")


def test_criterion_5_power_ordering(base_config, base_sweep,
                                    record_criterion):
    ordering = check_power_ordering(base_config, base_sweep)
    scaling = check_p_sa_scaling(base_config, base_sweep)
    record_criterion(5, "shortcut power dominates and scales as 1/tau",
                     ordering.passed and scaling.passed,
                     f"max(p_na - p_sa) = {ordering.residual:.3g}, "
                     f"p_sa*tau rel spread = {scaling.residual:.3g}")
    assert ordering.passed, ordering
    assert scaling.passed, scaling


def test_criterion_6_heat_sign_root(base_config, base_sweep,
                                    record_criterion):
    level = heat_sign_threshold(base_config.cold, base_config.hot)
    level_err = abs(level - HEAT_THRESHOLD) / HEAT_THRESHOLD
    assert level_err <= 1e-5

    q_max = max(m.q_star_1 for m in base_sweep)
    try:
        tau_death = find_heat_sign_threshold(base_config, (0.01, 10.0))
    except NoSignChange as exc:
        record_criterion(
            6, "bare-drive heat-sign root", False,
            f"threshold constant ok ({level:.9g}), but max Q*_1 on the "
            f"grid is {q_max:.6g} < {level:.6g}: no root")
        pytest.fail(
            f"no heat-sign root exists on (0.01, 10): the quintic ramp's "
            f"Q*_1 is capped at the sudden value {SUDDEN_CAP} (grid max "
            f"{q_max:.6g}), far below the sign-change level "
            f"{level:.9g} = coth(0.025)/coth(0.08) set by these bath "
            "temperatures, so q2_na never changes sign and the bare "
            "cycle keeps running as an engine at every grid point.  The "
            "root exists for configurations whose level is within reach "
            "of the cap, e.g. beta1 = 0.2 puts it near tau = 4.19 "
            f"(solver said: {exc})")

    below = run_cycle(base_config, 0.95 * tau_death)
    above = run_cycle(base_config, 1.05 * tau_death)
    sign_flip = below.q2_na < 0.0 < above.q2_na
    ad_positive = below.q2_ad > 0.0 and above.q2_ad > 0.0
    record_criterion(6, "bare-drive heat-sign root",
                     sign_flip and ad_positive,
                     f"root at tau = {tau_death:.6g}")
    assert sign_flip and ad_positive


def test_criterion_7_fidelity_identities(base_config, record_criterion):
    # identical states at both default baths and at a cold third state
    identities = [check_fidelity_identity(base_config),
                  check_fidelity_identity(EngineConfig(beta1=20.0,
                                                       omega1=0.7))]
    zero_t = check_fidelity_zero_t(base_config)
    passed = all(r.passed for r in identities) and zero_t.passed
    worst_f = max(r.residual for r in identities)
    record_criterion(7, "fidelity identity and ground-state overlap",
                     passed, f"max |F - 1| = {worst_f:.3g}, "
                     f"zero-T err = {zero_t.residual:.3g}")
    assert all(r.passed for r in identities), identities
    assert zero_t.passed, zero_t


def test_criterion_8_bound_ordering(base_config, base_sweep,
                                    record_criterion):
    subset = [m for m in base_sweep
              if m.tqsl1 <= m.tau and m.tqsl3 <= m.tau]
    r = check_bound_ordering(base_config, base_sweep)
    passed = bool(subset) and r.passed
    record_criterion(8, "speed-limit bounds bracket the shortcut engine",
                     passed, f"{r.detail}; worst violation {r.residual:.3g}")
    assert subset
    assert r.passed, r


def test_criterion_9_route_triangulation(base_config, record_criterion):
    samples = pair_samples(base_config)
    routes = check_q_star_routes(base_config, samples,
                                 production_excess(base_config, samples))
    wronskian = check_wronskian(base_config, samples)
    record_criterion(9, "three adiabaticity routes agree",
                     routes.passed and wronskian.passed,
                     f"max route/symmetry spread = {routes.residual:.3g}, "
                     f"max |W - 1| = {wronskian.residual:.3g}")
    assert routes.passed, routes
    assert wronskian.passed, wronskian
