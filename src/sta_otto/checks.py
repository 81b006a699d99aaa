"""Self-contained invariant suite behind the validate subcommand.

Every check is a named function returning a CheckResult with a measured
residual, so a failure report says not only what broke but by how much.
Data that several checks read (pair_samples, effective_samples, the
production Q*1 at pair_samples' taus and the cycle rows) is computed
once by run_all_checks and passed to each.  The production Q*1 is
compression_q_star_excess, the one that run_cycle reads: q_star_routes
holds it to the DOP853 pair, and power_ordering reads its cycle.  The
rows come from cycle_from_q_star, so they cost no solve of their own:
the four grid checks read it at Q*1 = 1 over the tau grid, since none
of them reads a column that Q* enters.  Checks marked as warnings
(trap inversion on the configured grid, speed bound premise violations)
inform without failing the suite; strict mode's refusal of a tau at or
below the inversion threshold is cycle_from_q_star's, and a refused
point is left out of the rows.
Every fixed duration a check solves at is given in units of the default
omega1 (times 0.32/omega1), or, for adiabatic_limit's sudden side, as
a phase max(omega) tau, so a config in other units of time asks the
solvers for the same phase omega tau and reads the same residuals.
Each check tests an invariant of its own: wronskian_constancy is the
one statement of W = 1 for the bare pair, and ermakov_residual holds
the shortcut's effective pair to its closed-form Ermakov scaling
b = sqrt(omega0/omega(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import EngineConfig, linspace, tau_grid
from .cost import sa_cost_time_average, sa_energy_instant
from .cycle import (compression_q_star_excess, cycle_constants,
                    cycle_from_q_star, rescaled, run_cycle, stroke_pairs)
from .dynamics import (adiabaticity_from_ermakov, ermakov_from_linear,
                       moment_q_star, q_star_excess, series_pair_state,
                       solve_effective_pair, solve_linear_pair,
                       solve_second_moments, sudden_pair_series, wronskian)
from .errors import ConfigError, StaOttoError
from .protocol import (boundary_residuals, omega_of, polynomial_ramp,
                       sample_protocol)
from .qsl import bures_angle, gaussian_fidelity
from .strokes import ThermalOscillatorState


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""
    warning: bool = False


def config_failure(exc: ConfigError) -> CheckResult:
    """Result emitted when the config itself fails its invariants."""
    return CheckResult("config_invariants", False, math.inf, str(exc))


def check_config_invariants(config: EngineConfig) -> CheckResult:
    # construction already enforces them; reaching this line is the pass
    return CheckResult("config_invariants", True, 0.0,
                       "enforced at construction")


def _time_unit(config: EngineConfig) -> float:
    # the default omega1's unit of time; exactly 1.0 at the default
    return 0.32 / config.omega1


def check_protocol_boundary(config: EngineConfig) -> CheckResult:
    worst = 0.0
    for tau in (0.35, 1.0):
        for protocol, _ in stroke_pairs(config, tau * _time_unit(config)):
            worst = max(worst, *boundary_residuals(protocol).values())
    return CheckResult("protocol_boundary", worst <= 1e-12, worst,
                       "flat ends: omega at targets, derivatives zero")


def check_protocol_midpoint(config: EngineConfig) -> CheckResult:
    protocol = polynomial_ramp(config.omega1, config.omega2, 1.0)
    sample = sample_protocol(protocol, 0.5)
    mid = 0.5 * (config.omega1 + config.omega2)
    worst = max(abs(sample.omega - mid), abs(sample.omega_ddot))
    return CheckResult("protocol_midpoint", worst <= 1e-12, worst,
                       "odd symmetry about s = 1/2")


def check_protocol_scaling(config: EngineConfig) -> CheckResult:
    base = polynomial_ramp(config.omega1, config.omega2, 1.0)
    slow = polynomial_ramp(config.omega1, config.omega2, 2.0)
    worst = 0.0
    for s in (0.2, 0.5, 0.8):
        a = sample_protocol(base, s)
        b = sample_protocol(slow, 2.0 * s)
        worst = max(worst,
                    abs(b.omega_dot * 2.0 - a.omega_dot) / abs(a.omega_dot),
                    abs(b.omega - a.omega))
        if a.omega_ddot != 0.0:
            worst = max(worst, abs(b.omega_ddot * 4.0 - a.omega_ddot)
                        / abs(a.omega_ddot))
    return CheckResult("protocol_scaling", worst <= 1e-12, worst,
                       "omega_dot ~ 1/tau, omega_ddot ~ 1/tau^2")


def _stroke_samples(config: EngineConfig, solve, taus, count: int) -> dict:
    # each stroke from stroke_pairs solved once on linspace(0, tau, count),
    # for each of the taus in the default omega1's unit of time
    samples = {}
    for tau in taus:
        tau *= _time_unit(config)
        times = linspace(0.0, tau, count)
        samples[tau] = [(protocol, initial, times,
                         solve(protocol, times))
                        for protocol, initial in stroke_pairs(config, tau)]
    return samples


def pair_samples(config: EngineConfig) -> dict:
    """{tau: [(protocol, initial, times, states) per stroke]} for tau in
    (0.1, 1, 10) times 0.32/omega1: the linear pair of each stroke,
    solved once on linspace(0, tau, 101) for every check that reads it."""
    return _stroke_samples(config, solve_linear_pair, (0.1, 1.0, 10.0), 101)


def effective_samples(config: EngineConfig) -> dict:
    """pair_samples' sibling for the shortcut: the effective pair of each
    stroke for tau in (0.05, 0.1, 0.5, 1, 5) times 0.32/omega1, solved
    once on linspace(0, tau, 41) for ermakov_residual, lcd_exactness and
    cost_consistency."""
    return _stroke_samples(config, solve_effective_pair,
                           (0.05, 0.1, 0.5, 1.0, 5.0), 41)


def check_wronskian(config: EngineConfig, samples) -> CheckResult:
    worst = 0.0
    for strokes in samples.values():
        for _, _, _, states in strokes:
            worst = max(worst, *(abs(wronskian(s) - 1.0) for s in states))
    return CheckResult("wronskian_constancy", worst <= 1e-9, worst,
                       "unit Wronskian of the fundamental pair")


def check_ermakov_residual(config: EngineConfig, effective) -> CheckResult:
    # Omega^2 is built so that sqrt(omega0/omega) solves b'' + Omega^2 b =
    # omega0^2/b^3; the flat ends start it at b = 1, b' = 0, as the
    # effective pair's b starts, so the two agree at every t
    worst = 0.0
    for strokes in effective.values():
        for protocol, _, times, states in strokes:
            omega, omega0 = omega_of(protocol), protocol.omega_initial
            for t, state in zip(times, states):
                b, _ = ermakov_from_linear(omega0, state)
                worst = max(worst, abs(b * math.sqrt(omega(t) / omega0) - 1.0))
    return CheckResult("ermakov_residual", worst <= 1e-8, worst,
                       "shortcut follows the Ermakov scaling "
                       "b = sqrt(omega0/omega(t))")


def check_q_star_routes(config: EngineConfig, samples,
                        production) -> CheckResult:
    # also holds Q*3 = Q*1 at t = tau, which run_cycle relies on, and
    # the production Q*1 ({tau: compression_q_star_excess}) to the
    # DOP853 pair at t = tau on each compression stroke.  The pair
    # route, 1 + a sum of squares, is >= 1 by construction, so the floor
    # Q* >= 1 is read on the independent moment route
    worst = asymmetry = off = 0.0
    floor = math.inf
    for tau, strokes in samples.items():
        ends = []
        for protocol, initial, times, pairs in strokes:
            omega, omega0 = omega_of(protocol), protocol.omega_initial
            moments = solve_second_moments(protocol, times, initial)
            for t, pair, mom in zip(times, pairs, moments):
                wt = omega(t)
                q_pair = 1.0 + q_star_excess(omega0, wt, pair)
                q_erk = adiabaticity_from_ermakov(
                    omega0, wt, ermakov_from_linear(omega0, pair))
                q_mom = moment_q_star(wt, mom, initial)
                scale = abs(q_pair)
                worst = max(worst, abs(q_erk - q_pair) / scale,
                            abs(q_mom - q_pair) / scale)
                floor = min(floor, q_mom)
            ends.append(q_pair)   # the last time is t = tau
        q1, q3 = ends
        asymmetry = max(asymmetry, abs(q3 - q1) / q1)
        off = max(off, abs(1.0 + production[tau] - q1) / q1)
    residual = max(worst, asymmetry, off)
    passed = residual <= 1e-8 and floor >= 1.0 - 1e-9
    return CheckResult("q_star_routes", passed, residual,
                       f"pair/Ermakov/moment spread = {worst:.3g}, |Q*3 - "
                       f"Q*1|/Q*1 = {asymmetry:.3g}, production Q*1 at "
                       f"t = tau off the pair by {off:.3g}; min moment "
                       f"Q* = {floor:.12g}")


# phase max(omega) tau of the sudden side of adiabatic_limit, and its
# gate on |Q*/Q*_series - 1|: 100x the worst reading, 3.8e-13 at
# omega2/omega1 = 100 (0 at 1.001, 2.7e-15 at 3.125 and at
# beta1 = 1000, beta2 = 1e-6 or hbar = 1e-3, 5.0e-14 in MHz units)
_SUDDEN_PHASE = 0.25
_SUDDEN_GATE = 4e-11


def check_adiabatic_limit(config: EngineConfig) -> CheckResult:
    # both ends of tau: a slow drive approaches Q* = 1, and a fast one
    # matches the closed-form series of the pair, whose truncation is
    # below roundoff at phase 0.25
    slow = compression_q_star_excess(config, 100.0 * _time_unit(config))
    w1, w2 = config.omega1, config.omega2
    tau = _SUDDEN_PHASE / w2
    state = series_pair_state(sudden_pair_series(w1, w2), tau)
    sudden = abs((1.0 + compression_q_star_excess(config, tau))
                 / (1.0 + q_star_excess(w1, w2, state)) - 1.0)
    return CheckResult("adiabatic_limit",
                       slow <= 1e-3 and sudden <= _SUDDEN_GATE,
                       max(slow, sudden),
                       f"slow drive approaches Q* = 1: {slow:.3g}; "
                       f"fast drive matches the series of the pair at "
                       f"max(omega) tau = {_SUDDEN_PHASE:g}: {sudden:.3g}")


def check_lcd_exactness(config: EngineConfig, effective) -> CheckResult:
    worst = 0.0
    for strokes in effective.values():
        for protocol, _, _, states in strokes:
            worst = max(worst, q_star_excess(protocol.omega_initial,
                                             protocol.omega_final,
                                             states[-1]))
    return CheckResult("lcd_exactness", worst <= 1e-6, worst,
                       "shortcut lands on the adiabatic state")


def check_adiabatic_efficiency(config: EngineConfig) -> CheckResult:
    const = cycle_constants(config)
    eta = -(const.w1_ad + const.w3_ad) / const.q2_ad
    target = 1.0 - config.omega1 / config.omega2
    return CheckResult("adiabatic_efficiency", abs(eta - target) <= 1e-9,
                       abs(eta - target), "eta_AD = 1 - omega1/omega2")


def check_cost_boundary(config: EngineConfig) -> CheckResult:
    (protocol, cold), _ = stroke_pairs(config, 1.0)
    scale = cold.mean_energy
    worst = max(abs(sa_energy_instant(sample_protocol(protocol, 0.0), cold)),
                abs(sa_energy_instant(sample_protocol(protocol, 1.0), cold)))
    return CheckResult("cost_boundary", worst <= 1e-10 * scale, worst,
                       "auxiliary energy vanishes at flat ends")


def check_cost_scaling(config: EngineConfig) -> CheckResult:
    # cost * tau^2 of (compression, expansion), each from its own bath,
    # against the tau = 1 constants every cycle scales; the expansion
    # quadrature here is the only one, so it also checks k3 = k1 nu_hot
    # / nu_cold, which cycle_constants takes from time reversal
    const = cycle_constants(config)
    unit = _time_unit(config)
    worst = 0.0
    for tau in (0.1 * unit, 10.0 * unit):
        for (protocol, initial), ref in zip(stroke_pairs(config, tau),
                                            (const.k1, const.k3)):
            v = sa_cost_time_average(protocol, initial) * tau * tau
            worst = max(worst, abs(v - ref) / abs(ref))
    return CheckResult("cost_scaling", worst <= 1e-12, worst,
                       "time-averaged cost ~ 1/tau^2 at fixed shape")


def check_cost_consistency(config: EngineConfig, effective) -> CheckResult:
    # driven at Omega(t), <p^2>/2 + Omega^2 <x^2>/2 (mass 1) exceeds the
    # adiabatic energy by sa_energy_instant; the moments of the thermal
    # start (no x-p correlation) follow from the effective pair
    worst = 0.0
    for strokes in effective.values():
        for protocol, initial, times, states in strokes:
            e0 = initial.mean_energy
            xx0, pp0 = e0 / initial.omega ** 2, e0
            gap = scale = 0.0
            for t, (x, xd, y, yd) in zip(times, states):
                sample = sample_protocol(protocol, t)
                xx = xx0 * y * y + pp0 * x * x
                pp = xx0 * yd * yd + pp0 * xd * xd
                energy = pp / 2.0 + 0.5 * sample.omega_eff_sq * xx
                adiabatic = sample.omega / initial.omega * e0
                aux = sa_energy_instant(sample, initial)
                gap = max(gap, abs(energy - adiabatic - aux))
                scale = max(scale, adiabatic + abs(aux))
            worst = max(worst, gap / scale)
    return CheckResult("cost_consistency", worst <= 1e-8, worst,
                       "<H_eff> on the effective pair = adiabatic energy "
                       "+ auxiliary energy")


def check_fidelity_identity(config: EngineConfig) -> CheckResult:
    worst_f, angle = 0.0, 0.0
    for state in (config.cold, config.hot):
        f = gaussian_fidelity(state, state.omega)
        worst_f = max(worst_f, abs(f - 1.0))
        angle = max(angle, bures_angle(min(f, 1.0)))
    # arccos near 1 cannot resolve angles below sqrt(eps) ~ 1.5e-8,
    # so the angle tolerance is necessarily looser than the fidelity's
    passed = worst_f <= 1e-12 and angle <= 1e-7
    return CheckResult("fidelity_identity", passed, worst_f,
                       f"identical states at both baths: F = 1, "
                       f"max angle = {angle:.3g}")


def check_fidelity_zero_t(config: EngineConfig) -> CheckResult:
    wa, wb = config.omega1, config.omega2
    cold = ThermalOscillatorState(100.0 / (config.hbar * wa), wa,
                                  config.hbar)
    f = gaussian_fidelity(cold, wb)
    overlap = 2.0 * math.sqrt(wa * wb) / (wa + wb)
    worst = abs(f - overlap)
    return CheckResult("fidelity_zero_t", worst <= 1e-9, worst,
                       "cold limit matches ground-state overlap")


# the five row checks are run on at least one valid row
def check_bound_ordering(config: EngineConfig, rows) -> CheckResult:
    """On the rows where the speed-limit premise holds, the bounds
    bracket the shortcut engine and are tighter than the second law:
    eta_sa <= eta_qsl <= eta_ad, p_sa <= p_qsl, and
    eta_qsl <= eta_Carnot = 1 - beta2/beta1 (the efficiency form of the
    abstract's claim, arXiv:1611.09045).
    """
    eta_carnot = 1.0 - config.beta2 / config.beta1
    premise = [r for r in rows
               if "qsl_premise_1" not in r.flags
               and "qsl_premise_3" not in r.flags]
    worst = 0.0
    for r in premise:
        worst = max(worst, r.eta_sa - r.eta_qsl, r.eta_qsl - r.eta_ad,
                    r.p_sa - r.p_qsl, r.eta_qsl - eta_carnot)
    detail = (f"{len(premise)}/{len(rows)} grid points satisfy the "
              f"short-time premise")
    return CheckResult("bound_ordering", worst <= 1e-12, max(worst, 0.0),
                       detail)


def check_eta_sa_monotone(config: EngineConfig, rows) -> CheckResult:
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        worst = max(worst, a.eta_sa - b.eta_sa)
    return CheckResult("eta_sa_monotone", worst <= 1e-12, max(worst, 0.0),
                       "shortcut efficiency non-decreasing in tau")


def check_power_ordering(config: EngineConfig, rows) -> CheckResult:
    """P_SA >= P_NA on rows that carry a solved Q*1.  P_SA - P_NA =
    hbar (Q*1 - 1)(omega2 nu_cold + omega1 nu_hot) / (4 tau) and
    Q*1 - 1 is a sum of squares, so only works wired wrongly fail it."""
    worst = max(r.p_na - r.p_sa for r in rows)
    return CheckResult("power_ordering", worst <= 1e-12, max(worst, 0.0),
                       f"P_SA >= P_NA at {len(rows)} solved Q*1: P_SA - "
                       f"P_NA = hbar (Q*1 - 1)(omega2 nu_cold + omega1 "
                       f"nu_hot)/(4 tau)")


def check_p_sa_scaling(config: EngineConfig, rows) -> CheckResult:
    products = [r.p_sa * r.tau for r in rows]
    ref = products[len(products) // 2]
    worst = max(abs(p - ref) / abs(ref) for p in products)
    return CheckResult("p_sa_scaling", worst <= 1e-9, worst,
                       "P_SA * tau constant (work numerator fixed)")


def check_eta_ordering(config: EngineConfig, rows) -> CheckResult:
    worst = max(r.eta_sa - r.eta_ad for r in rows)
    return CheckResult("eta_ordering", worst <= 1e-12, max(worst, 0.0),
                       "eta_SA <= eta_AD on the grid")


def check_rescaling_invariance(config: EngineConfig) -> CheckResult:
    # the model's two exact symmetries, each with lam = 2 and beta ->
    # beta/lam: hbar -> lam hbar, and omega -> lam omega at tau/lam.  Both
    # scale energies by lam and times by their factor on tau, so powers by
    # lam over that factor.  A property of the physics, not of the
    # inversion policy: strict mode would refuse both taus whenever they
    # lie below tau_c
    config = replace(config, strict=False)
    lam = 2.0
    symmetries = ((rescaled(config, lam), 1.0),   # (config, factor on tau)
                  (replace(config, omega1=lam * config.omega1,
                           omega2=lam * config.omega2,
                           beta1=config.beta1 / lam,
                           beta2=config.beta2 / lam), 1.0 / lam))
    unit = _time_unit(config)
    worst = [0.0, 0.0]
    for tau in (0.1 * unit, 1.0 * unit):
        a = run_cycle(config, tau)
        for k, (other, stretch) in enumerate(symmetries):
            b = run_cycle(other, stretch * tau)
            for names, scale in (
                    (("q_star_1", "q_star_3", "eta_sa", "eta_na", "eta_ad",
                      "eta_qsl", "bures1", "bures3"), 1.0),
                    (("w1_na", "w3_na", "w1_ad", "w3_ad", "q2_na", "q2_ad",
                      "cost1", "cost3"), lam),
                    (("p_sa", "p_na", "p_qsl"), lam / stretch),
                    (("tqsl1", "tqsl3"), stretch)):
                for name in names:
                    want, got = scale * getattr(a, name), getattr(b, name)
                    worst[k] = max(worst[k],
                                   abs(want - got) / max(abs(want), 1.0))
    hbar, time = worst
    return CheckResult("rescaling_invariance",
                       hbar <= 1e-12 and time <= 1e-9, max(worst),
                       f"hbar -> 2 hbar, beta -> beta/2: {hbar:.3g}; "
                       f"omega -> 2 omega, beta -> beta/2, tau -> tau/2: "
                       f"{time:.3g}")


def check_trap_inversion_scan(config: EngineConfig) -> CheckResult:
    grid = tau_grid(config)
    tau_c = cycle_constants(config).tau_c
    inverted = [tau for tau in grid if tau <= tau_c]
    if not inverted:
        return CheckResult("trap_inversion_scan", True, 0.0,
                           "no inversion on the configured grid")
    detail = (f"effective frequency inverts for {len(inverted)}/{len(grid)} "
              f"grid points, tau <= {max(inverted):.6g}")
    return CheckResult("trap_inversion_scan", True, float(len(inverted)),
                       detail, warning=True)


def _cycle_rows(config: EngineConfig, points) -> list:
    # cycle_from_q_star at each (tau, Q*1); a point it refuses is left
    # out, as a sweep's error row is
    rows = []
    for tau, q_star_1 in points:
        try:
            rows.append(cycle_from_q_star(config, tau, q_star_1))
        except StaOttoError:
            pass
    return rows


def run_all_checks(config: EngineConfig) -> list[CheckResult]:
    results = [
        check_config_invariants(config),
        check_protocol_boundary(config),
        check_protocol_midpoint(config),
        check_protocol_scaling(config),
    ]
    # after the protocol checks: they fail fast where a solve would crawl
    samples = pair_samples(config)
    effective = effective_samples(config)
    production = {tau: compression_q_star_excess(config, tau)
                  for tau in samples}
    results += [
        check_wronskian(config, samples),
        check_ermakov_residual(config, effective),
        check_q_star_routes(config, samples, production),
        check_adiabatic_limit(config),
        check_lcd_exactness(config, effective),
        check_adiabatic_efficiency(config),
        check_cost_boundary(config),
        check_cost_scaling(config),
        check_cost_consistency(config, effective),
        check_fidelity_identity(config),
        check_fidelity_zero_t(config),
    ]
    # the row checks solve nothing; see the module docstring
    grid = _cycle_rows(config, [(tau, 1.0) for tau in tau_grid(config)])
    solved = _cycle_rows(config, [(tau, 1.0 + excess)
                                  for tau, excess in production.items()])
    for check, rows in ((check_bound_ordering, grid),
                        (check_eta_sa_monotone, grid),
                        (check_power_ordering, solved),
                        (check_p_sa_scaling, grid),
                        (check_eta_ordering, grid)):
        # every point refused (e.g. strict mode below tau_c): nothing to
        # check is a failure, not a vacuous pass
        results.append(check(config, rows) if rows else CheckResult(
            check.__name__.removeprefix("check_"), False, math.inf,
            "no valid rows"))
    return results + [check_rescaling_invariance(config),
                      check_trap_inversion_scan(config)]
