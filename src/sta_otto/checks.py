"""Self-contained invariant suite behind the validate subcommand.

Every check is a named function returning a CheckResult with a measured
residual, so a failure report says not only what broke but by how much.
Checks marked as warnings (trap inversion on the configured grid, speed
bound premise violations) inform without failing the suite; strict mode
is handled upstream by run_cycle, which turns inversion into errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import EngineConfig, linspace, tau_grid
from .cost import lcd_mean_energy, sa_cost_time_average, sa_energy_instant
from .cycle import (compression_q_star, cycle_constants, rescaled,
                    run_cycle, stroke_pairs, sweep)
from .dynamics import (adiabaticity_from_ermakov, ermakov_from_linear,
                       ermakov_residual, husimi_q_star,
                       lcd_final_adiabaticity, moment_q_star,
                       solve_linear_pair, solve_second_moments, wronskian)
from .errors import ConfigError
from .protocol import (boundary_residuals, omega_of, polynomial_ramp,
                       sample_protocol)
from .qsl import bures_angle, gaussian_fidelity


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


def check_protocol_boundary(config: EngineConfig) -> CheckResult:
    worst = 0.0
    for tau in (0.35, 1.0):
        for protocol, _ in stroke_pairs(config, tau):
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


def check_wronskian(config: EngineConfig) -> CheckResult:
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        for protocol, _ in stroke_pairs(config, tau):
            states = solve_linear_pair(protocol, linspace(0.0, tau, 101),
                                       config.rel_tol, config.abs_tol)
            worst = max(worst, *(abs(wronskian(s) - 1.0) for s in states))
    return CheckResult("wronskian_constancy", worst <= 1e-9, worst,
                       "unit Wronskian of the fundamental pair")


def check_ermakov_residual(config: EngineConfig) -> CheckResult:
    # the Wronskian invariant in Ermakov form: the residual reduces to
    # omega0^2 |W^2 - 1| / b^3 (see ermakov_residual)
    worst = 0.0
    for protocol, _ in stroke_pairs(config, 1.0):
        omega, omega0 = omega_of(protocol), protocol.omega_initial
        times = linspace(0.0, 1.0, 101)
        states = solve_linear_pair(protocol, times, config.rel_tol,
                                   config.abs_tol)
        for t, state in zip(times, states):
            worst = max(worst, ermakov_residual(omega0, omega(t), state))
    return CheckResult("ermakov_residual", worst <= 1e-8, worst,
                       "b'' + omega^2 b = omega0^2/b^3 from the pair")


def check_q_star_routes(config: EngineConfig) -> CheckResult:
    worst = 0.0
    floor = math.inf
    for tau in (0.1, 1.0, 10.0):
        for protocol, initial in stroke_pairs(config, tau):
            omega, omega0 = omega_of(protocol), protocol.omega_initial
            times = linspace(0.0, tau, 101)
            pairs = solve_linear_pair(protocol, times, config.rel_tol,
                                      config.abs_tol)
            moments = solve_second_moments(protocol, times, initial.beta,
                                           config.m, config.hbar,
                                           config.rel_tol, config.abs_tol)
            for t, pair, mom in zip(times, pairs, moments):
                wt = omega(t)
                q_pair = husimi_q_star(omega0, wt, pair)
                q_erk = adiabaticity_from_ermakov(
                    omega0, wt, ermakov_from_linear(omega0, pair))
                q_mom = moment_q_star(omega0, wt, mom, initial.beta,
                                      config.m, config.hbar)
                scale = abs(q_pair)
                worst = max(worst, abs(q_erk - q_pair) / scale,
                            abs(q_mom - q_pair) / scale)
                floor = min(floor, q_pair)
    passed = worst <= 1e-8 and floor >= 1.0 - 1e-9
    return CheckResult("q_star_routes", passed, worst,
                       f"pair/Ermakov/moment routes agree; min Q* = {floor:.12g}")


def check_adiabatic_limit(config: EngineConfig) -> CheckResult:
    q = compression_q_star(config, 100.0)
    return CheckResult("adiabatic_limit", abs(q - 1.0) <= 1e-3, abs(q - 1.0),
                       "slow drive approaches Q* = 1")


def check_lcd_exactness(config: EngineConfig) -> CheckResult:
    worst = 0.0
    for tau in (0.05, 0.1, 0.5, 1.0, 5.0):
        for protocol, _ in stroke_pairs(config, tau):
            q = lcd_final_adiabaticity(protocol, config.rel_tol,
                                       config.abs_tol)
            worst = max(worst, abs(q - 1.0))
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
    # cost * tau^2 of (compression, expansion), each from its own bath
    scaled = {tau: [sa_cost_time_average(protocol, initial, config.quad_tol)
                    * tau * tau
                    for protocol, initial in stroke_pairs(config, tau)]
              for tau in (0.1, 1.0, 10.0)}
    worst = max(abs(v - ref) / abs(ref) for row in scaled.values()
                for v, ref in zip(row, scaled[1.0]))
    return CheckResult("cost_scaling", worst <= 1e-8, worst,
                       "time-averaged cost ~ 1/tau^2 at fixed shape")


def check_cost_consistency(config: EngineConfig) -> CheckResult:
    (protocol, cold), _ = stroke_pairs(config, 1.0)
    worst = 0.0
    for t in linspace(0.0, 1.0, 21):
        sample = sample_protocol(protocol, t)
        adiabatic = sample.omega / config.omega1 * cold.mean_energy
        total = lcd_mean_energy(protocol, cold, t)
        aux = sa_energy_instant(sample, cold)
        worst = max(worst, abs(total - adiabatic - aux) / cold.mean_energy)
    return CheckResult("cost_consistency", worst <= 1e-12, worst,
                       "<H + H_sa> = adiabatic energy + auxiliary energy")


def check_fidelity_identity(config: EngineConfig) -> CheckResult:
    worst_f, angle = 0.0, 0.0
    for beta, omega in ((config.beta1, config.omega1),
                        (config.beta2, config.omega2)):
        f = gaussian_fidelity(beta, omega, omega, hbar=config.hbar)
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
    beta = 100.0 / (config.hbar * wa)
    f = gaussian_fidelity(beta, wa, wb, hbar=config.hbar)
    overlap = 2.0 * math.sqrt(wa * wb) / (wa + wb)
    worst = abs(f - overlap)
    return CheckResult("fidelity_zero_t", worst <= 1e-9, worst,
                       "cold limit matches ground-state overlap")


def _sweep_rows(config: EngineConfig):
    rows = [r for r in sweep(config) if not any(
        flag.startswith("error:") for flag in r.flags)]
    return rows


def _no_rows(name: str) -> CheckResult:
    # every grid point errored (e.g. strict mode below tau_c): nothing
    # to check is a failure, not a vacuous pass
    return CheckResult(name, False, math.inf, "no valid rows")


def check_bound_ordering(config: EngineConfig, rows) -> CheckResult:
    """On the rows where the speed-limit premise holds, the bounds
    bracket the shortcut engine and are tighter than the second law:
    eta_sa <= eta_qsl <= eta_ad, p_sa <= p_qsl, and
    eta_qsl <= eta_Carnot = 1 - beta2/beta1 (the efficiency form of the
    abstract's claim, arXiv:1611.09045).
    """
    if not rows:
        return _no_rows("bound_ordering")
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
    if not rows:
        return _no_rows("eta_sa_monotone")
    worst = 0.0
    for a, b in zip(rows, rows[1:]):
        worst = max(worst, a.eta_sa - b.eta_sa)
    return CheckResult("eta_sa_monotone", worst <= 1e-12, max(worst, 0.0),
                       "shortcut efficiency non-decreasing in tau")


def check_power_ordering(config: EngineConfig, rows) -> CheckResult:
    if not rows:
        return _no_rows("power_ordering")
    worst = max(r.p_na - r.p_sa for r in rows)
    return CheckResult("power_ordering", worst <= 1e-12, max(worst, 0.0),
                       "P_SA >= P_NA on the grid")


def check_p_sa_scaling(config: EngineConfig, rows) -> CheckResult:
    if not rows:
        return _no_rows("p_sa_scaling")
    products = [r.p_sa * r.tau for r in rows]
    ref = products[len(products) // 2]
    worst = max(abs(p - ref) / abs(ref) for p in products)
    return CheckResult("p_sa_scaling", worst <= 1e-9, worst,
                       "P_SA * tau constant (work numerator fixed)")


def check_eta_ordering(config: EngineConfig, rows) -> CheckResult:
    if not rows:
        return _no_rows("eta_ordering")
    worst = max(r.eta_sa - r.eta_ad for r in rows)
    return CheckResult("eta_ordering", worst <= 1e-12, max(worst, 0.0),
                       "eta_SA <= eta_AD on the grid")


def check_rescaling_invariance(config: EngineConfig) -> CheckResult:
    # a property of the physics, not of the inversion policy: strict
    # mode would refuse both taus whenever they lie below tau_c
    config = replace(config, strict=False)
    lam = 2.0
    other = rescaled(config, lam)
    worst = 0.0
    for tau in (0.1, 1.0):
        a = run_cycle(config, tau)
        b = run_cycle(other, tau)
        for name in ("q_star_1", "q_star_3", "eta_sa", "eta_na", "eta_ad",
                     "eta_qsl", "bures1", "bures3", "tqsl1", "tqsl3"):
            x, y = getattr(a, name), getattr(b, name)
            worst = max(worst, abs(x - y) / max(abs(x), 1.0))
        for name in ("w1_na", "w3_na", "w1_ad", "w3_ad", "q2_na", "q2_ad",
                     "cost1", "cost3", "p_sa", "p_na", "p_qsl"):
            x, y = getattr(a, name), getattr(b, name)
            worst = max(worst, abs(lam * x - y) / max(abs(x), 1.0))
    return CheckResult("rescaling_invariance", worst <= 1e-12, worst,
                       "hbar -> 2 hbar, beta -> beta/2 leaves physics alone")


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


def run_all_checks(config: EngineConfig) -> list[CheckResult]:
    results = [
        check_config_invariants(config),
        check_protocol_boundary(config),
        check_protocol_midpoint(config),
        check_protocol_scaling(config),
        check_wronskian(config),
        check_ermakov_residual(config),
        check_q_star_routes(config),
        check_adiabatic_limit(config),
        check_lcd_exactness(config),
        check_adiabatic_efficiency(config),
        check_cost_boundary(config),
        check_cost_scaling(config),
        check_cost_consistency(config),
        check_fidelity_identity(config),
        check_fidelity_zero_t(config),
    ]
    rows = _sweep_rows(config)
    results += [
        check_bound_ordering(config, rows),
        check_eta_sa_monotone(config, rows),
        check_power_ordering(config, rows),
        check_p_sa_scaling(config, rows),
        check_eta_ordering(config, rows),
        check_rescaling_invariance(config),
        check_trap_inversion_scan(config),
    ]
    return results
