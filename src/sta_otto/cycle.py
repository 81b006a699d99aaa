"""Four-stroke Otto cycle assembly and parameter sweeps.

One cycle of duration 2 tau: compress the working oscillator from
omega1 to omega2 in time tau (unitary), thermalize fully against the
hot bath at beta2 (isochore), expand back to omega1 in time tau,
thermalize against the cold bath at beta1.  Isochores are taken as
instantaneous, so tau alone sets the pace.

Three variants of the same cycle are evaluated side by side:

  NA  bare quintic drive; stroke works carry the computed Q*,
  AD  ideal quasistatic reference, Q* = 1, no cost,
  SA  shortcut drive: lands on the adiabatic state (work and heat equal
      the AD values) but pays the time-averaged auxiliary cost, which
      enters the efficiency denominator.

Sign convention: work is energy into the oscillator, so an engine has
total work < 0 and efficiencies are -(W1 + W3)/Q2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .config import EngineConfig, tau_grid
from .cost import sa_cost_time_average
from .dynamics import husimi_q_star, solve_linear_pair
from .errors import (NoSignChange, SolverFailure, StaOttoError,
                     TrapInversionError)
from .protocol import (FrequencyProtocol, check_trap_inversion,
                       inversion_threshold, polynomial_ramp)
from .qsl import (BuresData, bures_data, efficiency_bound, power_bound,
                  qsl_time)
from .strokes import (ThermalOscillatorState, engine_condition,
                      heat_sign_threshold, hot_isochore_heat, stroke_work)


@dataclass(frozen=True)
class CycleMetrics:
    """Everything the sweep CSV reports for one cycle duration.

    Field order up to is_engine_na matches the CSV column order.
    """

    tau: float
    q_star_1: float
    q_star_3: float
    w1_na: float
    w3_na: float
    w1_ad: float
    w3_ad: float
    q2_na: float
    q2_ad: float
    cost1: float
    cost3: float
    eta_sa: float
    eta_na: float
    eta_ad: float
    p_sa: float
    p_na: float
    eta_qsl: float
    p_qsl: float
    bures1: float
    bures3: float
    tqsl1: float
    tqsl3: float
    is_engine_na: bool
    flags: tuple[str, ...] = ()

    @property
    def cost_total(self) -> float:
        return self.cost1 + self.cost3


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")


_Stroke = tuple[FrequencyProtocol, ThermalOscillatorState]


def stroke_pairs(config: EngineConfig,
                 tau: float) -> tuple[_Stroke, _Stroke]:
    """((compression ramp, cold state), (expansion ramp, hot state)).

    Each unitary stroke of duration tau starts from the thermal state
    of the bath it just left: the compression from (beta1, omega1),
    the expansion from (beta2, omega2).
    """
    _check_tau(tau)
    cold = ThermalOscillatorState(config.beta1, config.omega1, config.hbar)
    hot = ThermalOscillatorState(config.beta2, config.omega2, config.hbar)
    return ((polynomial_ramp(config.omega1, config.omega2, tau), cold),
            (polynomial_ramp(config.omega2, config.omega1, tau), hot))


def _tagged(tag: str, exc: StaOttoError) -> StaOttoError:
    wrapped = type(exc)(f"{tag} stroke: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def _endpoint_q_star(config: EngineConfig, protocol: FrequencyProtocol,
                     tag: str) -> float:
    try:
        state = solve_linear_pair(protocol, (protocol.duration,),
                                  config.rel_tol, config.abs_tol)[0]
    except StaOttoError as exc:
        raise _tagged(tag, exc)
    return husimi_q_star(protocol.omega_initial, protocol.omega_final, state)


@dataclass(frozen=True)
class CycleConstants:
    """The parts of a cycle that depend on the config but not on tau.

    k1, k3 are the stroke costs times tau^2 (the cost of a fixed ramp
    shape scales exactly as 1/tau^2); tau_c is the inversion threshold
    shared by both strokes; the AD energetics and the Bures geometry of
    the stroke endpoints never see tau at all.
    """

    k1: float
    k3: float
    tau_c: float
    w1_ad: float
    w3_ad: float
    q2_ad: float
    geo1: BuresData
    geo3: BuresData


@functools.lru_cache(maxsize=128)
def cycle_constants(config: EngineConfig) -> CycleConstants:
    """Build (once per config) the tau-independent part of run_cycle."""
    (compression, cold), (expansion, hot) = stroke_pairs(config, 1.0)
    try:
        k1 = sa_cost_time_average(compression, cold, config.quad_tol)
    except StaOttoError as exc:
        raise _tagged("compression", exc)
    try:
        k3 = sa_cost_time_average(expansion, hot, config.quad_tol)
    except StaOttoError as exc:
        raise _tagged("expansion", exc)
    return CycleConstants(
        k1=k1, k3=k3,
        tau_c=inversion_threshold(config.omega1, config.omega2),
        w1_ad=stroke_work(1.0, config.omega1, config.omega2, config.beta1,
                          config.hbar),
        w3_ad=stroke_work(1.0, config.omega2, config.omega1, config.beta2,
                          config.hbar),
        q2_ad=hot_isochore_heat(1.0, config),
        geo1=bures_data(cold, config.omega2),
        geo3=bures_data(hot, config.omega1))


def run_cycle(config: EngineConfig, tau: float) -> CycleMetrics:
    """Evaluate all three cycle variants plus speed-limit bounds at tau.

    One ODE solve per call: the expansion ramp is the time reverse of
    the compression ramp, so its transfer matrix is J M^-1 J and
    Husimi's formula gives it the same Q* (Husimi, Prog. Theor. Phys.
    9, 381 (1953)).  Everything else tau-independent comes from
    cycle_constants.
    """
    _check_tau(tau)
    const = cycle_constants(config)
    compression = polynomial_ramp(config.omega1, config.omega2, tau)

    flags: list[str] = []
    if tau <= const.tau_c:
        if config.strict:
            report = check_trap_inversion(compression)
            raise TrapInversionError(
                f"inversion_1: effective frequency squared reaches "
                f"{report.min_omega_eff_sq!r} at t = {report.argmin_t!r}")
        flags += ["inversion_1", "inversion_3"]

    q1 = _endpoint_q_star(config, compression, "compression")
    q3 = q1

    w1_na = stroke_work(q1, config.omega1, config.omega2, config.beta1,
                        config.hbar)
    w3_na = stroke_work(q3, config.omega2, config.omega1, config.beta2,
                        config.hbar)
    w1_ad, w3_ad, q2_ad = const.w1_ad, const.w3_ad, const.q2_ad
    q2_na = hot_isochore_heat(q1, config)
    cost1 = const.k1 / (tau * tau)
    cost3 = const.k3 / (tau * tau)

    w_na = w1_na + w3_na
    w_ad = w1_ad + w3_ad
    eta_ad = -w_ad / q2_ad
    eta_na = -w_na / q2_na if q2_na != 0.0 else math.inf
    eta_sa = -w_ad / (q2_ad + cost1 + cost3)
    p_na = -w_na / (2.0 * tau)
    p_sa = -w_ad / (2.0 * tau)

    geo1, geo3 = const.geo1, const.geo3
    tqsl1 = qsl_time(geo1.angle, cost1, config.hbar)
    tqsl3 = qsl_time(geo3.angle, cost3, config.hbar)
    eta_qsl = efficiency_bound(w_ad, q2_ad, geo1.angle + geo3.angle, tau,
                               config.hbar)
    p_qsl = power_bound(w_ad, tqsl1, tqsl3)
    # the time bounds presume the auxiliary driving dominates; outside
    # that regime the ordering theorems carry no weight
    if tqsl1 > tau:
        flags.append("qsl_premise_1")
    if tqsl3 > tau:
        flags.append("qsl_premise_3")

    is_engine_na = engine_condition(w_na, q2_na)
    if not is_engine_na:
        flags.append("not_engine_na")

    return CycleMetrics(
        tau=tau, q_star_1=q1, q_star_3=q3,
        w1_na=w1_na, w3_na=w3_na, w1_ad=w1_ad, w3_ad=w3_ad,
        q2_na=q2_na, q2_ad=q2_ad, cost1=cost1, cost3=cost3,
        eta_sa=eta_sa, eta_na=eta_na, eta_ad=eta_ad,
        p_sa=p_sa, p_na=p_na, eta_qsl=eta_qsl, p_qsl=p_qsl,
        bures1=geo1.angle, bures3=geo3.angle, tqsl1=tqsl1, tqsl3=tqsl3,
        is_engine_na=is_engine_na, flags=tuple(flags))


def _error_row(tau: float, exc: StaOttoError) -> CycleMetrics:
    tag = f"error:{type(exc).__name__}:{exc}"
    z = 0.0
    return CycleMetrics(
        tau=tau, q_star_1=z, q_star_3=z, w1_na=z, w3_na=z, w1_ad=z,
        w3_ad=z, q2_na=z, q2_ad=z, cost1=z, cost3=z, eta_sa=z, eta_na=z,
        eta_ad=z, p_sa=z, p_na=z, eta_qsl=z, p_qsl=z, bures1=z, bures3=z,
        tqsl1=z, tqsl3=z, is_engine_na=False, flags=(tag,))


def sweep(config: EngineConfig) -> list[CycleMetrics]:
    """run_cycle over the configured tau grid, one row per point.

    A failing point is recorded in-row with an error tag (all numeric
    fields zeroed, never NaN) and the sweep continues; row order is the
    grid order regardless of how points are evaluated.
    """
    rows = []
    for tau in tau_grid(config):
        try:
            rows.append(run_cycle(config, tau))
        except StaOttoError as exc:
            rows.append(_error_row(tau, exc))
    return rows


def _bracket_root(fn, bracket: Sequence[float], what: str) -> float:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("bracket must satisfy 0 < lo < hi < inf")
    from scipy.optimize import brentq

    try:
        return float(brentq(fn, lo, hi, rtol=1e-6))
    except ValueError as exc:
        raise NoSignChange(
            f"{what} does not change sign on ({lo!r}, {hi!r})") from exc
    except RuntimeError as exc:
        raise SolverFailure(
            f"{what}: root search on ({lo!r}, {hi!r}) did not converge: "
            f"{exc}") from exc


def find_efficiency_crossover(config: EngineConfig,
                              bracket: Sequence[float]) -> float:
    """tau* where eta_sa - eta_na changes sign inside the bracket.

    For smooth ramps the auxiliary cost scales as 1/tau^2, so at short
    times it crushes the shortcut efficiency while the bare drive, whose
    Q* saturates at the sudden value, can keep a finite efficiency: the
    bare drive wins below the root, the shortcut above it.  At very long
    times the bare deficit (decaying much faster than 1/tau^2) undercuts
    the cost penalty again, so a second, far-out root may exist; widen
    the bracket to look for it.
    """
    def gap(tau: float) -> float:
        metrics = run_cycle(config, tau)
        return metrics.eta_sa - metrics.eta_na

    return _bracket_root(gap, bracket, "eta_sa - eta_na")


def compression_q_star(config: EngineConfig, tau: float) -> float:
    """Endpoint Q* of the compression stroke alone (cheap sweep helper)."""
    (compression, _), _ = stroke_pairs(config, tau)
    return _endpoint_q_star(config, compression, "compression")


def find_heat_sign_threshold(config: EngineConfig,
                             bracket: Sequence[float]) -> float:
    """tau where the hot-bath heat of the bare cycle changes sign.

    Solves Q*1(tau) = coth(beta2 hbar omega2 / 2)/coth(beta1 hbar
    omega1 / 2); beyond it the bare machine pushes heat back into the
    hot bath and stops being an engine.  Raises NoSignChange when the
    bare drive never gets bad enough inside the bracket, which is the
    generic situation for smooth ramps whose Q* saturates below the
    threshold.
    """
    level = heat_sign_threshold(config)

    def gap(tau: float) -> float:
        return compression_q_star(config, tau) - level

    return _bracket_root(gap, bracket, "q_star_1 - heat-sign threshold")


def rescaled(config: EngineConfig, lam: float) -> EngineConfig:
    """hbar -> lam*hbar, beta -> beta/lam: energies scale by lam,
    every dimensionless output must be untouched."""
    if lam <= 0.0:
        raise ValueError("rescaling factor must be positive")
    return replace(config, hbar=lam * config.hbar,
                   beta1=config.beta1 / lam, beta2=config.beta2 / lam)
