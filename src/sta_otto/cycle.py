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
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .config import EngineConfig, check_stroke_phase, tau_grid
from .cost import sa_cost_time_average
from .dynamics import (SERIES_PHASE, magnus_pair, q_star_excess,
                       series_pair_state, solve_linear_pair,
                       sudden_pair_series)
from .errors import (NoSignChange, SolverFailure, StaOttoError,
                     TrapInversionError)
from .protocol import (FrequencyProtocol, inversion_threshold, omega_of,
                       polynomial_ramp)
from .qsl import bures_angle, efficiency_bound, power_bound, qsl_time
from .strokes import (ThermalOscillatorState, engine_condition,
                      heat_sign_threshold, hot_isochore_heat, stroke_work)


# flag prefix of a sweep point that raised; CycleMetrics.failed reads it
_ERROR_TAG = "error:"


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

    @property
    def failed(self) -> bool:
        """True for a sweep point recorded by _error_row."""
        return any(flag.startswith(_ERROR_TAG) for flag in self.flags)


def _check_tau(config: EngineConfig, tau: float) -> None:
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    check_stroke_phase(config.omega2 * tau, "tau", tau)


_Stroke = tuple[FrequencyProtocol, ThermalOscillatorState]


def stroke_pairs(config: EngineConfig,
                 tau: float) -> tuple[_Stroke, _Stroke]:
    """((compression ramp, cold state), (expansion ramp, hot state)).

    Each unitary stroke of duration tau starts from the thermal state
    of the bath it just left: the compression from (beta1, omega1),
    the expansion from (beta2, omega2).
    """
    _check_tau(config, tau)
    return ((polynomial_ramp(config.omega1, config.omega2, tau), config.cold),
            (polynomial_ramp(config.omega2, config.omega1, tau), config.hot))


@dataclass(frozen=True)
class CycleConstants:
    """The parts of a cycle that depend on the config but not on tau.

    k1, k3 are the stroke costs times tau^2 (the cost of a fixed ramp
    shape scales exactly as 1/tau^2); tau_c is the inversion threshold
    shared by both strokes; the AD energetics and the Bures angles of
    the stroke endpoints never see tau at all.

    Integrated by parts, a stroke's cost is (E0/omega0) J / tau^2 with
    E0/omega0 = (hbar/2) nu of its starting state and
    J = int_0^1 w_s^2/(4 w^3) ds.  The expansion ramp is the compression
    ramp run backwards, which leaves J unchanged, so k3 = k1 nu_hot /
    nu_cold needs no second quadrature.
    """

    k1: float
    k3: float
    tau_c: float
    w1_ad: float
    w3_ad: float
    q2_ad: float
    angle1: float
    angle3: float


@functools.lru_cache(maxsize=128)
def cycle_constants(config: EngineConfig) -> CycleConstants:
    """Build (once per config) the tau-independent part of run_cycle."""
    (compression, cold), (_, hot) = stroke_pairs(config, 1.0)
    k1 = sa_cost_time_average(compression, cold)
    return CycleConstants(
        k1=k1, k3=k1 * hot.nu / cold.nu,
        tau_c=inversion_threshold(config.omega1, config.omega2),
        w1_ad=stroke_work(1.0, cold, config.omega2),
        w3_ad=stroke_work(1.0, hot, config.omega1),
        q2_ad=hot_isochore_heat(1.0, cold, hot),
        angle1=bures_angle(cold, config.omega2),
        angle3=bures_angle(hot, config.omega1))


def _refuse_inversion(config: EngineConfig, tau: float, tau_c: float) -> None:
    """Strict mode refuses a stroke at or below the inversion threshold."""
    if config.strict and tau <= tau_c:
        raise TrapInversionError(
            f"inversion_1: tau = {tau!r} is at or below the "
            f"trap-inversion threshold tau_c = {tau_c!r}")


def run_cycle(config: EngineConfig, tau: float) -> CycleMetrics:
    """Evaluate all three cycle variants plus speed-limit bounds at tau.

    One Q* solve per call, compression_q_star_excess: the expansion
    ramp is the time reverse of the compression ramp, and time reversal
    leaves the endpoint Q* unchanged, so Q*3 = Q*1.  Strict mode
    refuses a stroke at or below the inversion threshold before the
    solve; the rest is cycle_from_q_star.
    """
    _check_tau(config, tau)
    _refuse_inversion(config, tau, cycle_constants(config).tau_c)
    return cycle_from_q_star(config, tau,
                             1.0 + compression_q_star_excess(config, tau))


def cycle_from_q_star(config: EngineConfig, tau: float,
                      q_star_1: float) -> CycleMetrics:
    """run_cycle at tau with the compression's Q*1 given, in closed form.

    Q* enters only the q_star columns (Q*3 = Q*1) and the bare (NA)
    works, heat, efficiency, power and engine flag; every other column,
    the speed-limit bounds included, reads only tau and cycle_constants.
    Strict mode refuses a tau at or below the inversion threshold.
    """
    _check_tau(config, tau)
    const = cycle_constants(config)

    _refuse_inversion(config, tau, const.tau_c)
    flags = ["inversion_1", "inversion_3"] if tau <= const.tau_c else []

    q1 = q3 = q_star_1

    w1_na = stroke_work(q1, config.cold, config.omega2)
    w3_na = stroke_work(q3, config.hot, config.omega1)
    w1_ad, w3_ad, q2_ad = const.w1_ad, const.w3_ad, const.q2_ad
    q2_na = hot_isochore_heat(q1, config.cold, config.hot)
    cost1 = const.k1 / (tau * tau)
    cost3 = const.k3 / (tau * tau)

    w_na = w1_na + w3_na
    w_ad = w1_ad + w3_ad
    eta_ad = -w_ad / q2_ad
    eta_na = -w_na / q2_na if q2_na != 0.0 else math.inf
    eta_sa = -w_ad / (q2_ad + cost1 + cost3)
    p_na = -w_na / (2.0 * tau)
    p_sa = -w_ad / (2.0 * tau)

    angle1, angle3 = const.angle1, const.angle3
    tqsl1 = qsl_time(angle1, cost1, config.hbar)
    tqsl3 = qsl_time(angle3, cost3, config.hbar)
    eta_qsl = efficiency_bound(w_ad, q2_ad, angle1 + angle3, tau,
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
        bures1=angle1, bures3=angle3, tqsl1=tqsl1, tqsl3=tqsl3,
        is_engine_na=is_engine_na, flags=tuple(flags))


def _error_row(tau: float, exc: StaOttoError) -> CycleMetrics:
    tag = f"{_ERROR_TAG}{type(exc).__name__}:{exc}"
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


def _check_bracket(config: EngineConfig,
                   bracket: Sequence[float]) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("bracket must satisfy 0 < lo < hi < inf")
    # the search reads lo as exp(ln lo), which may sit an ulp below it
    check_stroke_phase(config.omega2 * math.exp(math.log(lo)),
                       "bracket end lo", lo)
    return lo, hi


# iteration cap of a root search, and of the false-position loop that
# finds each model root; a search that reaches it raises SolverFailure
_ROOT_ITERATIONS = 100
# a search stops once its iterate moves less than this in ln tau, and
# each model root is found to within _MODEL_XTOL
_ROOT_XTOL = 1e-6
_MODEL_XTOL = 1e-12


def _root_in_ln_tau(config: EngineConfig,
                    level: Callable[[float], float],
                    lo: float, hi: float, what: str) -> float:
    """Root of q(s) = level(s) on (ln lo, ln hi), s = ln tau, where
    q(s) = ln(Q*1(e^s) - 1) costs one compression_q_star_excess solve
    and the level is closed form.

    After a solve at each bracket end, q is modelled as shape(s) plus the
    residual r = q - shape: first the constant r(ln lo), anchored on the
    sudden side, then the line through the residuals of the two latest
    solves.  The next iterate is the root of model = level inside the
    sign-change bracket, found without a solve by capped false position
    (the Illinois variant) to within 1e-12 in ln tau, in about 11
    evaluations of the model where bisection took 58.  The search
    bisects the bracket instead when the model has no root in it, or
    only a sign change where it jumps (it must vanish there to within
    1e-6), or when two steps in a row halved neither the bracket nor
    the step.  It stops once the iterate moves less than 1e-6 in ln
    tau, a relative tolerance of 1e-6 in tau.

    shape is _sudden_shape(config): q of the sudden-side series of the
    pair, flat past the series' trust region.  Where a root lies inside
    that region the first model root already sits within 1e-6 of it, so
    the search ends after one solve past the bracket ends: 3 solves per
    root on the benchmark's study region.  With a flat shape the model
    is the line through the latest solves: near a root q varies several
    times more slowly than the level (7x at the default config's short
    root), so it settles in about 6 solves, where Brent's method on the
    whole gap as a black box takes 9.8 (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).  Every q the search
    compares with the level is a solve, the bracket keeps the sign
    change, and a jump of the shape is no model root, so a wrong shape
    costs solves but does not move a root past the tolerance: a shape
    that jumps by 0.3 anywhere from tau = 0.12 to 0.25 finds the
    default config's root, where a bisected model stopped at the jump
    for 7 of 14 such jumps.  A solve that ties the level exactly counts
    as below it, which keeps a sign-change bracket too.  q reads the
    solve's own Q*1 - 1, never 1 + (Q*1 - 1), so it keeps its relative
    accuracy on long strokes, where Q*1 - 1 falls far below the float
    spacing near 1; an excess that underflows to 0 is taken as the
    smallest normal float.  A non-finite q or the iteration cap raises
    SolverFailure.
    """
    shape = _sudden_shape(config)

    def failure(reason: str) -> SolverFailure:
        return SolverFailure(f"{what}: root search on ({lo!r}, {hi!r}) "
                             f"did not converge: {reason}")

    def solve(s: float) -> float:
        excess = compression_q_star_excess(config, math.exp(s))
        q = math.log(max(excess, sys.float_info.min))
        if not math.isfinite(q):
            raise failure(f"ln(Q*1 - 1) = {q!r} at tau = {math.exp(s)!r}")
        return q

    def model_root(s0: float, r0: float, slope: float,
                   a: float, b: float) -> float | None:
        """Root of shape(s) + r0 + slope (s - s0) = level(s) inside
        (a, b), or None: false position that halves the value at an end
        kept twice in a row (Illinois), and bisects where rounding puts
        the secant outside the bracket; it stops once the bracket or the
        step falls below _MODEL_XTOL."""
        def h(s: float) -> float:
            return shape(s) + r0 + slope * (s - s0) - level(s)
        ha, hb = h(a), h(b)
        if not (ha < 0.0 < hb or hb < 0.0 < ha):
            return None
        # replaced: the end the last step moved, "a", "b" or None
        s, replaced = a, None
        for _ in range(_ROOT_ITERATIONS):
            s_prev, s = s, (a * hb - b * ha) / (hb - ha)
            if not a < s < b:
                s = 0.5 * (a + b)
            if b - a <= _MODEL_XTOL or abs(s - s_prev) <= _MODEL_XTOL:
                break
            hs = h(s)
            if (hs < 0.0) == (ha < 0.0):
                if replaced == "a":
                    hb *= 0.5
                a, ha, replaced = s, hs, "a"
            else:
                if replaced == "b":
                    ha *= 0.5
                b, hb, replaced = s, hs, "b"
        # a sign change where the model jumps is no root of it
        return s if abs(h(s)) <= _ROOT_XTOL else None

    a, b = math.log(lo), math.log(hi)
    qa, qb = solve(a), solve(b)
    ga, gb = qa - level(a), qb - level(b)
    if (ga > 0.0) == (gb > 0.0):
        raise NoSignChange(f"{what} does not change sign on ({lo!r}, {hi!r})")
    # the bracket (a, b) keeps ga and gb on opposite sides of 0
    s_last, r_last, slope = a, qa - shape(a), 0.0
    step_last, stalls = b - a, 0
    for _ in range(_ROOT_ITERATIONS):
        s = model_root(s_last, r_last, slope, a, b) if stalls < 2 else None
        if s is None:
            s = 0.5 * (a + b)
        step = abs(s - s_last)
        if step < _ROOT_XTOL:
            return math.exp(s)
        q = solve(s)
        g = q - level(s)
        width = b - a
        if (g > 0.0) == (ga > 0.0):
            a, ga = s, g
        else:
            b = s
        # progress: the bracket or the step halved
        if b - a <= 0.5 * width or step <= 0.5 * step_last:
            stalls = 0
        else:
            stalls += 1
        r = q - shape(s)
        slope = (r - r_last) / (s - s_last)
        s_last, r_last, step_last = s, r, step
    raise failure(f"no convergence in {_ROOT_ITERATIONS} iterations")


def _sudden_shape(config: EngineConfig) -> Callable[[float], float]:
    """s -> ln(Q*1 - 1) at tau = e^s from the sudden-side series of the
    compression pair, held at its value at the series' trust limit
    (phase max(omega) tau = SERIES_PHASE) for longer strokes: the shape
    of the root searches' model, built in about 0.2 ms per config.

    It reads Q*1 - 1 as q_star_excess, as compression_q_star_excess
    does, so it stays positive and accurate near omega2/omega1 = 1.
    The series is a model and an oracle, not yet a production Q*: it
    meets DOP853's 1e-8 only on short strokes, which DOP853 still
    solves in production (ROADMAP item 12); longer ones take the Magnus
    kernel.
    """
    w1, w2 = config.omega1, config.omega2
    series = sudden_pair_series(w1, w2)
    s_trust = math.log(SERIES_PHASE / w2)

    def shape(s: float) -> float:
        state = series_pair_state(series, math.exp(min(s, s_trust)))
        return math.log(max(q_star_excess(w1, w2, state),
                            sys.float_info.min))

    return shape


def find_efficiency_crossover(config: EngineConfig,
                              bracket: Sequence[float]) -> float:
    """tau* where eta_sa = eta_na inside the bracket.

    For smooth ramps the auxiliary cost scales as 1/tau^2, so at short
    times it crushes the shortcut efficiency while the bare drive, whose
    Q* saturates at the sudden value, can keep a finite efficiency: the
    bare drive wins below the root, the shortcut above it.  At very long
    times the bare deficit (decaying much faster than 1/tau^2) undercuts
    the cost penalty again, so a second, far-out root may exist; widen
    the bracket to look for it.

    The root is a level crossing of the compression Q*.  eta_na is a
    Mobius function of Q*1, strictly decreasing on the engine branch
    1 <= Q*1 < nu_hot/nu_cold, and equals eta_sa(tau) where Q*1 = Q_sa:

        Q_sa - 1 = (nu_hot - nu_cold) (omega2 - omega1)
                   / (omega2 nu_cold + omega1 nu_hot
                      + omega1 (nu_cold + nu_hot) y),

    with y = q2_ad tau^2 / (k1 + k3), the adiabatic heat over the
    driving cost (eta_sa = eta_ad y / (1 + y)).  The search
    (_root_in_ln_tau) solves ln(Q*1 - 1) = ln(Q_sa - 1) in ln tau: only
    the left side costs a Q* solve, the level is closed form, and the
    left side is modelled on the sudden-side series of the pair, so a
    root below max(omega) tau = 2 takes 3 solves (6 with the line model
    alone, 7 for the default's far root).  Past the heat-sign pole
    Q*1 = nu_hot/nu_cold the bare cycle is no engine and eta_na > 1 >
    eta_sa, so eta_sa - eta_na changes sign at the pole without a
    crossing; the level form does not see the pole.  Strict mode
    refuses a bracket that starts at or below the inversion threshold.
    """
    lo, hi = _check_bracket(config, bracket)
    _refuse_inversion(config, lo, cycle_constants(config).tau_c)
    return _root_in_ln_tau(config, _crossover_level(config), lo, hi,
                           "eta_sa - eta_na (engine branch)")


def _crossover_level(config: EngineConfig) -> Callable[[float], float]:
    """s -> ln(Q_sa - 1) at tau = e^s, the closed-form side of the
    crossover search.

    Q_sa - 1 = num / (a + c tau^2), with num = (nu_hot - nu_cold)
    (omega2 - omega1), a = omega2 nu_cold + omega1 nu_hot and
    c = omega1 (nu_cold + nu_hot) q2_ad / (k1 + k3).  A tau whose
    square overflows gives a level of -inf, not an OverflowError.
    """
    const = cycle_constants(config)
    nu_cold, nu_hot = config.cold.nu, config.hot.nu
    w1, w2 = config.omega1, config.omega2
    ln_num = math.log((nu_hot - nu_cold) * (w2 - w1))
    a = w2 * nu_cold + w1 * nu_hot
    c = w1 * (nu_cold + nu_hot) * const.q2_ad / (const.k1 + const.k3)

    def level(s: float) -> float:
        tau = math.exp(s)
        return ln_num - math.log(a + c * tau * tau)

    return level


def compression_q_star_excess(config: EngineConfig, tau: float) -> float:
    """Endpoint Q* - 1 of the compression stroke: one ODE solve, the unit
    of work of run_cycle, of both root searches and of validate's
    adiabatic limit and q_star_routes.  It is the program's one
    production Q* solve, and the one place that picks its route: the
    pure-Python Magnus kernel past the phase max(omega) tau =
    SERIES_PHASE, and at or below it the DOP853 solve_linear_pair,
    until the sudden-side series takes those strokes (ROADMAP item 12).
    validate's q_star_routes holds its value to an independent DOP853
    pair at t = tau, whichever route it took.  The state is read as
    q_star_excess: a sum of squares, so Q* >= 1 holds exactly, and
    returned without adding 1, so Q* - 1 keeps its relative accuracy on
    long strokes, where it falls far below the float spacing near 1."""
    _check_tau(config, tau)
    w1, w2 = config.omega1, config.omega2
    ramp = polynomial_ramp(w1, w2, tau)
    if max(w1, w2) * tau > SERIES_PHASE:
        omega = omega_of(ramp)
        state = magnus_pair(lambda t: omega(t) ** 2, tau, max(w1, w2))
    else:
        state = solve_linear_pair(ramp, (tau,))[0]
    return q_star_excess(w1, w2, state)


def find_heat_sign_threshold(config: EngineConfig,
                             bracket: Sequence[float]) -> float:
    """tau where the hot-bath heat of the bare cycle changes sign.

    Solves Q*1(tau) = nu_hot/nu_cold, with nu = coth(beta hbar omega / 2)
    of each bath; beyond it the bare machine pushes heat back into the
    hot bath and stops being an engine.  The search is the crossover's,
    ln(Q*1 - 1) = ln(nu_hot/nu_cold - 1) in ln tau with the same series
    shape, but with a constant level (the config makes nu_hot >
    nu_cold).  Raises NoSignChange when the
    bare drive never gets bad enough inside the bracket, which is the
    generic situation for smooth ramps whose Q* saturates below the
    threshold.  The root is a property of the bare ramp, whose
    omega(t) stays positive: its trap never inverts, so strict mode,
    which refuses the shortcut's inverted trap, does not restrict this
    search.
    """
    ln_level = math.log(heat_sign_threshold(config.cold, config.hot) - 1.0)
    return _root_in_ln_tau(config, lambda s: ln_level,
                           *_check_bracket(config, bracket),
                           "q_star_1 - heat-sign threshold")


def rescaled(config: EngineConfig, lam: float) -> EngineConfig:
    """hbar -> lam*hbar, beta -> beta/lam: energies scale by lam,
    every dimensionless output must be untouched."""
    if lam <= 0.0:
        raise ValueError("rescaling factor must be positive")
    return replace(config, hbar=lam * config.hbar,
                   beta1=config.beta1 / lam, beta2=config.beta2 / lam)
