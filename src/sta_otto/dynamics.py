"""Classical dynamics of the time-dependent harmonic oscillator.

Everything about a driven stroke follows from the two fundamental
solutions of

    f'' + omega(t)^2 f = 0,    X(0)=0, X'(0)=1,   Y(0)=1, Y'(0)=0,

whose Wronskian Y X' - Y' X stays exactly 1.  The scaling factor

    b(t) = sqrt(Y^2 + omega0^2 X^2)

solves the Ermakov equation b'' + omega^2 b = omega0^2 / b^3 with
b(0)=1, b'(0)=0, and the adiabaticity parameter (actual over adiabatic
mean energy of an initially thermal oscillator) is

    Q*(t) = 1 + [(omega0 omega_t X + Y')^2 + (omega0 X' - omega_t Y)^2]
                / (2 omega0 omega_t),

the q_star_excess of the state plus 1.  Husimi's form
[omega0^2 (omega_t^2 X^2 + X'^2) + omega_t^2 Y^2 + Y'^2]
/ (2 omega0 omega_t) is W plus the same squares for any state, so the
two agree on the true pair.  This is the definition because the
solver's error enters Husimi's Q* - 1 linearly, through W - 1 (-1.25e-9
at tau = 1000, where Q* - 1 is 1.2e-13), but enters the squares only
times the small deviation itself; and Q* >= 1, so P_NA <= P_SA, holds
by construction.

Three routes to Q* are exposed: the linear pair directly, the
closed-form Ermakov transform of the pair, and an independent
integration of the second moments.  They must agree; validate's
q_star_routes holds them to 1e-8 of each other, and holds the
production Q*1 (cycle.compression_q_star_excess, which takes
magnus_pair, the pure-Python fourth-order Magnus kernel, past phase
SERIES_PHASE) to the DOP853 pair at t = tau on the compression
strokes.  The Ermakov route is not independent of the pair:
Q*_erk - Q*_pair = (W - 1) + omega0 (1 - W^2) / (2 omega_t b^2), the
second term being its difference from Husimi's form, so it restates
W = 1; the second moments are the independent route.

For the quintic ramp the pair at t = tau is also an entire function of
tau^2, and sudden_pair_series gives its power series, SERIES_TERMS
Picard terms past the sudden quench.  Within the trust phase
max(omega) tau <= SERIES_PHASE it matches DOP853 to 5e-7 relative in
Q* - 1 at omega2/omega1 from 2 to 100, and to 6e-6 at 1.001.  It is
the root searches' model of Q*1 and the sudden-side oracle of
validate's adiabatic_limit, not yet a production Q*: the strokes it
covers are solved by DOP853 (ROADMAP item 12).  q_star_excess is no
model: it reads every pair state, the solvers', the kernel's and the
series' alike.

Each solver integrates the whole stroke and returns its state only at
the requested times, as a list of plain tuples; every caller knows
those times before the solve, and the production cycle asks for
t = tau alone.  The formulas that read a state (q_star_excess,
wronskian, ermakov_from_linear, adiabaticity_from_ermakov,
moment_q_star) are pure functions of it.

The solve_* solvers use an adaptive embedded Runge-Kutta of order 8
(DOP853) at fixed tolerances, 1e-10 relative and 1e-12 absolute, which
keep Q* - 1 resolvable down to ~1e-6 in the adiabatic regime; each
takes only the stroke, the times and what its equations read.
magnus_pair has no tolerance: its step count grows with the phase.  A
stroke of MAX_STROKE_PHASE rad or more is refused by every solver
before any step is taken, and a floating-point overflow or invalid
value inside a DOP853 solve raises SolverFailure instead of a
RuntimeWarning.  A thermal start is a ThermalOscillatorState, which
owns its occupation factor.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

from .cost import check_start_frequency
from .errors import SolverFailure
from .protocol import (RAMP_SHAPE, FrequencyProtocol, omega_of,
                       sample_protocol)
from .strokes import ThermalOscillatorState

PairState = tuple[float, float, float, float]   # (X, X', Y, Y')

# DOP853's relative and absolute tolerances in every solve_* solver
_RTOL = 1e-10
_ATOL = 1e-12

# phase max(omega) tau at which a solve is refused: the work of DOP853
# and of magnus_pair grows with it (2 s and 0.3 s for 1e4 rad on a
# 2-vCPU host), so tau = 1e8 takes hours.  config.MIN_STROKE_PHASE is
# its short-side mirror
MAX_STROKE_PHASE = 1e5

# Picard terms of sudden_pair_series past the sudden quench, and the
# phase max(omega) tau up to which the series is trusted.  Relative to
# DOP853, the series' q_star_excess is off by 2.9e-10 at phase 1 and
# 3.0e-7 at phase 2 at omega2/omega1 = 3.125, by 2.4e-10 and 2.1e-7 at
# 100, and by 5.4e-8 and 5.2e-6 at 1.001
SERIES_TERMS = 4
SERIES_PHASE = 2.0


# the abscissae of two-point Gauss-Legendre quadrature on a unit step sit
# at 1/2 -+ _GAUSS_OFFSET, and the fourth-order Magnus exponent weighs the
# commutator of the two samples by _MAGNUS_COMMUTATOR h^2
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0


def _check_phase(omega_max: float, duration: float) -> None:
    phase = omega_max * duration
    if phase >= MAX_STROKE_PHASE:
        raise SolverFailure(
            f"stroke phase max(omega) tau = {phase:.6g} rad reaches the "
            f"solver budget of {MAX_STROKE_PHASE:g} rad")


def _integrate(rhs, y0, protocol: FrequencyProtocol,
               times: Sequence[float]) -> list[tuple[float, ...]]:
    """Integrate over the stroke at _RTOL and _ATOL; the states at the
    increasing times, each read from the interpolant of the step that
    contains it."""
    duration = protocol.duration
    _check_phase(max(protocol.omega_initial, protocol.omega_final), duration)
    from scipy.integrate import solve_ivp

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = solve_ivp(rhs, (0.0, duration), y0, "DOP853", t_eval=times,
                            rtol=_RTOL, atol=_ATOL)
        except RuntimeWarning as exc:
            raise SolverFailure(f"floating-point failure: {exc}") from exc
    if not sol.success:
        raise SolverFailure(
            f"integration stalled before t = {duration!r}: {sol.message}")
    return [tuple(state) for state in sol.y.T.tolist()]


def solve_linear_pair(protocol: FrequencyProtocol,
                      times: Sequence[float]) -> list[PairState]:
    """(X, X', Y, Y') of the fundamental pair for the bare frequency
    omega(t), at each of the times (within [0, duration], increasing)."""
    omega = omega_of(protocol)

    def rhs(t, y):
        w2 = omega(t) ** 2
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    return _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol, times)


def magnus_pair(omega_sq: Callable[[float], float], duration: float,
                omega_max: float) -> PairState:
    """(X, X', Y, Y') of the fundamental pair of f'' + omega_sq(t) f = 0
    at t = duration, from N = 128 + ceil(32 omega_max duration) steps of
    the fourth-order Magnus method on two Gauss points (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)).

    With A(t) = [[0, 1], [-omega_sq(t), 0]] sampled as A1, A2 at the
    step's Gauss points, the step's exponent is
    Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1], and
    [A2, A1] = diag(a2 - a1, a1 - a2) with a = omega_sq.  Omega is
    traceless, so exp(Omega) = cos(r) I + sin(r)/r Omega with
    r^2 = det Omega, or cosh and sinh of |r| where det Omega < 0, and
    every step has determinant 1 up to rounding: no step can drift the
    Wronskian.  The transfer matrix M of the stroke holds the pair as
    X = M01, X' = M11, Y = M00, Y' = M10.  omega_max, the largest
    frequency of the stroke, sets the step count, so that every step
    spans at most 1/32 rad; a stroke of MAX_STROKE_PHASE rad or more is
    refused before the first step.  Pure Python, with no tolerance.
    """
    _check_phase(omega_max, duration)
    n = 128 + math.ceil(32.0 * omega_max * duration)
    h = duration / n
    first, second = (0.5 - _GAUSS_OFFSET) * h, (0.5 + _GAUSS_OFFSET) * h
    commutator = _MAGNUS_COMMUTATOR * h * h
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for k in range(n):
        t = k * h
        a1, a2 = omega_sq(t + first), omega_sq(t + second)
        # Omega = [[c, h], [b, -c]]
        c = commutator * (a2 - a1)
        b = -0.5 * h * (a1 + a2)
        det = -c * c - h * b
        if det > 0.0:
            r = math.sqrt(det)
            cos_r, sinc_r = math.cos(r), math.sin(r) / r
        elif det < 0.0:
            r = math.sqrt(-det)
            cos_r, sinc_r = math.cosh(r), math.sinh(r) / r
        else:
            cos_r, sinc_r = 1.0, 1.0
        e00, e01 = cos_r + sinc_r * c, sinc_r * h
        e10, e11 = sinc_r * b, cos_r - sinc_r * c
        m00, m01, m10, m11 = (e00 * m00 + e01 * m10, e00 * m01 + e01 * m11,
                              e10 * m00 + e11 * m10, e10 * m01 + e11 * m11)
    return m01, m11, m00, m10


def solve_effective_pair(protocol: FrequencyProtocol,
                         times: Sequence[float]) -> list[PairState]:
    """Fundamental pair for the shortcut's effective frequency Omega(t).

    Omega^2 may be negative mid-protocol (trap inversion); the linear
    equation integrates through it without special handling.
    """

    def rhs(t, y):
        w2 = sample_protocol(protocol, t).omega_eff_sq
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    return _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol, times)


def sudden_pair_series(omega_initial: float, omega_final: float
                       ) -> tuple[tuple[float, ...], ...]:
    """Coefficients of the quintic ramp's pair at t = tau as power
    series in tau^2: the lists for (X/tau, X', Y, Y'/tau), each of
    SERIES_TERMS + 1 coefficients, lowest power first.

    In s = t/tau the pair solves f_ss = -tau^2 omega(s)^2 f, so X/tau
    and Y are power series in tau^2 whose terms are polynomials in s.
    They come by Picard iteration, x_(n+1) = -int_0^s int_0^s'
    omega^2 x_n, from x_0 = s and y_0 = 1; each term's value and slope
    at s = 1 is a coefficient.  The tau^2 term of Husimi's Q* is then
    the closed form c2 of the sudden-side Dyson expansion.  The
    coefficients depend on the ramp alone, and series_pair_state reads
    a state off them at any tau.
    """
    omega = [(omega_final - omega_initial) * c for c in RAMP_SHAPE]
    omega[0] += omega_initial
    omega_sq = [0.0] * 11
    for i, a in enumerate(omega):
        for j, b in enumerate(omega):
            omega_sq[i + j] += a * b

    def terms(p: list[float],
              count: int) -> tuple[list[float], list[float]]:
        # values and slopes at s = 1 of p and its next count - 1 terms
        values, slopes = [], []
        for k in range(count):
            values.append(sum(p))
            slopes.append(sum(j * c for j, c in enumerate(p)))
            if k + 1 == count:
                break
            product = [0.0] * (len(p) + 10)
            for i, a in enumerate(p):
                if a:
                    for j, b in enumerate(omega_sq):
                        product[i + j] += a * b
            p = [0.0, 0.0] + [-c / ((j + 1) * (j + 2))
                              for j, c in enumerate(product)]
        return values, slopes

    n = SERIES_TERMS + 1
    x, xd = terms([0.0, 1.0], n)
    y, yd = terms([1.0], n + 1)
    # Y'/tau = Y_s/tau^2 starts at y_1's slope: y_0 = 1 has none
    return tuple(x), tuple(xd), tuple(y[:n]), tuple(yd[1:])


def series_pair_state(series: tuple[tuple[float, ...], ...],
                      tau: float) -> PairState:
    """(X, X', Y, Y') at t = tau from sudden_pair_series' coefficients."""
    e = tau * tau

    def horner(coefficients: tuple[float, ...]) -> float:
        total = 0.0
        for c in reversed(coefficients):
            total = total * e + c
        return total

    x, xd, y, yd = series
    return tau * horner(x), horner(xd), horner(y), tau * horner(yd)


def wronskian(state: PairState) -> float:
    """Y X' - Y' X; exactly 1 for the true fundamental pair."""
    x, xd, y, yd = state
    return y * xd - yd * x


def q_star_excess(omega0: float, omega_t: float, state: PairState) -> float:
    """Q* - 1 from a pair state (X, X', Y, Y') started at omega0, read at
    the instantaneous frequency omega_t, as a sum of squares:
    [(omega0 omega_t X + Y')^2 + (omega0 X' - omega_t Y)^2]
    / (2 omega0 omega_t).  It is Husimi's Q* less the Wronskian, so
    Q* = 1 + q_star_excess for the true pair (W = 1); it is never
    negative, and keeps its relative accuracy where Q* - 1 is tiny,
    unlike Husimi's form, which carries the solver's W - 1."""
    x, xd, y, yd = state
    u = omega0 * omega_t * x + yd
    v = omega0 * xd - omega_t * y
    return (u * u + v * v) / (2.0 * omega0 * omega_t)


def ermakov_from_linear(omega0: float,
                        state: PairState) -> tuple[float, float]:
    """Closed-form Ermakov solution (b, b') with b = sqrt(Y^2 + omega0^2 X^2).

    Exact as long as the pair's Wronskian is 1: the pair's equations
    give b'' b^3 = omega0^2 W^2 - omega^2 b^4, so b solves the Ermakov
    equation up to omega0^2 (W^2 - 1) / b^3, which wronskian_constancy
    gates.  b cannot vanish, since Y and X share no zero while W = 1.
    """
    x, xd, y, yd = state
    b = math.sqrt(y * y + omega0 * omega0 * x * x)
    return b, (y * yd + omega0 * omega0 * x * xd) / b


def adiabaticity_from_ermakov(omega0: float, omega_t: float,
                              ermakov: tuple[float, float]) -> float:
    """Q* from the scaling factor (b, b'):
    (omega0^2/b^2 + b'^2 + omega_t^2 b^2) / (2 omega0 omega_t)."""
    bv, bd = ermakov
    return ((omega0 * omega0 / (bv * bv) + bd * bd
             + omega_t * omega_t * bv * bv) / (2.0 * omega0 * omega_t))


def solve_second_moments(protocol: FrequencyProtocol, times: Sequence[float],
                         initial: ThermalOscillatorState
                         ) -> list[tuple[float, float, float]]:
    """(<x^2>, <{x,p}>/2, <p^2>) of an oscillator that starts in the
    thermal state initial, under driving, at the times, in units where
    the mass is 1.

    The closed system for the second moments never references the
    fundamental pair or the scaling factor, so moment_q_star is the
    third, independent route to Q*.
    """
    check_start_frequency(protocol, initial)
    omega = omega_of(protocol)

    def rhs(t, y):
        xx, c, pp = y
        w2 = omega(t) ** 2
        return (2.0 * c, pp - w2 * xx, -2.0 * w2 * c)

    w0, hbar, nu = initial.omega, initial.hbar, initial.nu
    y0 = (hbar * nu / (2.0 * w0), 0.0, 0.5 * hbar * w0 * nu)
    return _integrate(rhs, y0, protocol, times)


def moment_q_star(omega_t: float, moments: tuple[float, float, float],
                  initial: ThermalOscillatorState) -> float:
    """Q* as mean energy over its adiabatic value, from the second moments
    (mass 1) of an oscillator started in the thermal state initial.

    Q* is a ratio of energies, so it must come out independent of beta
    and hbar, as of the mass; the tests exploit that as an extra
    invariant.
    """
    omega0 = initial.omega
    xx, _, pp = moments
    energy = pp / 2.0 + 0.5 * omega_t**2 * xx
    return energy * omega0 / (omega_t * initial.mean_energy)
