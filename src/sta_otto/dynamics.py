"""Classical dynamics of the time-dependent harmonic oscillator.

Everything about a driven stroke follows from the two fundamental
solutions of

    f'' + omega(t)^2 f = 0,    X(0)=0, X'(0)=1,   Y(0)=1, Y'(0)=0,

whose Wronskian Y X' - Y' X stays exactly 1.  The scaling factor

    b(t) = sqrt(Y^2 + omega0^2 X^2)

solves the Ermakov equation b'' + omega^2 b = omega0^2 / b^3 with
b(0)=1, b'(0)=0, and the adiabaticity parameter (actual over adiabatic
mean energy of an initially thermal oscillator) is

    Q*(t) = [omega0^2 (omega_t^2 X^2 + X'^2) + omega_t^2 Y^2 + Y'^2]
            / (2 omega0 omega_t).

Three routes to Q* are exposed: the linear pair directly, the
closed-form Ermakov transform of the pair, and an independent
integration of the second moments.  They must agree; validate's
q_star_routes holds them to 1e-8 of each other.

Each solver integrates the whole stroke and returns its state only at
the requested times, as a list of plain tuples; every caller knows
those times before the solve, and the production cycle asks for
t = tau alone.  The formulas that read a state (husimi_q_star,
wronskian, ermakov_from_linear, ermakov_residual,
adiabaticity_from_ermakov, moment_q_star) are pure functions of it.

Integration uses an adaptive embedded Runge-Kutta of order 8 (DOP853).
Every solver takes the EngineConfig, the one owner and validator of
the ODE tolerances; the tight defaults (1e-10 relative) keep Q* - 1
resolvable down to ~1e-6 in the adiabatic regime.  A stroke of
MAX_STROKE_PHASE rad or more is refused before any step is taken.  A
thermal start is a ThermalOscillatorState, which owns its occupation
factor.
"""

from __future__ import annotations

import math
from typing import Sequence

from .config import EngineConfig
from .cost import check_start_frequency
from .errors import SolverFailure
from .protocol import FrequencyProtocol, omega_of, sample_protocol
from .strokes import ThermalOscillatorState

PairState = tuple[float, float, float, float]   # (X, X', Y, Y')

# phase max(omega) tau at which a solve is refused: DOP853's work grows
# with it (2 s for 1e4 rad on a 2-vCPU host), so tau = 1e8 takes hours
MAX_STROKE_PHASE = 1e5


def _integrate(rhs, y0, protocol: FrequencyProtocol, times: Sequence[float],
               config: EngineConfig) -> list[tuple[float, ...]]:
    """Integrate over the stroke at the config's tolerances; the states
    at the increasing times, each read from the interpolant of the step
    that contains it."""
    duration = protocol.duration
    phase = max(protocol.omega_initial, protocol.omega_final) * duration
    if phase >= MAX_STROKE_PHASE:
        raise SolverFailure(
            f"stroke phase max(omega) tau = {phase:.6g} rad reaches the "
            f"solver budget of {MAX_STROKE_PHASE:g} rad")
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                    t_eval=times, rtol=config.rel_tol, atol=config.abs_tol)
    if not sol.success:
        raise SolverFailure(
            f"integration stalled before t = {duration!r}: {sol.message}")
    return [tuple(state) for state in sol.y.T.tolist()]


def solve_linear_pair(protocol: FrequencyProtocol, times: Sequence[float],
                      config: EngineConfig) -> list[PairState]:
    """(X, X', Y, Y') of the fundamental pair for the bare frequency
    omega(t), at each of the times (within [0, duration], increasing)."""
    omega = omega_of(protocol)

    def rhs(t, y):
        w2 = omega(t) ** 2
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    return _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol, times, config)


def solve_effective_pair(protocol: FrequencyProtocol, times: Sequence[float],
                         config: EngineConfig) -> list[PairState]:
    """Fundamental pair for the shortcut's effective frequency Omega(t).

    Omega^2 may be negative mid-protocol (trap inversion); the linear
    equation integrates through it without special handling.
    """

    def rhs(t, y):
        w2 = sample_protocol(protocol, t).omega_eff_sq
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    return _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol, times, config)


def wronskian(state: PairState) -> float:
    """Y X' - Y' X; exactly 1 for the true fundamental pair."""
    x, xd, y, yd = state
    return y * xd - yd * x


def husimi_q_star(omega0: float, omega_t: float, state: PairState) -> float:
    """Q* from a pair state (X, X', Y, Y') started at omega0, read at the
    instantaneous frequency omega_t.  Always >= 1 for a thermal start."""
    x, xd, y, yd = state
    num = (omega0 * omega0 * (omega_t * omega_t * x * x + xd * xd)
           + omega_t * omega_t * y * y + yd * yd)
    return num / (2.0 * omega0 * omega_t)


def ermakov_from_linear(omega0: float,
                        state: PairState) -> tuple[float, float]:
    """Closed-form Ermakov solution (b, b') with b = sqrt(Y^2 + omega0^2 X^2).

    Exact as long as the pair's Wronskian is 1: the identity
    b''(b^3) = omega0^2 W^2 - omega^2 b^4 makes the Ermakov residual
    proportional to |W^2 - 1|, so it measures solver error only.
    b cannot vanish, since Y and X share no zero while W = 1.
    """
    w0sq = omega0 * omega0
    x, xd, y, yd = state
    b = math.sqrt(y * y + w0sq * x * x)
    return b, (y * yd + w0sq * x * xd) / b


def ermakov_residual(omega0: float, state: PairState) -> float:
    """|b'' + omega^2 b - omega0^2/b^3| for the pair-derived scaling factor.

    With b b' = Y Y' + omega0^2 X X' from the pair, the pair's own
    equations give b'' b^3 = omega0^2 W^2 - omega^2 b^4, so the residual
    is omega0^2 |W^2 - 1| / b^3 at any omega(t): a dimensionful
    (frequency squared) measure of how well the integrated pair
    satisfies the Ermakov equation.
    """
    w = wronskian(state)
    b, _ = ermakov_from_linear(omega0, state)
    return omega0**2 * abs(w * w - 1.0) / b**3


def adiabaticity_from_ermakov(omega0: float, omega_t: float,
                              ermakov: tuple[float, float]) -> float:
    """Q* from the scaling factor (b, b'):
    (omega0^2/b^2 + b'^2 + omega_t^2 b^2) / (2 omega0 omega_t)."""
    bv, bd = ermakov
    return ((omega0 * omega0 / (bv * bv) + bd * bd
             + omega_t * omega_t * bv * bv) / (2.0 * omega0 * omega_t))


def solve_second_moments(protocol: FrequencyProtocol, times: Sequence[float],
                         initial: ThermalOscillatorState,
                         config: EngineConfig
                         ) -> list[tuple[float, float, float]]:
    """(<x^2>, <{x,p}>/2, <p^2>) of an oscillator of mass config.m that
    starts in the thermal state initial, under driving, at the times.

    The closed system for the second moments never references the
    fundamental pair or the scaling factor, so moment_q_star is the
    third, independent route to Q*.
    """
    check_start_frequency(protocol, initial)
    m = config.m
    omega = omega_of(protocol)

    def rhs(t, y):
        xx, c, pp = y
        w2 = omega(t) ** 2
        return (2.0 * c / m, pp / m - m * w2 * xx, -2.0 * m * w2 * c)

    w0, hbar, nu = initial.omega, initial.hbar, initial.nu
    y0 = (hbar * nu / (2.0 * m * w0), 0.0, 0.5 * m * hbar * w0 * nu)
    return _integrate(rhs, y0, protocol, times, config)


def moment_q_star(omega_t: float, moments: tuple[float, float, float],
                  initial: ThermalOscillatorState,
                  config: EngineConfig) -> float:
    """Q* as mean energy over its adiabatic value, from the second moments
    of an oscillator of mass config.m started in the thermal state initial.

    Q* is a ratio of energies, so it must come out independent of beta,
    m and hbar; the tests exploit that as an extra invariant.
    """
    m, omega0 = config.m, initial.omega
    xx, _, pp = moments
    energy = pp / (2.0 * m) + 0.5 * m * omega_t**2 * xx
    return energy * omega0 / (omega_t * initial.mean_energy)

