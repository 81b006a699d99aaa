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
integration of the nonlinear Ermakov equation.  They must agree; the
test suite holds them to 1e-8 of each other.

Integration uses an adaptive embedded Runge-Kutta of order 8, with dense
output where a caller reads the solution inside the stroke; the
production cycle reads only the endpoint (linear_pair_endpoint).  Tight
default tolerances (1e-10 relative) keep Q* - 1 resolvable down to ~1e-6
in the adiabatic regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import SolverFailure
from .hyperbolic import coth
from .protocol import FrequencyProtocol, omega_of, sample_protocol


def _check_tolerances(rel_tol: float, abs_tol: float) -> None:
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < v <= 1e-4:
            raise ValueError(f"{name} must lie in (0, 1e-4]")


def _integrate(rhs, y0, duration: float, rel_tol: float, abs_tol: float,
               dense_output: bool = True):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853",
                    dense_output=dense_output, rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise SolverFailure(
            f"integration stalled at t = {sol.t[-1]!r}: {sol.message}")
    return sol


@dataclass(frozen=True)
class LinearPairSolution:
    """Dense-output fundamental pair (X, X', Y, Y') over [0, duration]."""

    omega0: float
    duration: float
    _dense: object = field(repr=False, compare=False)

    def evaluate(self, t):
        """Return (X, X_dot, Y, Y_dot) at t (scalar or array)."""
        x, xd, y, yd = self._dense(t)
        return x, xd, y, yd

    def wronskian(self, t):
        x, xd, y, yd = self.evaluate(t)
        return y * xd - yd * x


@dataclass(frozen=True)
class ErmakovSolution:
    """Scaling factor b(t) with b(0)=1, b'(0)=0 (thermal start, no squeeze)."""

    omega0: float
    duration: float
    b: Callable[[float], float]
    b_dot: Callable[[float], float]


def _integrate_pair(protocol: FrequencyProtocol, rel_tol: float,
                    abs_tol: float, dense_output: bool):
    _check_tolerances(rel_tol, abs_tol)
    omega = omega_of(protocol)

    def rhs(t, y):
        w2 = omega(t) ** 2
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    return _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol.duration,
                      rel_tol, abs_tol, dense_output)


def solve_linear_pair(protocol: FrequencyProtocol, rel_tol: float = 1e-10,
                      abs_tol: float = 1e-12) -> LinearPairSolution:
    """Integrate the fundamental pair for the bare frequency omega(t)."""
    sol = _integrate_pair(protocol, rel_tol, abs_tol, dense_output=True)
    return LinearPairSolution(protocol.omega_initial, protocol.duration,
                              sol.sol)


def linear_pair_endpoint(protocol: FrequencyProtocol, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-12
                         ) -> tuple[float, float, float, float]:
    """(X, X', Y, Y') of the fundamental pair at t = duration.

    The same steps as solve_linear_pair without the dense output, which
    costs three extra right-hand-side evaluations per step; the state is
    the solver's last step, bitwise what the dense solution returns at
    the endpoint.
    """
    sol = _integrate_pair(protocol, rel_tol, abs_tol, dense_output=False)
    x, xd, y, yd = sol.y[:, -1].tolist()
    return x, xd, y, yd


def solve_effective_pair(protocol: FrequencyProtocol, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-12) -> LinearPairSolution:
    """Fundamental pair for the shortcut's effective frequency Omega(t).

    Omega^2 may be negative mid-protocol (trap inversion); the linear
    equation integrates through it without special handling.
    """
    _check_tolerances(rel_tol, abs_tol)

    def rhs(t, y):
        w2 = sample_protocol(protocol, t).omega_eff_sq
        return (y[1], -w2 * y[0], y[3], -w2 * y[2])

    sol = _integrate(rhs, (0.0, 1.0, 1.0, 0.0), protocol.duration,
                     rel_tol, abs_tol)
    return LinearPairSolution(protocol.omega_initial, protocol.duration,
                              sol.sol)


def ermakov_from_linear(pair: LinearPairSolution) -> ErmakovSolution:
    """Closed-form Ermakov solution b = sqrt(Y^2 + omega0^2 X^2), with
    omega0 = pair.omega0.

    Exact as long as the pair's Wronskian is 1: the identity
    b''(b^3) = omega0^2 W^2 - omega^2 b^4 makes the Ermakov residual
    proportional to |W^2 - 1|, so it measures solver error only.
    b cannot vanish, since Y and X share no zero while W = 1.
    """
    omega0 = pair.omega0
    w0sq = omega0 * omega0

    def b(t: float) -> float:
        x, _, y, _ = pair.evaluate(t)
        return math.sqrt(y * y + w0sq * x * x)

    def b_dot(t: float) -> float:
        x, xd, y, yd = pair.evaluate(t)
        return (y * yd + w0sq * x * xd) / math.sqrt(y * y + w0sq * x * x)

    return ErmakovSolution(omega0, pair.duration, b, b_dot)


def ermakov_residual(pair: LinearPairSolution, protocol: FrequencyProtocol,
                     t: float) -> float:
    """|b'' + omega^2 b - omega0^2/b^3| for the pair-derived scaling factor.

    b'' is assembled from the pair via d/dt(b b') = (Y'^2 + omega0^2 X'^2)
    - omega^2 b^2, so the returned value reduces algebraically to
    omega0^2 |W^2 - 1| / b^3: a direct, dimensionful measure of how well
    the integrated pair satisfies the Ermakov equation.
    """
    w0sq = pair.omega0 ** 2
    w2 = omega_of(protocol)(t) ** 2
    x, xd, y, yd = pair.evaluate(t)
    bsq = y * y + w0sq * x * x
    bv = math.sqrt(bsq)
    bd = (y * yd + w0sq * x * xd) / bv
    kinetic = yd * yd + w0sq * xd * xd
    bdd = (kinetic - w2 * bsq - bd * bd) / bv
    return abs(bdd + w2 * bv - w0sq / bv**3)


def adiabaticity_parameter(pair: LinearPairSolution, omega_t: float,
                           t: float) -> float:
    """Husimi-form Q* from the fundamental pair.

    omega0 is the pair's starting frequency.  Mid-protocol values use
    the instantaneous omega_t; at t = duration this is the endpoint
    adiabaticity parameter entering the stroke energies.  Always >= 1
    for a thermal start.
    """
    return husimi_q_star(pair.omega0, omega_t, pair.evaluate(t))


def husimi_q_star(omega0: float, omega_t: float, state) -> float:
    """Q* from a pair state (X, X', Y, Y') started at omega0, read at the
    instantaneous frequency omega_t."""
    x, xd, y, yd = state
    num = (omega0 * omega0 * (omega_t * omega_t * x * x + xd * xd)
           + omega_t * omega_t * y * y + yd * yd)
    return num / (2.0 * omega0 * omega_t)


def adiabaticity_from_ermakov(solution: ErmakovSolution, omega_t: float,
                              t: float) -> float:
    """Q* from the scaling factor:
    (omega0^2/b^2 + b'^2 + omega_t^2 b^2) / (2 omega0 omega_t)."""
    bv = solution.b(t)
    bd = solution.b_dot(t)
    w0 = solution.omega0
    return ((w0 * w0 / (bv * bv) + bd * bd + omega_t * omega_t * bv * bv)
            / (2.0 * w0 * omega_t))


def solve_ermakov_direct(protocol: FrequencyProtocol, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-12) -> ErmakovSolution:
    """Integrate the nonlinear Ermakov equation itself.

    Independent of the linear pair; used to triangulate Q*.
    """
    _check_tolerances(rel_tol, abs_tol)
    omega = omega_of(protocol)
    w0sq = protocol.omega_initial ** 2

    def rhs(t, y):
        b, bd = y
        return (bd, w0sq / b**3 - omega(t) ** 2 * b)

    dense = _integrate(rhs, (1.0, 0.0), protocol.duration, rel_tol,
                       abs_tol).sol

    def b(t: float) -> float:
        return float(dense(t)[0])

    def b_dot(t: float) -> float:
        return float(dense(t)[1])

    return ErmakovSolution(protocol.omega_initial, protocol.duration,
                           b, b_dot)


@dataclass(frozen=True)
class MomentSolution:
    """Second moments of an initially thermal oscillator under driving.

    Integrates the closed system for (<x^2>, <{x,p}>/2, <p^2>) directly,
    which never references the fundamental pair or the scaling factor;
    the adiabaticity parameter extracted from the mean energy is the
    third, independent route to Q*.  Q* is a ratio of energies, so it
    must come out independent of beta, m and hbar; the tests exploit
    that as an extra invariant.
    """

    omega0: float
    duration: float
    beta: float
    m: float
    hbar: float
    _dense: object = field(repr=False, compare=False)

    def second_moments(self, t):
        """Return (<x^2>, <{x,p}>/2, <p^2>) at t."""
        xx, c, pp = self._dense(t)
        return xx, c, pp

    def mean_energy(self, t: float, omega_t: float) -> float:
        xx, _, pp = self.second_moments(t)
        return pp / (2.0 * self.m) + 0.5 * self.m * omega_t**2 * xx

    def q_star(self, t: float, omega_t: float) -> float:
        e0 = 0.5 * self.hbar * self.omega0 \
            * coth(0.5 * self.beta * self.hbar * self.omega0)
        return self.mean_energy(t, omega_t) * self.omega0 / (omega_t * e0)


def solve_second_moments(protocol: FrequencyProtocol, beta: float,
                         m: float = 1.0, hbar: float = 1.0,
                         rel_tol: float = 1e-10,
                         abs_tol: float = 1e-12) -> MomentSolution:
    """Integrate the second-moment equations for a thermal start."""
    _check_tolerances(rel_tol, abs_tol)
    if beta <= 0.0 or m <= 0.0 or hbar <= 0.0:
        raise ValueError("beta, m and hbar must be positive")
    omega = omega_of(protocol)

    def rhs(t, y):
        xx, c, pp = y
        w2 = omega(t) ** 2
        return (2.0 * c / m, pp / m - m * w2 * xx, -2.0 * m * w2 * c)

    w0 = protocol.omega_initial
    nu = coth(0.5 * beta * hbar * w0)
    y0 = (hbar * nu / (2.0 * m * w0), 0.0, 0.5 * m * hbar * w0 * nu)
    sol = _integrate(rhs, y0, protocol.duration, rel_tol, abs_tol)
    return MomentSolution(w0, protocol.duration, beta, m, hbar, sol.sol)


def lcd_final_adiabaticity(protocol: FrequencyProtocol,
                           rel_tol: float = 1e-10,
                           abs_tol: float = 1e-12) -> float:
    """End-of-stroke Q* when driving with the effective frequency.

    The local-counterdiabatic construction is designed to land the
    oscillator on the adiabatic target state, so this must return 1 for
    any schedule with flat ends, trap inversion included.  This is the
    central verification that the shortcut works.
    """
    pair = solve_effective_pair(protocol, rel_tol, abs_tol)
    return adiabaticity_parameter(pair, protocol.omega_final,
                                  protocol.duration)
