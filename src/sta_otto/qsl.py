"""Geometric speed bounds for the driven strokes.

A driven stroke carries the oscillator from a thermal state at the
starting frequency to a squeezed thermal state at the final one.  The
Bures angle between those two Gaussian states, divided by the mean
auxiliary power spent steering, lower-bounds the stroke time; feeding
the same angles back into the energy balance upper-bounds efficiency
and power.

For a single mode both states are zero-mean Gaussians, so the Uhlmann
fidelity closes in terms of their covariance matrices.  The initial
state is thermal at (beta, omega_a); the shortcut lands the stroke on
the adiabatic target, which keeps the initial occupation (the stroke
is unitary) at omega_b.  With nu = coth(beta hbar omega_a / 2),

    Delta = nu^2 (2 + omega_a/omega_b + omega_b/omega_a),
    delta = csch(beta hbar omega_a / 2)^4,
    F = 2 / (sqrt(Delta + delta) - sqrt(delta))
      = 2 (sqrt(Delta + delta) + sqrt(delta)) / Delta,

where the second form avoids cancellation for hot states and the csch
keeps cold states from underflowing; nu and delta are read from the
initial ThermalOscillatorState, which owns them.  At zero temperature
F = 2 sqrt(omega_a omega_b)/(omega_a + omega_b), equal to 1 only for
omega_b = omega_a.
"""

from __future__ import annotations

import math

from .errors import DivisionByZeroCost, DomainError, InvalidDenominator
from .strokes import ThermalOscillatorState

# fidelities this far outside [0, 1] are rounding noise, anything worse is a bug
_DOMAIN_SLACK = -1e-12


def gaussian_fidelity(initial: ThermalOscillatorState,
                      omega_b: float) -> float:
    """Uhlmann fidelity between the thermal state initial, at omega_a,
    and the adiabatic target of a stroke that ends at omega_b."""
    if omega_b <= 0.0:
        raise ValueError("omega_b must be positive")

    omega_a, nu, delta = initial.omega, initial.nu, initial.csch4
    big = nu * nu * (2.0 + omega_a / omega_b + omega_b / omega_a)
    return 2.0 * (math.sqrt(big + delta) + math.sqrt(delta)) / big


def bures_angle(fidelity: float) -> float:
    """arccos(sqrt(F)), the geodesic distance on state space."""
    if fidelity < _DOMAIN_SLACK or fidelity - 1.0 > -_DOMAIN_SLACK:
        raise DomainError(f"fidelity {fidelity!r} outside [0, 1]")
    return math.acos(math.sqrt(min(max(fidelity, 0.0), 1.0)))


def qsl_time(angle: float, sa_cost: float, hbar: float = 1.0) -> float:
    """Minimal stroke duration: hbar * angle / (time-averaged cost).

    The bound presumes the auxiliary power is what limits the stroke,
    so a non-positive cost has no bound to offer.
    """
    if sa_cost <= 0.0:
        raise DivisionByZeroCost(
            f"time bound needs a positive driving cost, got {sa_cost!r}")
    if angle < 0.0:
        raise DomainError(f"Bures angle {angle!r} is negative")
    return hbar * angle / sa_cost


def efficiency_bound(work_ad_total: float, heat_hot: float,
                     angle_sum: float, tau: float,
                     hbar: float = 1.0) -> float:
    """Upper bound on efficiency from the geometric minimum driving cost.

    Replaces the actual shortcut cost in the efficiency denominator by
    its smallest value compatible with the state distances traversed in
    the allotted stroke time tau.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    denom = heat_hot + hbar * angle_sum / tau
    if denom <= 0.0:
        raise InvalidDenominator(
            f"heat input plus minimal cost is {denom!r}, not positive")
    return -work_ad_total / denom


def power_bound(work_ad_total: float, tau_qsl_1: float,
                tau_qsl_3: float) -> float:
    """Upper bound on output power: adiabatic work over minimal durations."""
    total = tau_qsl_1 + tau_qsl_3
    if total <= 0.0:
        raise InvalidDenominator(
            f"summed time bounds must be positive, got {total!r}")
    return -work_ad_total / total
