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
    F = 2 / (sqrt(Delta + delta) - sqrt(delta)).

Near unit ratio F rounds to within an ulp of 1, so arccos(sqrt(F))
would lose the angle.  Both F and 1 - F are therefore read without
cancellation.  With c = csch^2 = sqrt(delta), nu^2 = 1 + c and
eps = (omega_a - omega_b)^2/(omega_a omega_b), Delta = nu^2 (4 + eps)
and Delta + delta = (c + 2)^2 + nu^2 eps.  With
S = sqrt((c + 2)^2 + nu^2 eps),

    F     = 2 (S + c) / (nu^2 (4 + eps)),
    1 - F = (eps / (4 + eps)) (S + c) / (S + c + 2),

and the Bures angle arccos(sqrt(F)) is atan2(sqrt(1 - F), sqrt(F)),
exactly 0 at omega_b = omega_a.  nu and delta are read from the
initial ThermalOscillatorState, which owns them; csch keeps cold
states from underflowing.  At zero temperature
F = 2 sqrt(omega_a omega_b)/(omega_a + omega_b), equal to 1 only for
omega_b = omega_a.  For small eps the angle tends to
(sqrt(eps)/2) nu/sqrt(nu^2 + 1).
"""

from __future__ import annotations

import math

from .errors import DivisionByZeroCost, DomainError, InvalidDenominator
from .strokes import ThermalOscillatorState


def _fidelity_pair(initial: ThermalOscillatorState,
                   omega_b: float) -> tuple[float, float]:
    """(F, 1 - F) between the thermal state initial, at omega_a, and the
    adiabatic target of a stroke that ends at omega_b."""
    if omega_b <= 0.0:
        raise ValueError("omega_b must be positive")

    nu_sq, c = initial.nu * initial.nu, math.sqrt(initial.csch4)
    d = initial.omega - omega_b
    eps = (d / initial.omega) * (d / omega_b)
    s_plus_c = math.sqrt((c + 2.0) * (c + 2.0) + nu_sq * eps) + c
    return (2.0 * s_plus_c / (nu_sq * (4.0 + eps)),
            eps / (4.0 + eps) * (s_plus_c / (s_plus_c + 2.0)))


def gaussian_fidelity(initial: ThermalOscillatorState,
                      omega_b: float) -> float:
    """Uhlmann fidelity between the thermal state initial, at omega_a,
    and the adiabatic target of a stroke that ends at omega_b."""
    return _fidelity_pair(initial, omega_b)[0]


def bures_angle(initial: ThermalOscillatorState, omega_b: float) -> float:
    """arccos(sqrt(F)), the geodesic distance on state space, of the
    stroke from initial to its adiabatic target at omega_b."""
    fidelity, infidelity = _fidelity_pair(initial, omega_b)
    return math.atan2(math.sqrt(infidelity), math.sqrt(fidelity))


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
