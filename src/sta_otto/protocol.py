"""Frequency schedules for the driven strokes.

A stroke changes the trap frequency from omega_initial to omega_final
over a duration tau.  The reference schedule is the quintic ramp

    omega(s) = omega_i + d*(10 s^3 - 15 s^4 + 6 s^5),   s = t/tau,

with d = omega_f - omega_i.  Its first and second derivatives vanish at
both ends, which makes the local-counterdiabatic correction switch off
at the stroke boundaries.  The shortcut replaces omega^2 with the
effective squared frequency

    Omega^2(t) = omega^2 - 3 omega_dot^2/(4 omega^2) + omega_ddot/(2 omega),

which can go negative for fast driving (trap inversion).  Whether it
does depends on the duration only through tau <= tau_c, with tau_c from
inversion_threshold; whether it is fatal is the caller's decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .config import linspace
from .errors import ConfigError, OutOfRangeTime

# the scans behind tau_c: a uniform scan of the ramp shape, then six
# rescans between the neighbours of the smallest sample, each 8x narrower
_INVERSION_SCANS = (256,) + (17,) * 6


@dataclass(frozen=True)
class ProtocolSample:
    """Schedule values at a single time: omega and its two derivatives,
    plus the effective (shortcut) squared frequency."""

    t: float
    omega: float
    omega_dot: float
    omega_ddot: float
    omega_eff_sq: float


@dataclass(frozen=True)
class FrequencyProtocol:
    """Quintic-ramp frequency schedule omega(t) on [0, duration]."""

    omega_initial: float
    omega_final: float
    duration: float

    def __post_init__(self) -> None:
        if not (0.0 < self.omega_initial < math.inf
                and 0.0 < self.omega_final < math.inf):
            raise ConfigError("protocol frequencies must be positive "
                              "and finite")
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("protocol duration must be positive and finite")


def polynomial_ramp(omega_initial: float, omega_final: float,
                    duration: float) -> FrequencyProtocol:
    """Quintic ramp with flat (zero first and second derivative) ends."""
    return FrequencyProtocol(float(omega_initial), float(omega_final),
                             float(duration))


def _ramp_shape(s: float) -> tuple[float, float, float]:
    # value and first two s-derivatives of 10 s^3 - 15 s^4 + 6 s^5
    v = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    d1 = 30.0 * s**2 * (1.0 - s) ** 2
    d2 = 60.0 * s * (1.0 - 3.0 * s + 2.0 * s**2)
    return v, d1, d2


def effective_frequency_sq(omega: float, omega_dot: float,
                           omega_ddot: float) -> float:
    """Squared frequency of the local-counterdiabatic Hamiltonian."""
    return (omega * omega
            - 0.75 * omega_dot * omega_dot / (omega * omega)
            + 0.5 * omega_ddot / omega)


def sample_protocol(protocol: FrequencyProtocol, t: float) -> ProtocolSample:
    """Closed-form quintic evaluation at time t; derivatives are analytic,
    not finite differences."""
    if not 0.0 <= t <= protocol.duration:
        raise OutOfRangeTime(
            f"t = {t!r} outside [0, {protocol.duration!r}]")
    tau = protocol.duration
    d = protocol.omega_final - protocol.omega_initial
    v, d1, d2 = _ramp_shape(t / tau)
    omega = protocol.omega_initial + d * v
    omega_dot = d * d1 / tau
    omega_ddot = d * d2 / (tau * tau)
    return ProtocolSample(t, omega, omega_dot, omega_ddot,
                          effective_frequency_sq(omega, omega_dot, omega_ddot))


def omega_of(protocol: FrequencyProtocol) -> Callable[[float], float]:
    """Fast omega(t) callable for integrators (skips sample assembly)."""
    wi = protocol.omega_initial
    d = protocol.omega_final - protocol.omega_initial
    tau = protocol.duration

    def omega(t: float) -> float:
        s = t / tau
        return wi + d * s**3 * (10.0 - 15.0 * s + 6.0 * s**2)

    return omega


def boundary_residuals(protocol: FrequencyProtocol) -> dict[str, float]:
    """Residuals of the six endpoint conditions, relative to the
    protocol's frequency and time scales.

    Keys: omega_start, omega_end (value mismatch), omega_dot_start,
    omega_dot_end, omega_ddot_start, omega_ddot_end (nonflat ends).
    """
    tau = protocol.duration
    scale = max(abs(protocol.omega_initial), abs(protocol.omega_final))
    s0 = sample_protocol(protocol, 0.0)
    s1 = sample_protocol(protocol, tau)
    return {
        "omega_start": abs(s0.omega - protocol.omega_initial) / scale,
        "omega_end": abs(s1.omega - protocol.omega_final) / scale,
        "omega_dot_start": abs(s0.omega_dot) * tau / scale,
        "omega_dot_end": abs(s1.omega_dot) * tau / scale,
        "omega_ddot_start": abs(s0.omega_ddot) * tau * tau / scale,
        "omega_ddot_end": abs(s1.omega_ddot) * tau * tau / scale,
    }


def inversion_threshold(omega_initial: float, omega_final: float) -> float:
    """Longest stroke duration tau_c at which the ramp inverts the trap.

    In s = t/tau, Omega^2 = w^2 - h(s)/tau^2 with
    h = 3/4 w_s^2/w^2 - 1/2 w_ss/w, so Omega^2 reaches zero somewhere
    exactly when tau <= tau_c = sqrt(max_s h/w^2).  The maximum comes
    from a uniform scan of -h/w^2, refined by rescanning the interval
    between the neighbours of the smallest sample: 358 evaluations in
    all, ending on a bracket about 3e-8 wide in s.  Swapping the end
    frequencies mirrors the ratio about s = 1/2, so the frequencies are
    sorted first: both strokes of a cycle evaluate the same samples and
    share tau_c bitwise, and whether a stroke of duration tau inverts is
    decided by tau <= tau_c alone.
    """
    wi, wf = sorted((float(omega_initial), float(omega_final)))
    d = wf - wi

    def neg_ratio(s):
        # -h/w^2 = Omega^2/w^2 - 1 evaluated at tau = 1
        v, d1, d2 = _ramp_shape(s)
        w = wi + d * v
        return effective_frequency_sq(w, d * d1, d * d2) / (w * w) - 1.0

    lo, hi = 0.0, 1.0
    for count in _INVERSION_SCANS:
        ss = linspace(lo, hi, count)
        vals = [neg_ratio(s) for s in ss]
        i = vals.index(min(vals))
        lo, hi = ss[max(i - 1, 0)], ss[min(i + 1, count - 1)]
    return math.sqrt(max(-vals[i], 0.0))
