"""Work and heat of the Otto strokes for a thermal oscillator.

Thermalization is instantaneous, so each driven stroke starts from a
thermal state of the oscillator at the bath it just left.  With the
adiabaticity parameter q_star of the stroke (ratio of actual to
adiabatic mean energy at the end of the drive), the stroke energies
have closed forms:

    compression work   (hbar/2) (omega2 q1 - omega1) coth(beta1 hbar omega1 / 2)
    hot isochore heat  (hbar omega2/2) [coth(beta2 hbar omega2/2)
                                        - q1 coth(beta1 hbar omega1/2)]
    expansion work     (hbar/2) (omega1 q3 - omega2) coth(beta2 hbar omega2 / 2)

q_star = 1 reproduces the adiabatic cycle.  The device operates as an
engine when the total work is negative (work extracted) and the hot
heat is positive (heat absorbed).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EngineConfig
from .hyperbolic import coth


@dataclass(frozen=True)
class ThermalOscillatorState:
    """Thermal oscillator at inverse temperature beta and frequency omega."""

    beta: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0 or self.omega <= 0.0 or self.hbar <= 0.0:
            raise ValueError("beta, omega, hbar must be positive")

    @property
    def mean_energy(self) -> float:
        """(hbar omega / 2) coth(beta hbar omega / 2)."""
        x = 0.5 * self.beta * self.hbar * self.omega
        return 0.5 * self.hbar * self.omega * coth(x)


def stroke_work(q_star: float, omega_start: float, omega_end: float,
                beta: float, hbar: float = 1.0) -> float:
    """Mean work of a driven stroke starting from thermal (beta, omega_start).

    (hbar/2) (omega_end q_star - omega_start) coth(beta hbar omega_start / 2);
    increasing in q_star, so nonadiabatic work always costs extra.
    """
    x = 0.5 * beta * hbar * omega_start
    return 0.5 * hbar * (omega_end * q_star - omega_start) * coth(x)


def hot_isochore_heat(q_star_1: float, config: EngineConfig) -> float:
    """Heat taken from the hot bath while re-thermalizing at omega2.

    Positive when the bath heats the medium; turns negative once
    q_star_1 exceeds coth(beta2 hbar omega2/2)/coth(beta1 hbar omega1/2),
    i.e. when compression friction overheats the medium past the bath.
    """
    hb = config.hbar
    ct_cold = coth(0.5 * config.beta1 * hb * config.omega1)
    ct_hot = coth(0.5 * config.beta2 * hb * config.omega2)
    return 0.5 * hb * config.omega2 * (ct_hot - q_star_1 * ct_cold)


def heat_sign_threshold(config: EngineConfig) -> float:
    """Value of q_star_1 at which the hot-isochore heat changes sign."""
    ct_cold = coth(0.5 * config.beta1 * config.hbar * config.omega1)
    ct_hot = coth(0.5 * config.beta2 * config.hbar * config.omega2)
    return ct_hot / ct_cold


def engine_condition(work_total: float, heat_hot: float) -> bool:
    """Engine iff work_total < 0 and heat_hot > 0 (both strict)."""
    return bool(work_total < 0.0 and heat_hot > 0.0)
