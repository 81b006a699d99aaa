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

ThermalOscillatorState owns the occupation factors: it computes coth
and csch of x = beta hbar omega / 2 once, and every module reads them
from a state.  Direct evaluation through sinh/cosh overflows for cold
states (x > ~350) and loses digits for hot ones (x -> 0), so both are
read from m = 1 - exp(-2x), computed with expm1 so that it keeps every
digit for small x:

    coth(x) = (2 - m)/m,    csch(x) = 2 exp(-x)/m.

EngineConfig holds the two bath states (cold, hot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ThermalOscillatorState:
    """Thermal oscillator at inverse temperature beta and frequency omega.

    nu = coth(x) and the fidelity's csch4 = csch(x)^4, x = beta hbar
    omega / 2, are computed once; non-finite factors are refused.
    """

    beta: float
    omega: float
    hbar: float = 1.0
    nu: float = field(init=False)
    csch4: float = field(init=False)

    def __post_init__(self) -> None:
        if self.beta <= 0.0 or self.omega <= 0.0 or self.hbar <= 0.0:
            raise ValueError("beta, omega, hbar must be positive")
        x = 0.5 * self.beta * self.hbar * self.omega
        try:
            m = -math.expm1(-2.0 * x)
            nu, csch4 = (2.0 - m) / m, (2.0 * math.exp(-x) / m) ** 4
            if math.isinf(csch4):   # a subnormal x: both factors are inf
                raise OverflowError("csch(x) is inf")
        except ArithmeticError as exc:
            raise ValueError(f"occupation factors of beta hbar omega / 2 "
                             f"= {x!r} are not finite floats") from exc
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "csch4", csch4)

    @property
    def mean_energy(self) -> float:
        """(hbar omega / 2) coth(beta hbar omega / 2)."""
        return 0.5 * self.hbar * self.omega * self.nu


def stroke_work(q_star: float, start: ThermalOscillatorState,
                omega_end: float) -> float:
    """Mean work of a driven stroke from the thermal state start to omega_end.

    (hbar/2) (omega_end q_star - omega_start) coth(beta hbar omega_start / 2);
    increasing in q_star, so nonadiabatic work always costs extra.
    """
    return 0.5 * start.hbar * (omega_end * q_star - start.omega) * start.nu


def hot_isochore_heat(q_star_1: float, cold: ThermalOscillatorState,
                      hot: ThermalOscillatorState) -> float:
    """Heat taken from the hot bath while re-thermalizing at omega2.

    Positive when the bath heats the medium; turns negative once
    q_star_1 exceeds coth(beta2 hbar omega2/2)/coth(beta1 hbar omega1/2),
    i.e. when compression friction overheats the medium past the bath.
    """
    return 0.5 * hot.hbar * hot.omega * (hot.nu - q_star_1 * cold.nu)


def heat_sign_threshold(cold: ThermalOscillatorState,
                        hot: ThermalOscillatorState) -> float:
    """Value of q_star_1 at which the hot-isochore heat changes sign."""
    return hot.nu / cold.nu


def engine_condition(work_total: float, heat_hot: float) -> bool:
    """Engine iff work_total < 0 and heat_hot > 0 (both strict)."""
    return bool(work_total < 0.0 and heat_hot > 0.0)
