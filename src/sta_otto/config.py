"""Engine configuration: physical parameters and the sweep grid."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .strokes import ThermalOscillatorState

# the sweep grid is built before the first solve: an absurd count must
# fail as a config error, not as a multi-gigabyte allocation
MAX_TAU_COUNT = 100_000

# phase max(omega) tau below which a stroke is refused, the short-side
# mirror of dynamics.MAX_STROKE_PHASE.  The driving cost grows as
# 1/tau^2, so a cycle's rows stop being finite near phase 1e-154 (1e-148
# in MHz units); the floor leaves about 50 decades of margin, and a
# stroke at phase 1e-100 is a sudden quench to any float precision
MIN_STROKE_PHASE = 1e-100


def check_stroke_phase(phase: float, name: str, value: float) -> None:
    """Refuse a stroke whose phase max(omega) tau lies below
    MIN_STROKE_PHASE; the message names the duration as name = value."""
    if phase < MIN_STROKE_PHASE:
        raise ValueError(f"{name} = {value!r}: stroke phase max(omega) tau "
                         f"= {phase!r} rad is below the floor of "
                         f"{MIN_STROKE_PHASE:g} rad")


@dataclass(frozen=True)
class EngineConfig:
    """Physical and numerical parameters of the cycle.

    The working medium is compressed from omega1 to omega2 while coupled
    to nothing, thermalizes with the hot bath (beta2), expands back, and
    thermalizes with the cold bath (beta1).  Cold means beta1 > beta2.
    The oscillator mass is no parameter: every output is an energy
    ratio, from which it cancels, so the package works in units where
    m = 1.  Field order is the key order of the config file and of the
    CSV manifest.
    It owns what it determines: the bath states cold and hot, built
    once.  The solver tolerances are not part of it: the oracle
    integrators run at fixed tolerances of their own.
    """

    omega1: float = 0.32
    omega2: float = 1.0
    beta1: float = 0.5
    beta2: float = 0.05
    hbar: float = 1.0
    tau_min: float = 0.01
    tau_max: float = 10.0
    tau_count: int = 200
    tau_spacing: str = "log"

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if not self.omega2 > self.omega1 > 0.0:
            raise ConfigError("need omega2 > omega1 > 0 (compression-first cycle)")
        if not self.beta1 > self.beta2 > 0.0:
            raise ConfigError("need beta1 > beta2 > 0 (first bath colder)")
        if self.hbar <= 0.0:
            raise ConfigError("hbar must be positive")
        # an absurd but finite bath (beta2 = 1e-100) fails here, not at
        # its first occupation factor mid-solve
        for bath, keys in (("cold", "beta1, omega1, hbar"),
                           ("hot", "beta2, omega2, hbar")):
            try:
                getattr(self, bath)
            except ValueError as exc:
                raise ConfigError(f"{keys}: {exc}") from exc
        # colder in beta is not enough: the hot bath must also hold the
        # larger occupation, or the adiabatic hot heat q2_ad is <= 0.
        # Both can round to exactly 1.0 (beta1 = 400, or hbar = 1e300)
        if not self.hot.nu > self.cold.nu:
            raise ConfigError(
                f"beta1, omega1, beta2, omega2: the hot bath occupation "
                f"nu_hot = {self.hot.nu!r} must exceed the cold one "
                f"nu_cold = {self.cold.nu!r} (nu = coth(beta hbar "
                f"omega / 2))")
        if not 0.0 < self.tau_min < self.tau_max:
            raise ConfigError("need 0 < tau_min < tau_max")
        # the log grid reads tau_min as 10 ** log10(tau_min) and a root
        # search on the default bracket as exp(ln tau_min), either of
        # which may sit an ulp below it: refused here, not mid-run
        shortest = min(self.tau_min, 10.0 ** math.log10(self.tau_min),
                       math.exp(math.log(self.tau_min)))
        try:
            check_stroke_phase(self.omega2 * shortest, "tau_min",
                               self.tau_min)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.tau_count < 2:
            raise ConfigError("tau_count must be at least 2")
        if self.tau_count > MAX_TAU_COUNT:
            raise ConfigError(f"tau_count must be at most {MAX_TAU_COUNT}")
        if self.tau_spacing not in ("log", "linear"):
            raise ConfigError("tau_spacing must be 'log' or 'linear'")

    # cached on the instance, outside fields(): the schema, the manifest,
    # equality and the hash are unchanged
    @functools.cached_property
    def cold(self) -> ThermalOscillatorState:
        """Thermal state of the cold bath, where the compression starts."""
        return ThermalOscillatorState(self.beta1, self.omega1, self.hbar)

    @functools.cached_property
    def hot(self) -> ThermalOscillatorState:
        """Thermal state of the hot bath, where the expansion starts."""
        return ThermalOscillatorState(self.beta2, self.omega2, self.hbar)


def linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced floats from start to stop inclusive (count >= 2),
    bitwise equal to numpy.linspace: start + i*step, last point stop."""
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        # a span so small that step underflows: scale i/div instead
        points = [i / div * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    points[-1] = stop
    return points


def tau_grid(config: EngineConfig) -> list[float]:
    """Sweep abscissa; log or linear per the configuration.

    The log grid is 10 ** x over linspace of the log10 ends, the
    construction of numpy.logspace with the standard library's log10
    and power; it agrees with numpy's to one ulp.
    """
    if config.tau_spacing == "log":
        return [10.0 ** x for x in linspace(math.log10(config.tau_min),
                                            math.log10(config.tau_max),
                                            config.tau_count)]
    return linspace(config.tau_min, config.tau_max, config.tau_count)
