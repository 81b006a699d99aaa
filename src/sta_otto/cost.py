"""Energetic cost of the local-counterdiabatic shortcut.

The auxiliary term steering the oscillator along the adiabatic track
carries a mean energy of its own.  With an initial thermal state of
mean energy E0 at frequency omega0, the instantaneous contribution is

    <H_sa>(t) = (omega_t / omega0) E0 [omega''/(4 omega^3)
                                       - omega'^2/(4 omega^4)],

which vanishes at both ends of any schedule with flat boundaries and
takes either sign along the way.  The figure of merit is its time
average

    cost = (1/tau) \\int_0^tau <H_sa>(t) dt,

strictly positive for the polynomial ramp (integration by parts turns
it into (E0/omega0) / tau^2 times \\int omega'(s)^2/(4 omega^3) ds > 0)
and scaling exactly as 1/tau^2 under reparametrization of the same
shape.

Driven at the effective frequency Omega(t), the oscillator's energy
<p^2>/2 + Omega^2 <x^2>/2 (mass 1) is (omega_t / omega0) E0 + <H_sa>(t);
validate's cost_consistency checks this on the effective pair.
"""

from __future__ import annotations

from .errors import ConfigError, QuadratureFailure
from .protocol import FrequencyProtocol, ProtocolSample, sample_protocol
from .strokes import ThermalOscillatorState

# the schedule must start where the thermal state sits
_FREQ_MATCH_RTOL = 1e-9
# quad's relative tolerance on the cost integral (no absolute one)
_QUAD_EPSREL = 1e-10


def check_start_frequency(protocol: FrequencyProtocol,
                          initial: ThermalOscillatorState) -> None:
    """Raise ConfigError unless the thermal state sits at the frequency
    the schedule starts from (to 1e-9 relative)."""
    w0 = protocol.omega_initial
    if abs(initial.omega - w0) > _FREQ_MATCH_RTOL * w0:
        raise ConfigError(
            f"initial state frequency {initial.omega!r} does not match "
            f"protocol start {w0!r}")


def shortcut_shape_factor(sample: ProtocolSample) -> float:
    """Dimensionless bracket omega''/(4 omega^3) - omega'^2/(4 omega^4)."""
    w = sample.omega
    return (sample.omega_ddot / (4.0 * w**3)
            - sample.omega_dot**2 / (4.0 * w**4))


def sa_energy_instant(sample: ProtocolSample,
                      initial: ThermalOscillatorState) -> float:
    """Mean energy stored in the auxiliary driving term at one instant."""
    return (sample.omega / initial.omega) * initial.mean_energy \
        * shortcut_shape_factor(sample)


def q_star_lcd_instant(sample: ProtocolSample) -> float:
    """Instantaneous adiabaticity parameter along the shortcut track.

    Equals 1 plus the same shape factor as the auxiliary energy, so it
    dips below 1 while the trap softens and returns to exactly 1 at the
    flat ends.  Not to be confused with the bare-protocol Q*(t), which
    never drops below 1.
    """
    return 1.0 + shortcut_shape_factor(sample)


def sa_cost_time_average(protocol: FrequencyProtocol,
                         initial: ThermalOscillatorState) -> float:
    """Time-averaged auxiliary energy over the stroke.

    Adaptive quadrature at the fixed, purely relative tolerance 1e-10;
    the integrand is smooth for every admissible ramp, so a failure to
    converge is raised rather than glossed over.
    """
    check_start_frequency(protocol, initial)
    from scipy.integrate import quad

    def integrand(t: float) -> float:
        return sa_energy_instant(sample_protocol(protocol, t), initial)

    out = quad(integrand, 0.0, protocol.duration, epsabs=0.0,
               epsrel=_QUAD_EPSREL, limit=200, full_output=True)
    if len(out) > 3:
        # quad's message spans lines; the CLI promises one error line
        raise QuadratureFailure("cost integral did not converge: "
                                + " ".join(out[3].split()))
    value = out[0]
    return value / protocol.duration
