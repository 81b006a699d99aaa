import numpy as np
import pytest

from sta_otto import (ConfigError, EngineConfig, ThermalOscillatorState,
                      polynomial_ramp, q_star_lcd_instant,
                      sa_cost_time_average, sa_energy_instant,
                      sample_protocol, shortcut_shape_factor, stroke_pairs)

from conftest import COST1_TAU1, COST3_TAU1, SHAPE_INTEGRAL


@pytest.fixture(scope="module")
def cold():
    return ThermalOscillatorState(0.5, 0.32)


@pytest.fixture(scope="module")
def hot():
    return ThermalOscillatorState(0.05, 1.0)


@pytest.fixture(scope="module")
def ramp():
    return polynomial_ramp(0.32, 1.0, 1.0)


def test_auxiliary_energy_vanishes_at_ends(ramp, cold):
    assert sa_energy_instant(sample_protocol(ramp, 0.0), cold) == 0.0
    assert sa_energy_instant(sample_protocol(ramp, 1.0), cold) == 0.0


def test_auxiliary_energy_midpoint_value(ramp, cold):
    # omega'' = 0 at s = 1/2, so only the -omega'^2 term survives
    s = sample_protocol(ramp, 0.5)
    expected = (0.66 / 0.32) * cold.mean_energy \
        * (-1.275**2 / (4.0 * 0.66**4))
    assert sa_energy_instant(s, cold) == pytest.approx(expected, rel=1e-13)
    assert sa_energy_instant(s, cold) < 0.0


def test_q_star_lcd_instant(ramp):
    s_mid = sample_protocol(ramp, 0.5)
    assert q_star_lcd_instant(s_mid) == pytest.approx(
        1.0 + shortcut_shape_factor(s_mid), rel=1e-15)
    assert q_star_lcd_instant(sample_protocol(ramp, 0.0)) == 1.0
    assert q_star_lcd_instant(sample_protocol(ramp, 1.0)) == 1.0
    # sign matters: the shortcut track dips below 1 where the drive
    # softens, it does not sit at 1 + omega'^2/(8 omega^4)
    wrong = 1.0 + s_mid.omega_dot**2 / (8.0 * s_mid.omega**4)
    assert abs(q_star_lcd_instant(s_mid) - wrong) > 0.1


def test_time_average_cost_frozen(ramp, cold, hot):
    assert sa_cost_time_average(ramp, cold) == pytest.approx(
        COST1_TAU1, rel=1e-10)
    rev = polynomial_ramp(1.0, 0.32, 1.0)
    assert sa_cost_time_average(rev, hot) == pytest.approx(
        COST3_TAU1, rel=1e-10)


def test_cost_quadrature_runs_at_fixed_tolerance(monkeypatch, ramp, cold):
    # purely relative at 1e-10, whatever the config
    import scipy.integrate
    real, seen = scipy.integrate.quad, []

    def recording(*args, **kwargs):
        seen.append((kwargs["epsabs"], kwargs["epsrel"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", recording)
    assert sa_cost_time_average(ramp, cold) == pytest.approx(COST1_TAU1,
                                                            rel=1e-10)
    assert seen == [(0.0, 1e-10)]


def test_time_average_cost_closed_form(ramp, cold):
    # integrate by parts: average = (E0/omega0) * I / tau^2 with
    # I the shape integral of omega'^2/(4 omega^3) over s
    expected = cold.mean_energy / 0.32 * SHAPE_INTEGRAL
    assert sa_cost_time_average(ramp, cold) == pytest.approx(
        expected, rel=1e-10)


def test_cost_scales_as_inverse_tau_squared(cold):
    values = []
    for tau in (0.1, 1.0, 10.0):
        ramp = polynomial_ramp(0.32, 1.0, tau)
        values.append(sa_cost_time_average(ramp, cold)
                      * tau * tau)
    assert values[0] == pytest.approx(values[1], rel=1e-10)
    assert values[2] == pytest.approx(values[1], rel=1e-10)


def test_direct_operator_route_differs_by_exact_term(ramp, cold):
    # the auxiliary term can also be averaged as
    # (m/2)(Omega^2 - omega^2) <x^2> along the adiabatic track; that
    # route differs from the implemented expression by exactly
    # E0 omega'^2/(8 omega0 omega^3), so the two must never be collapsed
    e0, w0 = cold.mean_energy, 0.32
    for t in (0.2, 0.5, 0.77):
        s = sample_protocol(ramp, t)
        xx = e0 / (w0 * s.omega)  # b_ad^2 <x^2(0)> with m = 1
        direct = 0.5 * (s.omega_eff_sq - s.omega**2) * xx
        printed = sa_energy_instant(s, cold)
        gap = e0 * s.omega_dot**2 / (8.0 * w0 * s.omega**3)
        assert printed - direct == pytest.approx(gap, rel=1e-12)
    assert gap > 0.0


def test_start_frequency_mismatch_rejected(ramp, hot):
    with pytest.raises(ConfigError):
        sa_cost_time_average(ramp, hot)


def test_steep_ramp_track_shape():
    # for a steep ramp the instantaneous track overshoots 1 while the
    # drive accelerates, then undershoots while it brakes, crossing
    # 1 exactly once; endpoints always return to 1
    ramp = polynomial_ramp(0.15, 1.0, 1.0)
    track = [q_star_lcd_instant(sample_protocol(ramp, float(s)))
             for s in np.linspace(0.0, 1.0, 41)]
    assert track[0] == 1.0 and track[-1] == 1.0
    assert max(track) > 1.0 and min(track) < 1.0
    signs = [q > 1.0 for q in track if abs(q - 1.0) > 1e-9]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
    assert signs[0] and not signs[-1]


@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(omega1=0.32e6, omega2=1e6, beta1=0.5e-6, beta2=0.05e-6),
    EngineConfig(omega1=0.01, beta1=50.0)],
    ids=["default", "MHz", "ratio 100"])
def test_cost_integrates_the_auxiliary_energy(config):
    # sa_cost_time_average integrates the by-parts form omega'^2/(4
    # omega^3); the time average of sa_energy_instant itself, whose two
    # terms cancel, must agree with it on both strokes
    from scipy.integrate import quad

    tau = 1.0 / config.omega2
    for protocol, initial in stroke_pairs(config, tau):
        direct, _ = quad(
            lambda t: sa_energy_instant(sample_protocol(protocol, t),
                                        initial),
            0.0, tau, epsabs=0.0, epsrel=1e-13, limit=200)
        by_parts = sa_cost_time_average(protocol, initial)
        assert direct / tau == pytest.approx(by_parts, rel=1e-12, abs=0.0)
