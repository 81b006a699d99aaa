import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta_otto import (ConfigError, OutOfRangeTime, boundary_residuals,
                      effective_frequency_sq, inversion_threshold, omega_of,
                      polynomial_ramp, sample_protocol)
from sta_otto.config import linspace
from sta_otto.protocol import RAMP_SHAPE


@pytest.fixture
def ramp():
    return polynomial_ramp(0.32, 1.0, 1.0)


def test_quintic_values_frozen(ramp):
    # closed-form values of the quintic and its derivatives
    s = sample_protocol(ramp, 0.25)
    assert s.omega == pytest.approx(0.390390625, abs=1e-15)
    assert s.omega_dot == pytest.approx(0.7171875, abs=1e-15)
    assert s.omega_ddot == pytest.approx(3.825, abs=1e-12)
    s = sample_protocol(ramp, 0.5)
    assert s.omega == pytest.approx(0.66, abs=1e-15)
    assert s.omega_dot == pytest.approx(1.275, abs=1e-15)
    assert s.omega_ddot == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("wi, wf, tau", [
    (0.32, 1.0, 1.0), (1.0, 0.32, 2.5), (0.32e6, 1e6, 1e-6)],
    ids=["compression", "expansion", "MHz"])
def test_sample_protocol_follows_ramp_shape(wi, wf, tau):
    # RAMP_SHAPE, the coefficients that sudden_pair_series builds omega(s)
    # from, is the shape that sample_protocol evaluates in closed form
    protocol, d = polynomial_ramp(wi, wf, tau), wf - wi
    scale, powers = max(wi, wf), list(enumerate(RAMP_SHAPE))
    for s in linspace(0.0, 1.0, 11):
        shape = sum(c * s**k for k, c in powers)
        slope = sum(k * c * s ** (k - 1) for k, c in powers if k >= 1)
        curve = sum(k * (k - 1) * c * s ** (k - 2) for k, c in powers
                    if k >= 2)
        sample = sample_protocol(protocol, s * tau)
        assert sample.omega == pytest.approx(wi + d * shape,
                                             rel=1e-14, abs=1e-14 * scale)
        assert sample.omega_dot * tau == pytest.approx(
            d * slope, rel=1e-13, abs=1e-13 * scale)
        assert sample.omega_ddot * tau * tau == pytest.approx(
            d * curve, rel=1e-13, abs=1e-13 * scale)


def test_boundary_residuals_flat_ends(ramp):
    assert max(boundary_residuals(ramp).values()) < 1e-14


def test_midpoint_symmetry(ramp):
    s = sample_protocol(ramp, 0.5)
    assert s.omega == pytest.approx(0.5 * (0.32 + 1.0), abs=1e-15)


def test_derivative_scaling_with_duration():
    fast = polynomial_ramp(0.32, 1.0, 1.0)
    slow = polynomial_ramp(0.32, 1.0, 4.0)
    a = sample_protocol(fast, 0.3)
    b = sample_protocol(slow, 1.2)  # same s = t/tau
    assert b.omega == pytest.approx(a.omega, rel=1e-15)
    assert b.omega_dot == pytest.approx(a.omega_dot / 4.0, rel=1e-15)
    assert b.omega_ddot == pytest.approx(a.omega_ddot / 16.0, rel=1e-15)


def test_out_of_range_time(ramp):
    with pytest.raises(OutOfRangeTime):
        sample_protocol(ramp, -1e-9)
    with pytest.raises(OutOfRangeTime):
        sample_protocol(ramp, 1.0 + 1e-9)


def test_invalid_construction():
    with pytest.raises(ConfigError):
        polynomial_ramp(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        polynomial_ramp(0.32, -1.0, 1.0)
    with pytest.raises(ConfigError):
        polynomial_ramp(0.32, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            polynomial_ramp(0.32, bad, 1.0)
        with pytest.raises(ConfigError):
            polynomial_ramp(0.32, 1.0, bad)


def test_effective_frequency_formula():
    w, wd, wdd = 0.66, 1.275, 0.0
    expected = w * w - 3.0 * wd * wd / (4.0 * w * w) + wdd / (2.0 * w)
    assert effective_frequency_sq(w, wd, wdd) == pytest.approx(expected,
                                                               rel=1e-15)
    # softening faster than the trap can follow inverts it
    assert effective_frequency_sq(0.4, 1.0, 0.0) < 0.0


def _min_omega_eff_sq(wi, wf, tau):
    # brute-force reference, sharing no code with inversion_threshold:
    # Omega^2 sampled at 20 001 points of the stroke (4 001 miss the
    # sign change at (0.05, 3))
    protocol = polynomial_ramp(wi, wf, tau)
    return min(sample_protocol(protocol, t).omega_eff_sq
               for t in linspace(0.0, tau, 20_001))


def test_trap_inversion_detection():
    tau_c = inversion_threshold(0.32, 1.0)
    assert tau_c == pytest.approx(2.62, abs=1e-4)
    assert _min_omega_eff_sq(0.32, 1.0, 0.5) < 0.0
    assert _min_omega_eff_sq(0.32, 1.0, 5.0) > 0.0


@pytest.mark.parametrize("omega1, omega2", [(0.32, 1.0), (0.345, 0.93),
                                            (0.05, 3.0)])
def test_inversion_threshold_brackets_the_scan(omega1, omega2):
    # default frequencies, a config jittered by up to 10%, a wide ramp
    tau_c = inversion_threshold(omega1, omega2)
    for wi, wf in ((omega1, omega2), (omega2, omega1)):
        assert _min_omega_eff_sq(wi, wf, tau_c * (1.0 - 1e-6)) < 0.0
        assert _min_omega_eff_sq(wi, wf, tau_c * (1.0 + 1e-6)) > 0.0
    # the end frequencies are sorted first: both strokes share tau_c bitwise
    assert inversion_threshold(omega2, omega1) == tau_c


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(omega1=st.floats(0.05, 0.5), omega2=st.floats(0.6, 3.0))
def test_inversion_threshold_matches_a_bounded_minimiser(omega1, omega2):
    # the refined scan against scipy's bounded minimiser on the bracket
    # of the same 256-point scan, both of -h/w^2 = Omega^2/w^2 - 1 at tau = 1
    from scipy.optimize import minimize_scalar

    ramp = polynomial_ramp(omega1, omega2, 1.0)

    def neg_ratio(s):
        sample = sample_protocol(ramp, s)
        return sample.omega_eff_sq / sample.omega**2 - 1.0

    ss = linspace(0.0, 1.0, 256)
    vals = [neg_ratio(s) for s in ss]
    i = vals.index(min(vals))
    res = minimize_scalar(neg_ratio, method="bounded",
                          bounds=(ss[max(i - 1, 0)], ss[min(i + 1, 255)]),
                          options={"xatol": 1e-12})
    reference = math.sqrt(max(-min(vals[i], res.fun), 0.0))
    assert inversion_threshold(omega1, omega2) == pytest.approx(
        reference, rel=1e-12)


@pytest.mark.parametrize("lam", [1e-6, 1e3, 1e6, 1e9, 1e30, 1e78])
def test_inversion_threshold_is_scale_covariant(lam):
    # omega -> lam omega is time -> time/lam: tau_c scales by 1/lam in
    # any unit of frequency, with no cancellation against omega^2
    tau_c = inversion_threshold(0.32, 1.0)
    assert inversion_threshold(0.32 * lam, lam) * lam == pytest.approx(
        tau_c, rel=1e-14)


@pytest.mark.parametrize("omega1", [0.99999999, 0.9999999999999998])
def test_inversion_threshold_near_unit_ratio(omega1):
    # to first order in k = (omega2 - omega1)/omega1, h/u^2 is
    # -k shape''(s)/2, whose maximum 5 k/sqrt(3) lies at
    # s = (3 + sqrt(3))/6; the next order is k times smaller
    k = (1.0 - omega1) / omega1
    assert inversion_threshold(omega1, 1.0) == pytest.approx(
        math.sqrt(5.0 * k / math.sqrt(3.0)) / omega1, rel=max(10 * k, 1e-14))


def test_reversed_protocol():
    # the expansion ramp is the compression ramp run backwards in time
    for tau in (0.1, 1.0, 7.3):
        compression = polynomial_ramp(0.32, 1.0, tau)
        expansion = polynomial_ramp(1.0, 0.32, tau)
        for s in (0.0, 0.3, 0.5, 0.71, 1.0):
            t = s * tau
            assert sample_protocol(expansion, t).omega == pytest.approx(
                sample_protocol(compression, tau - t).omega, rel=1e-14)


@pytest.mark.parametrize("wi, wf, tau", [
    (0.32, 1.0, 1.0), (1.0, 0.32, 2.5), (0.32e6, 1e6, 1e-6),
    (0.01, 1.0, 3.0)], ids=["compression", "expansion", "MHz", "ratio 100"])
def test_omega_of_matches_sampling(wi, wf, tau):
    # one spelling of the ramp value: bitwise the same omega
    ramp = polynomial_ramp(wi, wf, tau)
    omega = omega_of(ramp)
    for t in linspace(0.0, tau, 2001):
        assert omega(t) == sample_protocol(ramp, t).omega, t
