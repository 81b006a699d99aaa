import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta_otto import ConfigError, EngineConfig, sweep, tau_grid
from sta_otto.config import MAX_TAU_COUNT, linspace


@pytest.mark.parametrize("name", ["omega1", "omega2", "beta1", "beta2",
                                  "hbar", "tau_min", "tau_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_fields_rejected(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        EngineConfig(**{name: bad})


def test_schema_is_the_physics_and_the_grid():
    # the solver tolerances are module constants, not user settings, and
    # the mass cancels from every output, so it is no setting either
    assert [f.name for f in fields(EngineConfig)] == [
        "omega1", "omega2", "beta1", "beta2", "hbar", "tau_min",
        "tau_max", "tau_count", "tau_spacing"]


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "quad_tol", "m",
                                  "strict"])
def test_removed_keywords_refused(name):
    with pytest.raises(TypeError, match=f"unexpected keyword argument "
                                        f"'{name}'"):
        EngineConfig(**{name: 1e-10})


# one accepted change of each key away from the default
_CHANGED = {"omega1": 0.3, "omega2": 1.1, "beta1": 0.6, "beta2": 0.04,
            "hbar": 0.5, "tau_min": 0.02, "tau_max": 5.0, "tau_count": 5,
            "tau_spacing": "linear"}


@pytest.mark.parametrize("name", [f.name for f in fields(EngineConfig)])
def test_every_key_changes_the_sweep(name):
    # a key that changes no output is surplus: every field has a changed
    # value here, and changing it alone changes a 4-point sweep
    assert list(_CHANGED) == [f.name for f in fields(EngineConfig)]
    base = EngineConfig(tau_count=4)
    assert sweep(replace(base, **{name: _CHANGED[name]})) != sweep(base)


def test_tau_count_capped():
    EngineConfig(tau_count=MAX_TAU_COUNT)
    with pytest.raises(ConfigError, match="tau_count must be at most"):
        EngineConfig(tau_count=MAX_TAU_COUNT + 1)


_ENDS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(start=_ENDS | st.just(0.0), stop=_ENDS, count=st.integers(2, 1000))
@example(start=0.0, stop=10.0, count=200)
@example(start=0.0, stop=1.0, count=256)
@example(start=0.0, stop=5e-324, count=7)
@example(start=1.5, stop=1.5, count=3)
def test_linspace_matches_numpy_bitwise(start, stop, count):
    assert linspace(start, stop, count) == np.linspace(
        start, stop, count).tolist()


def _numpy_logspace(config):
    return np.logspace(np.log10(config.tau_min), np.log10(config.tau_max),
                       config.tau_count).tolist()


# 10 ** x inherits the rounding of x scaled by ln(10) |x|, so the bound
# holds for grids inside a few decades of 1, the physical range of tau
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(start=st.floats(-3.0, 2.0), decades=st.floats(0.01, 5.0),
       count=st.integers(2, 500))
def test_log_grid_matches_numpy_logspace(start, decades, count):
    config = EngineConfig(tau_min=10.0 ** start,
                          tau_max=10.0 ** (start + decades), tau_count=count)
    grid = tau_grid(config)
    reference = _numpy_logspace(config)
    assert len(grid) == count
    for tau, ref in zip(grid, reference):
        assert abs(tau - ref) <= 1e-14 * ref


def test_log_grid_on_default_config_within_one_ulp():
    config = EngineConfig()
    grid = tau_grid(config)
    reference = _numpy_logspace(config)
    assert all(abs(tau - ref) <= math.ulp(ref)
               for tau, ref in zip(grid, reference))
    # the sweep prints 12 significant digits: that column is unchanged
    assert ([f"{tau:#.12g}" for tau in grid]
            == [f"{ref:#.12g}" for ref in reference])
    assert (grid[0], grid[-1]) == (config.tau_min, config.tau_max)


_MHZ = {"omega1": 0.32e6, "omega2": 1e6, "beta1": 0.5e-6,
        "beta2": 0.05e-6, "tau_max": 1e-5}


@pytest.mark.parametrize("changes, refused", [
    ({}, 1e-300), ({}, 1e-100), (_MHZ, 1e-106)],
    ids=["tau_min = 1e-300", "tau_min = 1e-100", "MHz"])
def test_tau_min_below_phase_floor_rejected(changes, refused):
    # the floor is on the phase omega2 tau_min, so it follows the unit
    # of time.  tau_min = 1e-100 sits on it, but the log grid or a root
    # search on the default bracket reads it as 10 ** log10 or exp(ln)
    # of itself, an ulp below
    with pytest.raises(ConfigError, match=f"^tau_min = {refused!r}: "
                                          f"stroke phase max"):
        EngineConfig(**changes, tau_min=refused)
    EngineConfig(**changes, tau_min=1e-99 / changes.get("omega2", 1.0))


@pytest.mark.parametrize("changes, keys", [
    ({"beta2": 1e-100}, "beta2, omega2, hbar"),
    ({"beta2": 5e-324}, "beta2, omega2, hbar"),
    ({"hbar": 1e-200}, "beta1, omega1, hbar"),
    ({"beta1": 1e-77, "beta2": 1e-78}, "beta1, omega1, hbar"),
], ids=["beta2 = 1e-100", "beta2 = 5e-324", "hbar = 1e-200", "beta1 = 1e-77"])
def test_absurd_bath_rejected(changes, keys):
    # finite, positive and ordered, but the bath's occupation factors
    # are not finite floats: a config error naming the keys
    with pytest.raises(ConfigError, match=f"^{keys}: "):
        EngineConfig(**changes)


@pytest.mark.parametrize("changes", [
    {"omega1": 0.125, "beta1": 1.0, "beta2": 0.125},
    {"beta1": 0.06},
    {"omega2": 1e100},
    {"beta1": 400.0, "beta2": 100.0},
    {"hbar": 1e300},
], ids=["equal occupation", "beta1 = 0.06", "omega2 = 1e100",
        "beta1 = 400", "hbar = 1e300"])
def test_bath_occupation_order_rejected(changes):
    # first bath colder in beta, but not in occupation: q2_ad would be
    # 0 (equal occupation) or negative, so the config is refused.  At
    # beta1 = 400 (beta1 omega1 = 128 > beta2 omega2 = 100) and at
    # hbar = 1e300 both occupations round to exactly 1.0, so the message
    # names them
    with pytest.raises(ConfigError) as info:
        EngineConfig(**changes)
    match = re.match(r"beta1, omega1, beta2, omega2: the hot bath "
                     r"occupation nu_hot = (\S+) must exceed the cold one "
                     r"nu_cold = (\S+) ", str(info.value))
    assert match, str(info.value)
    nu_hot, nu_cold = map(float, match.groups())
    assert not nu_hot > nu_cold
    with pytest.raises(ConfigError, match=r"\(first bath colder\)$"):
        EngineConfig(beta1=0.01)


def test_bath_states_are_built_once_outside_the_schema():
    config = EngineConfig()
    assert config.cold is config.cold and config.hot is config.hot
    assert (config.cold.beta, config.cold.omega) == (0.5, 0.32)
    assert (config.hot.beta, config.hot.omega) == (0.05, 1.0)
    assert "cold" not in {f.name for f in fields(EngineConfig)}
    assert "hot" not in {f.name for f in fields(EngineConfig)}
    # the cached states leave equality and the hash (lru_cache keys) alone
    assert config == EngineConfig() and hash(config) == hash(EngineConfig())
