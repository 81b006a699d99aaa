import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sta_otto import ConfigError, EngineConfig
from sta_otto.config import MAX_TAU_COUNT, linspace


@pytest.mark.parametrize("name", ["omega1", "omega2", "beta1", "beta2", "m",
                                  "hbar", "rel_tol", "abs_tol", "quad_tol",
                                  "tau_min", "tau_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_fields_rejected(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        EngineConfig(**{name: bad})


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
