import math

import pytest

from sta_otto import ConfigError, EngineConfig


@pytest.mark.parametrize("name", ["omega1", "omega2", "beta1", "beta2", "m",
                                  "hbar", "rel_tol", "abs_tol", "quad_tol",
                                  "tau_min", "tau_max"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_fields_rejected(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        EngineConfig(**{name: bad})
