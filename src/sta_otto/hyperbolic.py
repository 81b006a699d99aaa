"""Stable hyperbolic cotangent and cosecant.

Thermal occupation factors appear throughout as coth(beta*hbar*omega/2)
and csch(beta*hbar*omega/2).  Direct evaluation through sinh/cosh
overflows for cold states (argument > ~350) and loses digits for hot
ones (argument -> 0), so both functions are evaluated from scaled
exponentials, with a Laurent-series branch for coth at small argument.
"""

from __future__ import annotations

import math

# Below this, 1/tanh(x) loses digits to cancellation; the truncated Laurent
# series coth(x) = 1/x + x/3 - x^3/45 + O(x^5) is exact to double precision.
_SERIES_CUTOFF = 1e-4


def coth(x: float) -> float:
    """Hyperbolic cotangent, accurate for all x != 0."""
    if x == 0.0:
        raise ZeroDivisionError("coth(0) diverges")
    if abs(x) < _SERIES_CUTOFF:
        return 1.0 / x + x / 3.0 - x**3 / 45.0
    # coth(x) = (1 + q)/(1 - q) with q = exp(-2|x|); no overflow for any x.
    q = math.exp(-2.0 * abs(x))
    return math.copysign((1.0 + q) / (1.0 - q), x)


def csch(x: float) -> float:
    """Hyperbolic cosecant; underflows gracefully to 0 for large |x|."""
    if x == 0.0:
        raise ZeroDivisionError("csch(0) diverges")
    if abs(x) < _SERIES_CUTOFF:
        # csch(x) = 1/x - x/6 + 7x^3/360 + O(x^5)
        return 1.0 / x - x / 6.0 + 7.0 * x**3 / 360.0
    # csch(x) = 2 e^{-|x|} / (1 - e^{-2|x|})
    e = math.exp(-abs(x))
    return math.copysign(2.0 * e / (1.0 - e * e), x)
