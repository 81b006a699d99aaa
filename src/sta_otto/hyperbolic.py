"""Stable hyperbolic cotangent and cosecant.

Thermal occupation factors appear throughout as coth(beta*hbar*omega/2)
and csch(beta*hbar*omega/2).  Direct evaluation through sinh/cosh
overflows for cold states (argument > ~350) and loses digits for hot
ones (argument -> 0), so both functions are evaluated from
m = 1 - exp(-2|x|), computed with expm1 so that it keeps every digit
for small |x|.
"""

from __future__ import annotations

import math


def coth(x: float) -> float:
    """Hyperbolic cotangent, accurate for all x != 0."""
    if x == 0.0:
        raise ZeroDivisionError("coth(0) diverges")
    # coth(x) = (1 + q)/(1 - q) = (2 - m)/m with q = exp(-2|x|), m = 1 - q
    m = -math.expm1(-2.0 * abs(x))
    return math.copysign((2.0 - m) / m, x)


def csch(x: float) -> float:
    """Hyperbolic cosecant; underflows gracefully to 0 for large |x|."""
    if x == 0.0:
        raise ZeroDivisionError("csch(0) diverges")
    # csch(x) = 2 e^{-|x|} / (1 - e^{-2|x|})
    m = -math.expm1(-2.0 * abs(x))
    return math.copysign(2.0 * math.exp(-abs(x)) / m, x)
