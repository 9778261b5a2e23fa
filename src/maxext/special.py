"""Scalar special functions: the complementary error function and the Gumbel law.

Each input is checked once, where it enters the package: the public
functions take x through errors._real, and gumbel_cdf tests a plain non-NaN
float in-line, without a call, so NaN, a bool and anything but a real number
within float range is a DomainError. gumbel_cdf is the package's one Gumbel
cdf: the approximations and diagnostics call it on their checked float. The
one kernel, `_gumbel_pdf`, checks nothing and returns the pair
(Lambda'(x), e^{-x}), so a density approximation reuses the e^{-x} it is
formed from. All are pure and safe for unrestricted concurrent use. The
Gumbel functions return 0.0 far below the mode, where exp(-x) raises
OverflowError and the true value underflows to zero.
"""
from __future__ import annotations

import math

from .errors import _real

__all__ = ["erfc", "gumbel_cdf", "gumbel_pdf"]


def erfc(x: float) -> float:
    """Complementary error function with full relative accuracy in the tail.

    Unlike 1 - erf(x), this keeps relative precision for large positive x
    (down to where the true value underflows double precision).
    """
    return math.erfc(_real(x, "erfc"))


def _gumbel_pdf(x: float) -> tuple[float, float]:
    # (Lambda'(x), e^{-x}): the density and the exp(-x) it is formed from
    try:
        emx = math.exp(-x)
    except OverflowError:
        return 0.0, math.inf
    # exp(inf) returns inf without raising: x = -inf needs the test too
    return 0.0 if emx == math.inf else math.exp(-x - emx), emx


def gumbel_cdf(x: float) -> float:
    """Gumbel distribution function exp(-exp(-x))."""
    if type(x) is not float or x != x:
        x = _real(x, "gumbel_cdf")
    try:
        return math.exp(-math.exp(-x))
    except OverflowError:  # exp(-x) beyond float range, far below the mode
        return 0.0


def gumbel_pdf(x: float) -> float:
    """Gumbel density exp(-x - exp(-x))."""
    return _gumbel_pdf(_real(x, "gumbel_pdf"))[0]
