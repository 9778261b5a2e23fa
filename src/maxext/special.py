"""Scalar special functions: error function pair and the Gumbel law.

All functions take x through errors._real, so NaN, a bool and anything but
a real number within float range is a DomainError, and are otherwise pure; they
are safe for unrestricted concurrent use. The Gumbel functions return 0.0
far below the mode, where exp(-x) overflows and the true value underflows
to zero.
"""
from __future__ import annotations

import math

from .errors import _real

__all__ = ["erf", "erfc", "gumbel_cdf", "gumbel_pdf"]


def erf(x: float) -> float:
    """Error function, odd-symmetric, absolute error below 1e-15."""
    return math.erf(_real(x, "erf"))


def erfc(x: float) -> float:
    """Complementary error function with full relative accuracy in the tail.

    Unlike 1 - erf(x), this keeps relative precision for large positive x
    (down to where the true value underflows double precision).
    """
    return math.erfc(_real(x, "erfc"))


def _exp_neg(x: float) -> float:
    """exp(-x), saturating to inf instead of raising OverflowError."""
    try:
        return math.exp(-x)
    except OverflowError:
        return math.inf


def gumbel_cdf(x: float) -> float:
    """Gumbel distribution function exp(-exp(-x))."""
    return math.exp(-_exp_neg(_real(x, "gumbel_cdf")))


def gumbel_pdf(x: float) -> float:
    """Gumbel density exp(-x - exp(-x))."""
    x = _real(x, "gumbel_pdf")
    emx = _exp_neg(x)
    if emx == math.inf:
        return 0.0
    return math.exp(-x - emx)
