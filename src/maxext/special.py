"""Scalar special functions: error function pair and the Gumbel law.

All functions raise DomainError for NaN or what float() rejects, and are
otherwise pure; they are safe for unrestricted concurrent use. The Gumbel
functions return 0.0 far below the mode, where exp(-x) overflows and the
true value underflows to zero.
"""
from __future__ import annotations

import math
import reprlib

from .errors import DomainError

__all__ = ["erf", "erfc", "gumbel_cdf", "gumbel_pdf"]


def _reject_nan(x: float, name: str) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name}: cannot convert {reprlib.repr(x)} to a float") from None
    if math.isnan(x):
        raise DomainError(f"{name}: NaN input")
    return x


def erf(x: float) -> float:
    """Error function, odd-symmetric, absolute error below 1e-15."""
    return math.erf(_reject_nan(x, "erf"))


def erfc(x: float) -> float:
    """Complementary error function with full relative accuracy in the tail.

    Unlike 1 - erf(x), this keeps relative precision for large positive x
    (down to where the true value underflows double precision).
    """
    return math.erfc(_reject_nan(x, "erfc"))


def _exp_neg(x: float) -> float:
    """exp(-x), saturating to inf instead of raising OverflowError."""
    try:
        return math.exp(-x)
    except OverflowError:
        return math.inf


def gumbel_cdf(x: float) -> float:
    """Gumbel distribution function exp(-exp(-x))."""
    return math.exp(-_exp_neg(_reject_nan(x, "gumbel_cdf")))


def gumbel_pdf(x: float) -> float:
    """Gumbel density exp(-x - exp(-x))."""
    x = _reject_nan(x, "gumbel_pdf")
    emx = _exp_neg(x)
    if emx == math.inf:
        return 0.0
    return math.exp(-x - emx)
