"""The Maxwell distribution: density, distribution, stable tails, sampling.

The survival function is always evaluated through erfc so that it keeps
relative accuracy deep into the tail; it is never computed as 1 - cdf.

Importing this module loads neither numpy nor scipy: `tail_remainder`
imports `scipy.special.erfcx` when first called, and `sample` and
`row_maxima` work on whatever numpy arrays or generator the caller passes.

`row_maxima` turns a block of Gamma(3/2) draws into the maxima of Maxwell
variates: a chi-square(3) variate is twice a Gamma(3/2) variate (numpy draws
``chisquare(3)`` as ``2.0 * standard_gamma(1.5)``), so a Maxwell variate is
sigma * sqrt(2 g). Doubling is exact, sqrt is correctly rounded and the
multiplication by sigma rounds monotonically, so sigma * sqrt(2 max g) has
exactly the bits of the largest of the n variates, and one root per row
replaces two passes over all n draws.
"""
from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .special import _reject_nan, erf, erfc

if TYPE_CHECKING:
    import numpy as np
    from numpy.random import Generator

__all__ = [
    "MaxwellParams",
    "pdf",
    "cdf",
    "survival",
    "tail_expansion",
    "tail_remainder",
    "sample",
    "row_maxima",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT2 = math.sqrt(2.0)

# Coefficients of the tail series 1 + (s/x)^2 - (s/x)^4 + 3 (s/x)^6; the first
# omitted term is -15 (s/x)^8.
_TAIL_COEFFS = (1.0, 1.0, -1.0, 3.0)


def _check_sigma(s) -> float:
    """sigma as a float; DomainError unless it is a positive finite real, not a bool."""
    # numbers.Real also admits numpy scalars; testing for a float first skips
    # its abstract-class lookup, which costs more than the rest of the check
    real = type(s) is float or (not isinstance(s, bool) and isinstance(s, numbers.Real))
    try:
        ok = real and math.isfinite(s) and s > 0
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise DomainError(f"sigma must be a positive finite real, got {reprlib.repr(s)}")
    return float(s)


@dataclass(frozen=True)
class MaxwellParams:
    """Scale parameter of the Maxwell law."""

    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))


def _z_density(z: float) -> float:
    """sqrt(2/pi) z e^{-z^2/2}, which is sigma^2 x^-1 f(x) at z = x / sigma.

    0.0 where the exponential underflows, also where z * z = inf (not 0 * inf = nan).
    """
    e = math.exp(-0.5 * z * z)
    return _SQRT_2_OVER_PI * z * e if e else 0.0


def pdf(x: float, p: MaxwellParams) -> float:
    """Density sqrt(2/pi) x^2 sigma^-3 exp(-x^2 / 2 sigma^2); 0 for x <= 0 and where exp is 0."""
    x = _reject_nan(x, "pdf")
    if x <= 0.0:
        return 0.0
    s = p.sigma
    z = x / s
    e = math.exp(-0.5 * z * z)
    return _SQRT_2_OVER_PI * z * z / s * e if e else 0.0


def cdf(x: float, p: MaxwellParams) -> float:
    """Distribution function erf(x / sigma sqrt(2)) - sqrt(2/pi)(x/sigma) e^{-x^2/2s^2}."""
    x = _reject_nan(x, "cdf")
    if x <= 0.0:
        return 0.0
    z = x / p.sigma
    return erf(z / _SQRT2) - _z_density(z)


def survival(x: float, p: MaxwellParams) -> float:
    """Tail probability 1 - F(x), accurate in relative terms for large x.

    Both summands of the erfc-based form are nonnegative, so the result can
    never go negative through cancellation.
    """
    x = _reject_nan(x, "survival")
    if x <= 0.0:
        return 1.0
    z = x / p.sigma
    return erfc(z / _SQRT2) + _z_density(z)


def _tail_partial_sum(x: float, p: MaxwellParams, terms: int) -> float:
    r = (p.sigma / x) ** 2
    total = 0.0
    for coef in reversed(_TAIL_COEFFS[:terms]):
        total = total * r + coef
    return total


def tail_expansion(x: float, p: MaxwellParams, terms: int = 4) -> float:
    """Asymptotic tail approximation sigma^2 x^-1 f(x) (1 + (s/x)^2 - (s/x)^4 + 3(s/x)^6).

    `terms` truncates the bracketed series after 1..4 terms; the remainder of
    the full 4-term form is O((sigma/x)^8).
    """
    x = _reject_nan(x, "tail_expansion")
    if x <= 0.0:
        raise DomainError(f"tail_expansion requires x > 0, got {x}")
    if terms not in (1, 2, 3, 4):
        raise DomainError(f"terms must be in 1..4, got {terms}")
    return _z_density(x / p.sigma) * _tail_partial_sum(x, p, terms)


def tail_remainder(x: float, p: MaxwellParams) -> float:
    """Relative remainder survival(x)/(sigma^2 x^-1 f(x)) minus the 4-term series.

    Evaluated through the scaled complementary error function, so it stays
    meaningful even where survival itself underflows double precision
    (x beyond roughly 37 sigma). Scaled by (x/sigma)^8 it tends to -15.
    """
    from scipy.special import erfcx

    x = _reject_nan(x, "tail_remainder")
    if x <= 0.0:
        raise DomainError(f"tail_remainder requires x > 0, got {x}")
    z = x / (p.sigma * _SQRT2)
    # survival / leading = 1 + sqrt(pi) erfcx(z) / (2 z)
    ratio = 1.0 + math.sqrt(math.pi) * float(erfcx(z)) / (2.0 * z)
    return ratio - _tail_partial_sum(x, p, 4)


def sample(rng: Generator, p: MaxwellParams, size=None):
    """Draw Maxwell variates as sigma * chi(3 d.f.).

    A Maxwell variate is the length of a 3-vector of independent standard
    normals; the chi-square(3) primitive of the generator realises the same
    law in a single stream draw per variate. The caller owns the generator:
    concurrent sampling must use independently seeded substreams.
    """
    q = rng.chisquare(3.0, size=size)
    if size is None:
        return p.sigma * math.sqrt(q)
    # numpy evaluates ``array ** 0.5`` with its sqrt loop: the same bits as
    # np.sqrt, without importing numpy here on every call.
    return p.sigma * q ** 0.5


def row_maxima(gamma: np.ndarray, p: MaxwellParams) -> np.ndarray:
    """Per row of a 2-D array of Gamma(3/2) draws, the largest Maxwell variate.

    Bit for bit ``sample(rng, p, n).max()`` for each row drawn with
    ``rng.standard_gamma(1.5, size=n)`` from the stream `sample` would use
    (see the module docstring).
    """
    # ``** 0.5`` runs numpy's sqrt loop, as in `sample`
    return p.sigma * (2.0 * gamma.max(axis=1)) ** 0.5
