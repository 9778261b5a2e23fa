"""The Maxwell distribution: density, distribution, stable tails, sampling.

The survival function is always evaluated through erfc so that it keeps
relative accuracy deep into the tail; it is never computed as 1 - cdf.

Each input is checked once, where it enters the package: the public
functions take x through errors._real and sigma through MaxwellParams; the
kernels `_survival` and `_pdf` of a float x and sigma check nothing. The exact
laws call `_survival` and, for the density, `_survival_pdf`, which returns
both from one exp(-z^2/2) with the bits of `(_survival(x, s), _pdf(x, s))`.
survival keeps its formula over special.erfc, a call the benchmark's tracer
follows; `_survival` uses math.erfc, with the same bits.

`MaxwellParams` is a NamedTuple that stores sigma as a positive finite
float whenever one is built, `_replace` included.

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
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, _domain_error, _integer, _real
from .special import erfc

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


class MaxwellParams(NamedTuple("MaxwellParams", [("sigma", float)])):
    """Scale parameter of the Maxwell law."""

    __slots__ = ()

    def __new__(cls, sigma: float):
        return super().__new__(cls, _real(sigma, "sigma", positive=True))

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


def _z_density(z: float) -> float:
    """sqrt(2/pi) z e^{-z^2/2}, which is sigma^2 x^-1 f(x) at z = x / sigma.

    0.0 where the exponential underflows, also where z * z = inf (not 0 * inf = nan).
    """
    e = math.exp(-0.5 * z * z)
    return _SQRT_2_OVER_PI * z * e if e else 0.0


def _pdf(x: float, s: float) -> float:
    if x <= 0.0:
        return 0.0
    z = x / s
    e = math.exp(-0.5 * z * z)
    return _SQRT_2_OVER_PI * z * z / s * e if e else 0.0


def pdf(x: float, p: MaxwellParams) -> float:
    """Density sqrt(2/pi) x^2 sigma^-3 exp(-x^2 / 2 sigma^2); 0 for x <= 0 and where exp is 0."""
    return _pdf(_real(x, "pdf"), p.sigma)


def cdf(x: float, p: MaxwellParams) -> float:
    """Distribution function erf(x / sigma sqrt(2)) - sqrt(2/pi)(x/sigma) e^{-x^2/2s^2}."""
    x = _real(x, "cdf")
    if x <= 0.0:
        return 0.0
    z = x / p.sigma
    return math.erf(z / _SQRT2) - _z_density(z)


def _survival(x: float, s: float) -> float:
    if x <= 0.0:
        return 1.0
    z = x / s
    return math.erfc(z / _SQRT2) + _z_density(z)


def _survival_pdf(x: float, s: float) -> tuple[float, float]:
    """(_survival(x, s), _pdf(x, s)) bit for bit, from one exp(-z^2/2)."""
    if x <= 0.0:
        return 1.0, 0.0
    z = x / s
    e = math.exp(-0.5 * z * z)
    if not e:
        return math.erfc(z / _SQRT2), 0.0
    return math.erfc(z / _SQRT2) + _SQRT_2_OVER_PI * z * e, _SQRT_2_OVER_PI * z * z / s * e


def survival(x: float, p: MaxwellParams) -> float:
    """Tail probability 1 - F(x), accurate in relative terms for large x.

    Both summands of the erfc-based form are nonnegative, so the result can
    never go negative through cancellation.
    """
    x = _real(x, "survival")
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
    x = _real(x, "tail_expansion")
    if x <= 0.0:
        raise DomainError(f"tail_expansion requires x > 0, got {x}")
    terms = _integer(terms, "terms")
    if not 1 <= terms <= 4:
        raise _domain_error("terms", "in 1..4", terms)
    return _z_density(x / p.sigma) * _tail_partial_sum(x, p, terms)


def tail_remainder(x: float, p: MaxwellParams) -> float:
    """Relative remainder survival(x)/(sigma^2 x^-1 f(x)) minus the 4-term series.

    Evaluated through the scaled complementary error function, so it stays
    meaningful even where survival itself underflows double precision
    (x beyond roughly 37 sigma). Scaled by (x/sigma)^8 it tends to -15.
    """
    from scipy.special import erfcx

    x = _real(x, "tail_remainder")
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
