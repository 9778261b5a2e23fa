"""The Maxwell distribution: density, distribution, stable tails, sampling.

The survival function is always evaluated through erfc so that it keeps
relative accuracy deep into the tail; it is never computed as 1 - cdf.

Each input is checked once, where it enters the package: the public
functions take x through errors._real and sigma through MaxwellParams; the
kernels `_survival` and `_survival_pdf` of a float x and sigma check nothing.
The exact laws call `_survival` and, for the density, `_survival_pdf`, which
returns both from one exp(-z^2/2), the survival with the bits of `_survival`.
The density is written once, there: `pdf` is its second value.
survival keeps its formula over special.erfc, a call the benchmark's tracer
follows; `_survival` uses math.erfc, with the same bits.

`MaxwellParams` is a NamedTuple that stores sigma as a positive finite
float whenever one is built, `_replace` included.

Everything but sampling runs on the standard library alone, and importing
this module loads no numpy: `sample` works on whatever generator the caller
passes. `tail_remainder` forms the quadrature nodes it sums on each call, so
importing the module does no work for it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, _domain_error, _integer, _real
from .special import erfc

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "MaxwellParams",
    "pdf",
    "cdf",
    "survival",
    "tail_expansion",
    "tail_remainder",
    "sample",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT2 = math.sqrt(2.0)
_HALF_PI = 0.5 * math.pi

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


def pdf(x: float, p: MaxwellParams) -> float:
    """Density sqrt(2/pi) x^2 sigma^-3 exp(-x^2 / 2 sigma^2); 0 for x <= 0 and where exp is 0."""
    return _survival_pdf(_real(x, "pdf"), p.sigma)[1]


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
    """(_survival(x, s), density at x) from one exp(-z^2/2); `pdf` returns the second."""
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


def _tail_x(x, p: MaxwellParams, name: str) -> float:
    """x as a float; DomainError unless x > 0 and x/sigma >= 1e-50, below which the
    tail functions, about 2.4 (s/x)^5 and -3 (s/x)^6, near the float range."""
    x = _real(x, name)
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got {x}")
    if x / p.sigma < 1e-50:
        raise DomainError(f"{name} requires x/sigma >= 1e-50, got {x / p.sigma}")
    return x


def _tail_partial_sum(x: float, p: MaxwellParams, terms: int) -> float:
    r = (p.sigma / x) ** 2
    total = 0.0
    for coef in reversed(_TAIL_COEFFS[:terms]):
        total = total * r + coef
    return total


def tail_expansion(x: float, p: MaxwellParams, terms: int = 4) -> float:
    """Asymptotic tail approximation sigma^2 x^-1 f(x) (1 + (s/x)^2 - (s/x)^4 + 3(s/x)^6).

    `terms` truncates the bracketed series after 1..4 terms; the remainder of
    the full 4-term form is O((sigma/x)^8). DomainError below x/sigma = 1e-50.
    """
    x = _tail_x(x, p, "tail_expansion")
    terms = _integer(terms, "terms")
    if not 1 <= terms <= 4:
        raise _domain_error("terms", "in 1..4", terms)
    return _z_density(x / p.sigma) * _tail_partial_sum(x, p, terms)


def tail_remainder(x: float, p: MaxwellParams) -> float:
    """Relative remainder survival(x)/(sigma^2 x^-1 f(x)) minus the 4-term series.

    Within a few ulp of the exact value for every x/sigma from 1e-50 (a
    DomainError below, as for tail_expansion) to 1e38, where it leaves the
    normal floats, also where survival itself underflows (x beyond roughly
    37 sigma); scaled by (x/sigma)^8 it tends to -15.
    With z = x/sigma:

    - below z = 2 it is that difference, which does not cancel there: the
      ratio is 1 + sqrt(pi) erfcx(w) / (2 w) at w = z/sqrt(2), with
      erfcx(w) = exp(w^2) erfc(w);
    - from z = 2 up it is -15 z^-8 J(z), the Mills-ratio remainder after three
      terms integrated by parts (Abramowitz & Stegun 7.1.23), where
      J(z) = int_0^inf exp(-v - v^2/(2 z^2)) (1 + v/z^2)^-6 dv. Every term is
      positive, so nothing cancels, and J -> 1 as z -> inf. J is summed by
      exp-sinh quadrature over v = exp((pi/2) sinh tau) at tau = k/16,
      k = -62..25 (v from 4e-17 to 36); a node outside that range adds under
      1e-17 to J. Where z^-8 underflows, so does the value, and the result
      is -0.0.
    """
    x = _tail_x(x, p, "tail_remainder")
    z = x / p.sigma
    if z < 2.0:
        w = z / _SQRT2
        ratio = 1.0 + math.sqrt(math.pi) * math.exp(w * w) * math.erfc(w) / (2.0 * w)
        return ratio - _tail_partial_sum(x, p, 4)
    a = 1.0 / (z * z)  # 0 where z * z overflows: then J = 1
    total = 0.0
    for k in range(-62, 26):
        tau = k / 16
        v = math.exp(_HALF_PI * math.sinh(tau))
        total += math.cosh(tau) * v * math.exp(-v * (1.0 + 0.5 * a * v)) / (1.0 + a * v) ** 6
    return -15.0 * (a * a) ** 2 * (total * _HALF_PI / 16)


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
