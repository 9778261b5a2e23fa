"""Normalizing constants for maxima of Maxwell samples.

The base constant b_n solves

    sqrt(pi/2) (sigma / b) exp(b^2 / 2 sigma^2) = n         (b > sigma)

and a_n = sigma^2 / b_n. `hall_base` gives the closed-form pair of Hall
(1979), whose b_hat also seeds the solver. A root exists only for n >= 3;
`_check_n_sigma` states that rule and sigma's once, for both and so for all
their callers. Powered maxima |M_n|^t use linear constants (c_n, d_n) of one
family: the general-power pair c = sigma^2 t b_n^(t-2), d = b_n^t, shifted by
u = s sigma^2 / b_n^2 to c (1 + u), d + c u. The general-power scheme has
s = 0; at t = 2 the "optimal" pair (s = +1) converges faster than the
"alternative" one (s = -1). _SHIFT states s per scheme; default_scheme, next
to validate_scheme, states the `auto` choice. Both results, NormingBase and
PoweredNorming, are plain NamedTuples.

solve_bn memoizes its root per validated (n, sigma) pair, for the last 1024
pairs, so a repeat call returns the same immutable NormingBase record.
"""
from __future__ import annotations

import enum
import functools
import math
import sys
from typing import NamedTuple

from .errors import ConfigurationError, DomainError, NoRootError, _echo, _integer, _real

__all__ = [
    "Scheme",
    "NormingBase",
    "PoweredNorming",
    "solve_bn",
    "equation_residual",
    "powered_constants",
    "hall_base",
    "validate_scheme",
    "default_scheme",
]

# Minimum of sqrt(pi/2) (sigma/b) exp(b^2/2s^2) over b > 0 is sqrt(pi/2) e^0.5
# ~ 2.066, attained at b = sigma; a root with b > sigma exists iff n > that.
_MIN_N = 3


class Scheme(str, enum.Enum):
    """Norming scheme for the powered maximum."""

    GENERAL_POWER = "general-power"
    SQUARE_OPTIMAL = "square-optimal"
    SQUARE_ALTERNATIVE = "square-alternative"


# Bound once: a member read through its class costs over ten times a module
# global read (CPython 3.11), and the approximations test the scheme per call.
_GENERAL, _OPTIMAL, _ALTERNATIVE = (
    Scheme.GENERAL_POWER, Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE)
_SHIFT = {_GENERAL: 0.0, _OPTIMAL: 1.0, _ALTERNATIVE: -1.0}
_FLOAT_MIN = sys.float_info.min


class NormingBase(NamedTuple):
    """Base constants (b_n, a_n) for n and sigma: solve_bn's root or hall_base's closed form."""

    n: int
    sigma: float
    b_n: float
    a_n: float


class PoweredNorming(NamedTuple):
    """Linear norming (c_n, d_n) for |M_n|^t under a given scheme."""

    t: float
    scheme: Scheme
    c_n: float
    d_n: float


def _check_n_sigma(n, sigma):
    """(n, sigma) as (int, float) by the one rule for the root's inputs: DomainError
    unless n is an integer and sigma^2 a normal finite float (a subnormal or
    overflowing square would wreck the root), then NoRootError unless n >= 3.
    A plain int n and a finite positive plain float sigma, every grid's case,
    are tested in-line."""
    if type(n) is not int:
        n = _integer(n, "n")
    if type(sigma) is not float or not 0.0 < sigma < math.inf:
        sigma = _real(sigma, "sigma", positive=True)
    if not _FLOAT_MIN <= sigma * sigma < math.inf:
        raise DomainError(f"sigma^2 must be a normal finite float, got sigma = {sigma!r}")
    if n < _MIN_N:
        raise NoRootError(f"no root with b > sigma exists for n = {_echo(n)}; "
                          f"need n >= {_MIN_N}")
    return n, sigma


def _log_residual(b: float, log_n: float, sigma: float) -> float:
    # log LHS - log n of the norming equation
    return (
        0.5 * math.log(math.pi / 2.0)
        + math.log(sigma)
        - math.log(b)
        + b * b / (2.0 * sigma * sigma)
        - log_n
    )


def equation_residual(b: float, n: int, sigma: float) -> float:
    """Relative residual (LHS - n)/n of the norming equation, in log space.

    exp(h) - 1 where h = log LHS - log n; exact for assessing the solve and
    immune to overflow of exp(b^2/2 sigma^2) at astronomical n. DomainError
    unless b and sigma are reals and n an integer, where one of them is not
    positive, or where b is so far above the root that the residual overflows.
    """
    b, n, sigma = _real(b, "b"), _integer(n, "n"), _real(sigma, "sigma", positive=True)
    try:
        residual = math.expm1(_log_residual(b, math.log(n), sigma))
    except (ValueError, OverflowError):  # log of a value <= 0; exp beyond float range
        residual = math.nan
    if not math.isfinite(residual):
        raise DomainError(
            f"no finite norming residual at b = {b!r}, n = {_echo(n)}, sigma = {sigma!r}")
    return residual


def solve_bn(n: int, sigma: float = 1.0) -> NormingBase:
    """Solve the norming equation for b_n on the b > sigma branch.

    Newton iteration on the log-form residual, seeded with the closed-form
    constant and safeguarded by bisection on [sigma, 4 sigma sqrt(log n)].
    The returned root satisfies |relative residual| <= max(1e-13,
    4 eps log n), with eps the double-precision machine epsilon: the log
    residual is a sum of terms of size log n, so above n ~ 1e120 its rounding
    alone exceeds 1e-13. Raises what _check_n_sigma raises (NoRootError for
    n < 3), and DomainError where b_n^2 overflows before the root is reached
    (sigma of order 1e153 and above).

    The root is memoized per validated (n, sigma), an int and a float, for
    the last 1024 pairs: a repeat call returns the same immutable record.
    Validation runs on every call, before the cache is consulted, since
    True == 1.0 and Fraction(25) == 25 hash equal to valid keys.
    """
    return _solve_root(*_check_n_sigma(n, sigma))


@functools.lru_cache(maxsize=1024)
def _solve_root(n: int, sigma: float) -> NormingBase:
    # solve_bn's root for a validated int n >= _MIN_N and float sigma
    log_n = math.log(n)
    s2 = sigma * sigma
    lo = sigma
    hi = 4.0 * sigma * math.sqrt(max(1.0, log_n))
    b = _b_hat(log_n, sigma)
    b = min(max(b, lo * 1.0001), hi * 0.9999)
    for _ in range(100):
        val = _log_residual(b, log_n, sigma)
        if abs(val) < 1e-15:
            break
        if val > 0.0:
            hi = b
        else:
            lo = b
        step = val / (b / s2 - 1.0 / b)  # residual slope b/s^2 - 1/b > 0 on b > sigma
        b_new = b - step
        if not (lo < b_new < hi):
            b_new = 0.5 * (lo + hi)
        if b_new == b:
            break
        b = b_new
    if not abs(val) < 1e-9:  # b^2 overflows before the root is reached
        raise DomainError(f"b_n^2 overflows for n = {_echo(n)}, sigma = {sigma!r}")
    return NormingBase(n, sigma, b, s2 / b)


def _b_hat(log_n: float, sigma: float) -> float:
    # Hall's closed-form b_n, matching a_n = sigma / sqrt(2 log n)
    root = math.sqrt(2.0 * log_n)
    return sigma * root + sigma * (math.log(2.0 * log_n) + math.log(2.0 / math.pi)) / (2.0 * root)


def hall_base(n: int, sigma: float = 1.0) -> NormingBase:
    """Hall's closed-form pair a_n = sigma/sqrt(2 log n) and b_n = b_hat.

    b_hat agrees with the solved root only to first asymptotic order, so it
    misses solve_bn's residual contract; it is the convention behind the
    golden reference error tables. Its inputs pass solve_bn's check.
    """
    n, sigma = _check_n_sigma(n, sigma)
    log_n = math.log(n)
    return NormingBase(n, sigma, _b_hat(log_n, sigma), sigma / math.sqrt(2.0 * log_n))


_SCHEMES = {s.value: s for s in Scheme}


def validate_scheme(t: float, scheme: Scheme) -> tuple[float, Scheme]:
    """Check scheme/power compatibility; returns the pair (t as float, Scheme member).

    `scheme` is a Scheme member or its string value; a str-enum member hashes
    and compares equal to its value, so one dict lookup resolves both. Raises
    DomainError unless t is a positive finite real, and ConfigurationError for
    an unknown or unhashable scheme or a scheme that does not fit t.
    """
    if type(t) is not float or not 0.0 < t < math.inf:  # a float in (0, inf) passes as is
        t = _real(t, "power index t", positive=True)
    if type(scheme) is not Scheme:
        try:
            scheme = _SCHEMES[scheme]
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"unknown scheme {_echo(scheme)}; expected one of {', '.join(_SCHEMES)}"
            ) from None
    if (scheme is _GENERAL) == (t == 2.0):  # one test for both misfits
        if scheme is _GENERAL:
            raise ConfigurationError(
                "general-power constants are undefined at t = 2; use a square scheme")
        raise ConfigurationError(f"scheme {scheme.value} requires t = 2, got t = {t}")
    return t, scheme


def default_scheme(t: float) -> Scheme:
    """Square-optimal at t = 2, general-power otherwise; DomainError for a non-real t."""
    return _OPTIMAL if _real(t, "power index t") == 2.0 else _GENERAL


def powered_constants(base: NormingBase, t: float, scheme: Scheme) -> PoweredNorming:
    """Construct (c_n, d_n) for |M_n|^t from solved base constants.

    Raises DomainError unless 0 < b_n < inf, where c_n or d_n overflows, and
    where c_n is below the smallest normal float: it keeps too few bits to
    scale x (a large t, or an extreme b_n or sigma), or a shift left it <= 0
    (b_n <= sigma, only in a hand-built NormingBase).
    """
    t, scheme = validate_scheme(t, scheme)
    b, s2 = base.b_n, base.sigma * base.sigma
    if not 0.0 < b < math.inf:
        raise DomainError(f"powered constants need 0 < b_n < inf, got b_n = {b!r}")
    try:
        c = s2 * t * b ** (t - 2.0)
        d = b * b if t == 2.0 else b**t
    except OverflowError:  # float ** float raises instead of returning inf
        c = d = math.inf
    shift = _SHIFT[scheme]
    if shift:  # a square pair; u < 1 (b_n > sigma), so no power past sigma^2 is formed
        u = shift * s2 / (b * b) if b * b else shift * math.inf  # b_n^2 may underflow
        c, d = c * (1.0 + u), d + c * u
    if not (_FLOAT_MIN <= c < math.inf and math.isfinite(d)):
        raise DomainError(
            f"powered constants out of range at b_n = {b!r}, t = {t}: "
            f"c_n = {c!r}, d_n = {d!r}; need {_FLOAT_MIN!r} <= c_n and both finite"
        )
    return PoweredNorming(t, scheme, c, d)
