"""Expansion coefficients and order-1/2/3 approximations for powered maxima.

The distribution of the normalized powered maximum admits an expansion

    Lambda(x) [1 + k1(x) b_n^-2 + k2(x) b_n^-4 + ...]      (general power t)
    Lambda(x) [1 + k1(x) b_n^-4 + k2(x) b_n^-6 + ...]      (t = 2, optimal)

and the density the analogous expansion around Lambda'(x). Each coefficient
has one form, the derivative-consistent one: differentiating the order-k
distribution approximation reproduces the order-k density approximation
exactly. The adjudication experiment and the large-n rate diagnostics
validate these forms, and cdf_approx and pdf_approx use them.

The ``*_tabulated`` approximations reproduce the golden reference error
tables exactly, with the classic second-order pair at t = 2, sign
conventions and closed-form norming inherited from the original tabulation
(see exact.error_table).

Each coefficient is a private function of (t, x), or of x at t = 2, stated
at sigma = 1. The coefficient of b_n^-2k carries sigma^2k, so the
approximations evaluate it against z = b_n / sigma: no power of sigma can
leave the float range, and each keeps its sigma = 1 value at every sigma
that solve_bn accepts. A kernel that needs e^{-x} (every density kernel, and
the alternative scheme's distribution corrections) takes it as its argument
`emx`, so each approximation evaluates exp(-x) once per call, after its
Gumbel factor.

Each input is checked once, where it enters the package: the approximations
validate their (t, scheme) through norming.validate_scheme and take x through
errors._real, so a numpy float32 x is used as its float; the Gumbel and the
coefficient kernels below run unchecked. cdf_approx alone takes Lambda(x)
from the public gumbel_cdf, a call the benchmark's tracer follows; its check
of the float x passes at once.

Where the Gumbel factor underflows to 0.0 the approximations return it
as is, before evaluating any exp(-x) coefficient: far below the mode those
coefficients overflow, while the true approximation underflows. Far above
the mode, where exp(-x) underflows to 0.0, the distribution approximations
return Lambda(x) = 1 the same way, before a polynomial in x can overflow;
the densities are 0 there.

All functions are scalar and pure.
"""
from __future__ import annotations

import math

from .errors import ConfigurationError, DomainError, _real
from .norming import _GENERAL, _OPTIMAL, NormingBase, Scheme, validate_scheme
from .special import _gumbel_cdf, _gumbel_pdf, gumbel_cdf

__all__ = [
    "cdf_approx",
    "pdf_approx",
    "cdf_approx_tabulated",
    "pdf_approx_tabulated",
    "hall_error_leading",
]


def _order_error(order) -> ConfigurationError:
    return ConfigurationError(f"expansion order must be 1, 2 or 3, got {order!r}")


# ---------------------------------------------------------------- general t

def _cdf_coeff1_general(t, x):
    return 1.0 + x * (1.0 + 0.5 * (t - 2.0) * x)


def _cdf_coeff2_general(t, x):
    c4 = (t - 2.0) ** 2 / 8.0
    c3 = (t - 2.0) * (5.0 - 2.0 * t) / 6.0
    return (((c4 * x + c3) * x - 0.5) * x - 1.0) * x - 1.0


def _pdf_coeff1_general(t, x, emx):
    # -e^{-x} A1 + A1 - A1'
    return -emx * _cdf_coeff1_general(t, x) + x * (0.5 * (t - 2.0) * x + 3.0 - t)


def _pdf_coeff2_general(t, x, emx):
    a1 = _cdf_coeff1_general(t, x)
    a2 = _cdf_coeff2_general(t, x)
    d1 = 1.0 + (t - 2.0) * x  # A1'
    c3 = (t - 2.0) ** 2 / 2.0
    c2 = (t - 2.0) * (5.0 - 2.0 * t) / 2.0
    d2 = ((c3 * x + c2) * x - 1.0) * x - 1.0  # A2'
    return 0.5 * emx * emx * a1 * a1 - emx * (a2 + a1 * (a1 - d1)) + (a2 - d2)


# ---------------------------------------------------------------- t = 2

def _cdf_coeff1_square(x):
    return -((x + 1.0) * x + 0.5)


def _cdf_coeff2_square(x):
    return ((4.0 / 3.0 * x + 2.0) * x + 2.0) * x + 7.0 / 3.0


def _pdf_coeff1_square(x, emx):
    return ((x + 1.0) * x + 0.5) * emx + (1.0 - x) * x + 0.5


def _pdf_coeff2_square(x, emx):
    # -e^{-x} B2 + B2 - B2'
    b2 = _cdf_coeff2_square(x)
    d2 = (4.0 * x + 4.0) * x + 2.0  # B2'
    return -emx * b2 + b2 - d2


# ------------------------------------------------- t = 2, alternative scheme

def _square_alt_cdf_corrections(x, emx):
    # correction coefficients of b^-2 and b^-4
    u1 = -2.0 * (x + 1.0) * emx
    u2 = emx * (2.0 * emx * (x + 1.0) ** 2 - (x + 1.0) * x + 0.5)
    return u1, u2


def _square_alt_pdf_corrections(x, emx):
    w1 = 2.0 * (x - (x + 1.0) * emx)
    w2 = (2.0 * emx * emx * (x + 1.0) ** 2
          - ((5.0 * x + 5.0) * x - 0.5) * emx
          + (x - 1.0) * x - 1.5)
    return w1, w2


# ------------------------------------------------------------ approximations

def cdf_approx(order: int, t: float, x: float, base: NormingBase,
               scheme: Scheme = Scheme.GENERAL_POWER) -> float:
    """Order-1/2/3 approximation of P(|M_n|^t <= c_n x + d_n).

    Order 1 is the plain Gumbel limit for every scheme; order k adds the
    first k-1 correction terms of the scheme's expansion.
    """
    if order not in (1, 2, 3):
        raise _order_error(order)
    t, scheme = validate_scheme(t, scheme)
    x = _real(x, "x")
    lam = gumbel_cdf(x)  # checks x again, at once: the call the benchmark's tracer follows
    if order == 1 or lam == 0.0:
        return lam
    emx = math.exp(-x)
    if emx == 0.0:
        return lam
    z = base.b_n / base.sigma
    u = 1.0 / (z * z)
    if scheme is _GENERAL:
        a1 = _cdf_coeff1_general(t, x)
        bracket = 1.0 - emx * a1 * u
        if order == 3:
            a2 = _cdf_coeff2_general(t, x)
            bracket += emx * (0.5 * emx * a1 * a1 - a2) * u * u
    elif scheme is _OPTIMAL:
        u2 = u * u
        bracket = 1.0 - emx * _cdf_coeff1_square(x) * u2
        if order == 3:
            bracket -= emx * _cdf_coeff2_square(x) * u2 * u
    else:
        k1, k2 = _square_alt_cdf_corrections(x, emx)
        bracket = 1.0 + k1 * u
        if order == 3:
            bracket += k2 * u * u
    return lam * bracket


def pdf_approx(order: int, t: float, x: float, base: NormingBase,
               scheme: Scheme = Scheme.GENERAL_POWER) -> float:
    """Order-1/2/3 approximation of the density of (|M_n|^t - d_n)/c_n."""
    if order not in (1, 2, 3):
        raise _order_error(order)
    t, scheme = validate_scheme(t, scheme)
    x = _real(x, "x")
    lamp = _gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    emx = math.exp(-x)
    z = base.b_n / base.sigma
    u = 1.0 / (z * z)
    if scheme is _GENERAL:
        bracket = 1.0 + _pdf_coeff1_general(t, x, emx) * u
        if order == 3:
            bracket += _pdf_coeff2_general(t, x, emx) * u * u
    elif scheme is _OPTIMAL:
        u2 = u * u
        bracket = 1.0 + _pdf_coeff1_square(x, emx) * u2
        if order == 3:
            bracket += _pdf_coeff2_square(x, emx) * u2 * u
    else:
        k1, k2 = _square_alt_pdf_corrections(x, emx)
        bracket = 1.0 + k1 * u
        if order == 3:
            bracket += k2 * u * u
    return lamp * bracket


# The classic second-order pair of the golden tables at t = 2: _cdf_coeff2_square
# with its linear term's sign flipped, and -e^{-x} times that plus a stated polynomial.
def _cdf_coeff2_classic(x):
    return ((4.0 / 3.0 * x + 2.0) * x - 2.0) * x + 7.0 / 3.0


def _pdf_coeff2_classic(x, emx):
    poly = ((4.0 / 3.0 * x - 2.0) * x - 2.0) * x + 1.0 / 3.0
    return -emx * _cdf_coeff2_classic(x) + poly


def cdf_approx_tabulated(order: int, x: float, base: NormingBase) -> float:
    """Square-power distribution approximation in the golden-table convention.

    Matches the reference tables when `base` carries the closed-form b_hat
    (see norming.hall_base): the first correction enters with the opposite
    sign to cdf_approx and the second uses the classic coefficient.
    """
    if order not in (1, 2, 3):
        raise _order_error(order)
    x = _real(x, "x")
    lam = _gumbel_cdf(x)
    if order == 1 or lam == 0.0:
        return lam
    emx = math.exp(-x)
    if emx == 0.0:
        return lam
    z = base.b_n / base.sigma
    u2 = 1.0 / z ** 4
    bracket = 1.0 + emx * _cdf_coeff1_square(x) * u2
    if order == 3:
        bracket -= emx * _cdf_coeff2_classic(x) * u2 / (z * z)
    return lam * bracket


def pdf_approx_tabulated(order: int, x: float, base: NormingBase) -> float:
    """Square-power density approximation in the golden-table convention."""
    if order not in (1, 2, 3):
        raise _order_error(order)
    x = _real(x, "x")
    lamp = _gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    emx = math.exp(-x)
    z = base.b_n / base.sigma
    u2 = 1.0 / z ** 4
    bracket = 1.0 + _pdf_coeff1_square(x, emx) * u2
    if order == 3:
        bracket -= _pdf_coeff2_classic(x, emx) * u2 / (z * z)
    return lamp * bracket


# ------------------------------------------------------------- diagnostics

def hall_error_leading(n: int, x: float) -> float:
    """Leading error term Lambda(x) e^{-x} log(2 log n)^2 / (16 log n).

    Describes the non-powered maximum under the closed-form constants. It is
    scale-free, so it takes no sigma. n is real here, not only an integer.
    """
    n = _real(n, "n", positive=True)
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    x = _real(x, "x")
    lam = _gumbel_cdf(x)
    if lam == 0.0:
        return lam
    log_n = math.log(n)
    return lam * math.exp(-x) * math.log(2.0 * log_n) ** 2 / (16.0 * log_n)
