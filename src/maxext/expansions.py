"""Expansion coefficients and order-1/2/3 approximations for powered maxima.

The distribution of the normalized powered maximum admits an expansion

    Lambda(x) [1 + k1(x) b_n^-2 + k2(x) b_n^-4 + ...]      (general power t)
    Lambda(x) [1 + k1(x) b_n^-4 + k2(x) b_n^-6 + ...]      (t = 2, optimal)

and the density the analogous expansion around Lambda'(x). cdf_approx and
pdf_approx use the derivative-consistent coefficients, obtained by
expanding the exact distribution: differentiating the order-k distribution
approximation reproduces the order-k density approximation exactly. These
are the forms validated by the adjudication experiment and the large-n rate
diagnostics. ``consistent=False`` selects the classic closed forms of a
coefficient as traditionally stated. For the general power index they
differ from the consistent ones in the x^2 term of the first density
coefficient (and throughout the second); for the square case they differ
in one sign of the second-order coefficient pair.

The ``*_tabulated`` approximations reproduce the golden reference error
tables exactly; they combine the classic second-order coefficients with
sign conventions and closed-form norming inherited from the original
tabulation (see exact.error_table).

A coefficient of b_n^-2k carries sigma^2k, so the approximations take their
coefficients at sigma = 1 against z = b_n / sigma: no power of sigma can
leave the float range, and each keeps its sigma = 1 value at every sigma
that solve_bn accepts.

Public functions validate their (t, scheme) once, through
norming.validate_scheme; the private kernels they call run unchecked.

Where the Gumbel factor underflows to 0.0 the approximations return it
as is, before evaluating any exp(-x) coefficient: far below the mode those
coefficients overflow, while the true approximation underflows.

All functions are scalar and pure.
"""
from __future__ import annotations

import math

from .errors import ConfigurationError, DomainError
from .norming import NormingBase, Scheme, validate_scheme
from .special import gumbel_cdf, gumbel_pdf

__all__ = [
    "cdf_coeff1_general",
    "cdf_coeff2_general",
    "cdf_coeff1_square",
    "cdf_coeff2_square",
    "pdf_coeff1_general",
    "pdf_coeff2_general",
    "pdf_coeff1_square",
    "pdf_coeff2_square",
    "square_alt_cdf_corrections",
    "square_alt_pdf_corrections",
    "cdf_approx",
    "pdf_approx",
    "cdf_approx_tabulated",
    "pdf_approx_tabulated",
    "hall_error_leading",
]


def _check_order(order: int) -> int:
    if order not in (1, 2, 3):
        raise ConfigurationError(f"expansion order must be 1, 2 or 3, got {order!r}")
    return order


# ---------------------------------------------------------------- general t

def cdf_coeff1_general(t: float, x: float, sigma: float) -> float:
    """First distribution coefficient sigma^2 [1 + x + (t-2) x^2 / 2]."""
    t, _ = validate_scheme(t, Scheme.GENERAL_POWER)
    return _cdf_coeff1_general(t, x, sigma)


def _cdf_coeff1_general(t, x, sigma):
    return sigma * sigma * (1.0 + x * (1.0 + 0.5 * (t - 2.0) * x))


def cdf_coeff2_general(t: float, x: float, sigma: float) -> float:
    """Second distribution coefficient (quartic polynomial in x)."""
    t, _ = validate_scheme(t, Scheme.GENERAL_POWER)
    return _cdf_coeff2_general(t, x, sigma)


def _cdf_coeff2_general(t, x, sigma):
    s2 = sigma * sigma
    c4 = (t - 2.0) ** 2 / 8.0
    c3 = (t - 2.0) * (5.0 - 2.0 * t) / 6.0
    poly = (((c4 * x + c3) * x - 0.5) * x - 1.0) * x - 1.0
    return s2 * s2 * poly


def _d_cdf_coeff1_general(t, x, sigma):
    return sigma * sigma * (1.0 + (t - 2.0) * x)


def _d_cdf_coeff2_general(t, x, sigma):
    s2 = sigma * sigma
    c3 = (t - 2.0) ** 2 / 2.0
    c2 = (t - 2.0) * (5.0 - 2.0 * t) / 2.0
    return s2 * s2 * (((c3 * x + c2) * x - 1.0) * x - 1.0)


def pdf_coeff1_general(t: float, x: float, sigma: float, consistent: bool = True) -> float:
    """First density coefficient for general power index.

    The consistent form is -e^{-x} A1 + A1 - A1' with A1 the first
    distribution coefficient; the classic form carries (t-2) x^2 in place of
    (t-2) x^2 / 2 in the polynomial part.
    """
    t, _ = validate_scheme(t, Scheme.GENERAL_POWER)
    return _pdf_coeff1_general(t, x, sigma, consistent)


def _pdf_coeff1_general(t, x, sigma, consistent):
    a1 = _cdf_coeff1_general(t, x, sigma)
    s2 = sigma * sigma
    if consistent:
        return -math.exp(-x) * a1 + s2 * x * (0.5 * (t - 2.0) * x + 3.0 - t)
    return -math.exp(-x) * a1 + s2 * x * ((t - 2.0) * x + 3.0 - t)


def pdf_coeff2_general(t: float, x: float, sigma: float, consistent: bool = True) -> float:
    """Second density coefficient for general power index."""
    t, _ = validate_scheme(t, Scheme.GENERAL_POWER)
    return _pdf_coeff2_general(t, x, sigma, consistent)


def _pdf_coeff2_general(t, x, sigma, consistent):
    if consistent:
        a1 = _cdf_coeff1_general(t, x, sigma)
        a2 = _cdf_coeff2_general(t, x, sigma)
        d1 = _d_cdf_coeff1_general(t, x, sigma)
        d2 = _d_cdf_coeff2_general(t, x, sigma)
        emx = math.exp(-x)
        return 0.5 * emx * emx * a1 * a1 - emx * (a2 + a1 * (a1 - d1)) + (a2 - d2)
    s2 = sigma * sigma
    s4 = s2 * s2
    emx = math.exp(-x)
    sq = 0.5 * (t - 2.0) * x * x + x + 1.0
    poly_e = ((0.625 * (t - 2.0) * x - (t - 2.0) * (5.0 * t / 6.0 - 10.0 / 3.0)) * x
              + (2.0 * t + 0.5)) * x * x - 1.0
    poly = (((t - 2.0) ** 2 / 8.0 * x - (t - 2.0) * (5.0 * t / 6.0 - 11.0 / 6.0)) * x
            + 0.5 * (t - 3.0) * (2.0 * t - 3.0)) * x
    return s4 * (0.5 * sq * sq * emx * emx - poly_e * emx + poly)


# ---------------------------------------------------------------- t = 2

def cdf_coeff1_square(x: float, sigma: float) -> float:
    """First distribution coefficient at t = 2: -sigma^4 (x^2 + x + 1/2)."""
    s2 = sigma * sigma
    return -s2 * s2 * ((x + 1.0) * x + 0.5)


def cdf_coeff2_square(x: float, sigma: float, consistent: bool = True) -> float:
    """Second distribution coefficient at t = 2.

    The two variants differ only in the sign of the linear term:
    (4/3) x^3 + 2 x^2 + 2 x + 7/3 (consistent) versus - 2 x (classic).
    """
    s6 = sigma ** 6
    lin = 2.0 if consistent else -2.0
    return s6 * (((4.0 / 3.0 * x + 2.0) * x + lin) * x + 7.0 / 3.0)


def _d_cdf_coeff2_square(x, sigma):  # of the consistent form
    return sigma ** 6 * ((4.0 * x + 4.0) * x + 2.0)


def pdf_coeff1_square(x: float, sigma: float) -> float:
    """First density coefficient at t = 2 (unique; both variants coincide)."""
    s4 = sigma ** 4
    return s4 * (((x + 1.0) * x + 0.5) * math.exp(-x) + (1.0 - x) * x + 0.5)


def pdf_coeff2_square(x: float, sigma: float, consistent: bool = True) -> float:
    """Second density coefficient at t = 2: -e^{-x} B + B - B' over the matching B."""
    b2 = cdf_coeff2_square(x, sigma, consistent=consistent)
    if consistent:
        return -math.exp(-x) * b2 + b2 - _d_cdf_coeff2_square(x, sigma)
    # classic closed form keeps the traditionally stated polynomial part
    s6 = sigma ** 6
    poly = ((4.0 / 3.0 * x - 2.0) * x - 2.0) * x + 1.0 / 3.0
    return -math.exp(-x) * b2 + s6 * poly


# ------------------------------------------------- t = 2, alternative scheme

def square_alt_cdf_corrections(x: float, sigma: float) -> tuple[float, float]:
    """Correction coefficients (order b^-2 and b^-4) under the alternative scheme."""
    s2 = sigma * sigma
    emx = math.exp(-x)
    u1 = -2.0 * s2 * (x + 1.0) * emx
    u2 = s2 * s2 * emx * (2.0 * emx * (x + 1.0) ** 2 - (x + 1.0) * x + 0.5)
    return u1, u2


def square_alt_pdf_corrections(x: float, sigma: float) -> tuple[float, float]:
    """Density counterparts of square_alt_cdf_corrections."""
    s2 = sigma * sigma
    emx = math.exp(-x)
    w1 = 2.0 * s2 * (x - (x + 1.0) * emx)
    w2 = s2 * s2 * (2.0 * emx * emx * (x + 1.0) ** 2
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
    _check_order(order)
    t, scheme = validate_scheme(t, scheme)
    lam = gumbel_cdf(x)
    if order == 1 or lam == 0.0:
        return lam
    z = base.b_n / base.sigma
    u = 1.0 / (z * z)
    emx = math.exp(-x)
    if scheme is Scheme.GENERAL_POWER:
        a1 = _cdf_coeff1_general(t, x, 1.0)
        bracket = 1.0 - emx * a1 * u
        if order == 3:
            a2 = _cdf_coeff2_general(t, x, 1.0)
            bracket += emx * (0.5 * emx * a1 * a1 - a2) * u * u
    elif scheme is Scheme.SQUARE_OPTIMAL:
        u2 = u * u
        bracket = 1.0 - emx * cdf_coeff1_square(x, 1.0) * u2
        if order == 3:
            bracket -= emx * cdf_coeff2_square(x, 1.0) * u2 * u
    else:
        k1, k2 = square_alt_cdf_corrections(x, 1.0)
        bracket = 1.0 + k1 * u
        if order == 3:
            bracket += k2 * u * u
    return lam * bracket


def pdf_approx(order: int, t: float, x: float, base: NormingBase,
               scheme: Scheme = Scheme.GENERAL_POWER) -> float:
    """Order-1/2/3 approximation of the density of (|M_n|^t - d_n)/c_n."""
    _check_order(order)
    t, scheme = validate_scheme(t, scheme)
    lamp = gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    z = base.b_n / base.sigma
    u = 1.0 / (z * z)
    if scheme is Scheme.GENERAL_POWER:
        bracket = 1.0 + _pdf_coeff1_general(t, x, 1.0, True) * u
        if order == 3:
            bracket += _pdf_coeff2_general(t, x, 1.0, True) * u * u
    elif scheme is Scheme.SQUARE_OPTIMAL:
        u2 = u * u
        bracket = 1.0 + pdf_coeff1_square(x, 1.0) * u2
        if order == 3:
            bracket += pdf_coeff2_square(x, 1.0) * u2 * u
    else:
        k1, k2 = square_alt_pdf_corrections(x, 1.0)
        bracket = 1.0 + k1 * u
        if order == 3:
            bracket += k2 * u * u
    return lamp * bracket


def cdf_approx_tabulated(order: int, x: float, base: NormingBase) -> float:
    """Square-power distribution approximation in the golden-table convention.

    Matches the reference tables when `base` carries the closed-form b_hat
    (see norming.hall_base): the first correction enters with the opposite
    sign to cdf_approx and the second uses the classic coefficient.
    """
    _check_order(order)
    lam = gumbel_cdf(x)
    if order == 1 or lam == 0.0:
        return lam
    emx = math.exp(-x)
    z = base.b_n / base.sigma
    u2 = 1.0 / z ** 4
    bracket = 1.0 + emx * cdf_coeff1_square(x, 1.0) * u2
    if order == 3:
        bracket -= emx * cdf_coeff2_square(x, 1.0, consistent=False) * u2 / (z * z)
    return lam * bracket


def pdf_approx_tabulated(order: int, x: float, base: NormingBase) -> float:
    """Square-power density approximation in the golden-table convention."""
    _check_order(order)
    lamp = gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    z = base.b_n / base.sigma
    u2 = 1.0 / z ** 4
    bracket = 1.0 + pdf_coeff1_square(x, 1.0) * u2
    if order == 3:
        bracket -= pdf_coeff2_square(x, 1.0, consistent=False) * u2 / (z * z)
    return lamp * bracket


# ------------------------------------------------------------- diagnostics

def hall_error_leading(n: int, x: float) -> float:
    """Leading error term Lambda(x) e^{-x} log(2 log n)^2 / (16 log n).

    Describes the non-powered maximum under the closed-form constants. It is
    scale-free, so it takes no sigma.
    """
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    lam = gumbel_cdf(x)
    if lam == 0.0:
        return lam
    log_n = math.log(n)
    return lam * math.exp(-x) * math.log(2.0 * log_n) ** 2 / (16.0 * log_n)
