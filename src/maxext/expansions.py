"""Expansion coefficients and order-1/2/3 approximations for powered maxima.

The distribution of the normalized powered maximum admits an expansion

    Lambda(x) [1 + k1(x) b_n^-2 + k2(x) b_n^-4 + ...]      (general power t)
    Lambda(x) [1 + k1(x) b_n^-4 + k2(x) b_n^-6 + ...]      (t = 2, optimal)

and the density the analogous expansion around Lambda'(x). Each coefficient
has one form, the derivative-consistent one: differentiating the order-k
distribution approximation reproduces the order-k density approximation
exactly. The adjudication experiment and the large-n rate diagnostics
validate these forms, and cdf_approx and pdf_approx use them.

A square pair is the general-power pair shifted by s sigma^2 / b_n^2
(norming._SHIFT); _shifted_coefficients states once the coefficients of
-log F = e^{-x} (1 + A1 u + A2 u^2) under that shift. The alternative scheme
(s = -1) uses them in the general-power brackets. The optimal scheme (s = +1,
where A1 = 0) keeps its own kernels, as its b_n^-6 term needs A3.

The private ``_*_approx_tabulated`` pair serves one diagnostic,
exact.error_table: it reproduces the golden reference error tables exactly,
with the classic second-order pair at t = 2, sign conventions and
closed-form norming inherited from the original tabulation.

Each coefficient is a private function of (t, x), or of x at t = 2, stated
at sigma = 1. The coefficient of b_n^-2k carries sigma^2k, so the
approximations evaluate it against z = b_n / sigma: no power of sigma can
leave the float range, and each keeps its sigma = 1 value at every sigma
that solve_bn accepts. A kernel that needs e^{-x} (every density kernel)
takes it as its argument `emx`, so each approximation evaluates exp(-x)
once per call: the densities take it from the Gumbel density kernel, with
Lambda'(x), and cdf_approx after its Gumbel factor.

Each input is checked once, where it enters the package: the approximations
validate their (t, scheme) through norming.validate_scheme and take x through
errors._real (a plain non-NaN float is tested in-line), so a numpy float32 x
is used as its float; at orders 2-3, _base_u checks their base where it forms
u = sigma^2 / b_n^2 (a DomainError unless sigma > 0, b_n > 0 and u is
finite); the coefficient kernels below run unchecked, as does the tabulated
pair, whose caller has checked x. The densities take Lambda'(x) from the
kernel special._gumbel_pdf; cdf_approx and the tabulated distribution kernel
take Lambda(x) from the public gumbel_cdf, whose test of the float x is
in-line and calls nothing.

Where the Gumbel factor underflows to 0.0 the approximations return it
as is, before evaluating any exp(-x) coefficient: far below the mode those
coefficients overflow, while the true approximation underflows. Far above
the mode, where exp(-x) underflows to 0.0, the distribution approximations
return Lambda(x) = 1 the same way, before a polynomial in x can overflow;
the densities are 0 there. Elsewhere an order-2/3 bracket that a huge t
makes inf or NaN (the general-power coefficients grow as t^2) is a
DomainError, tested once per call, rather than a value of +-inf or NaN.

All functions are scalar and pure.
"""
from __future__ import annotations

import math

from .errors import ConfigurationError, DomainError, _echo, _real
from .norming import _GENERAL, _OPTIMAL, _SHIFT, NormingBase, Scheme, validate_scheme
from .special import _gumbel_pdf, gumbel_cdf

__all__ = ["cdf_approx", "pdf_approx"]


def _order_error(order) -> ConfigurationError:
    return ConfigurationError(f"expansion order must be 1, 2 or 3, got {_echo(order)}")


def _base_u(base):
    # u = (sigma / b_n)^2, formed as 1 / z^2 with z = b_n / sigma: the one check of a base
    sigma, b = base.sigma, base.b_n
    if sigma > 0.0 and b > 0.0:
        z = b / sigma
        if z * z > 0.0:  # not NaN, and no underflow to a zero z^2
            return 1.0 / (z * z)
    raise DomainError("the expansions need sigma > 0, b_n > 0 and a finite sigma^2 / b_n^2, "
                      f"got b_n = {b!r}, sigma = {sigma!r}")


def _bracket_error(order, t, x) -> DomainError:
    # where a huge t makes the order-2/3 bracket inf or NaN
    return DomainError(f"the order-{order} expansion is not finite at t = {t!r}, x = {x!r}; "
                       "use a smaller t")


# ---------------------------------------------------------------- general t

def _cdf_coeff1_general(t, x):
    return 1.0 + x * (1.0 + 0.5 * (t - 2.0) * x)


def _cdf_coeff2_general(t, x):
    c4 = (t - 2.0) * (t - 2.0) / 8.0  # inf, not OverflowError, from t near 1.3e154
    c3 = (t - 2.0) * (5.0 - 2.0 * t) / 6.0
    return (((c4 * x + c3) * x - 0.5) * x - 1.0) * x - 1.0


def _pdf_coeff1_general(t, x, emx):
    # -e^{-x} A1 + A1 - A1'
    return -emx * _cdf_coeff1_general(t, x) + x * (0.5 * (t - 2.0) * x + 3.0 - t)


def _general_coefficients(t, x):
    # (A1, A2, A1', A2') of the general-power expansion
    c3 = (t - 2.0) * (t - 2.0) / 2.0
    c2 = (t - 2.0) * (5.0 - 2.0 * t) / 2.0
    return (_cdf_coeff1_general(t, x), _cdf_coeff2_general(t, x), 1.0 + (t - 2.0) * x,
            ((c3 * x + c2) * x - 1.0) * x - 1.0)


def _shifted_coefficients(t, x, s):
    # _general_coefficients under the shift x -> x + g u, g = s (1 + x); A1'' = t - 2
    a1, a2, d1, d2 = _general_coefficients(t, x)
    g = s * (1.0 + x)
    return (a1 - g, a2 + g * (d1 - a1) + 0.5 * g * g, d1 - s,
            d2 + s * (d1 - a1) + g * (t - 2.0 - d1) + g * s)


def _pdf_coeff2(coeffs, emx):
    # e^{-2x} A1^2 / 2 - e^{-x} (A2 + A1 (A1 - A1')) + A2 - A2' of (A1, A2, A1', A2')
    a1, a2, d1, d2 = coeffs
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


# ------------------------------------------------------------ approximations

def cdf_approx(order: int, t: float, x: float, base: NormingBase,
               scheme: Scheme = Scheme.GENERAL_POWER) -> float:
    """Order-1/2/3 approximation of P(|M_n|^t <= c_n x + d_n).

    Order 1 is the plain Gumbel limit for every scheme; order k adds the
    first k-1 correction terms of the scheme's expansion. The value is a
    probability only while those are small: the general-power coefficients
    grow like (t - 2) x^2, so it needs t u x^2 << 1, u = sigma^2 / b_n^2. It
    is never clipped to [0, 1] (at t = 1e150, x = 0.7, n = 100, order 2 gives
    -6.6e147); a huge t raises DomainError only where the bracket is not finite.
    """
    if order not in (1, 2, 3):
        raise _order_error(order)
    t, scheme = validate_scheme(t, scheme)
    if type(x) is not float or x != x:
        x = _real(x, "x")
    lam = gumbel_cdf(x)  # checks x again, in-line: the call the benchmark's tracer follows
    if order == 1 or lam == 0.0:
        return lam
    emx = math.exp(-x)
    if emx == 0.0:
        return lam
    u = _base_u(base)
    if scheme is _GENERAL:
        a1 = _cdf_coeff1_general(t, x)
    elif scheme is _OPTIMAL:  # t = 2: a finite bracket, returned unchecked
        u2 = u * u
        bracket = 1.0 - emx * _cdf_coeff1_square(x) * u2
        if order == 3:
            bracket -= emx * _cdf_coeff2_square(x) * u2 * u
        return lam * bracket
    else:
        a1, a2, _, _ = _shifted_coefficients(t, x, _SHIFT[scheme])
    bracket = 1.0 - emx * a1 * u
    if order == 3:
        if scheme is _GENERAL:  # A2 only at order 3
            a2 = _cdf_coeff2_general(t, x)
        bracket += emx * (0.5 * emx * a1 * a1 - a2) * u * u
    if math.isfinite(bracket):
        return lam * bracket
    raise _bracket_error(order, t, x)


def pdf_approx(order: int, t: float, x: float, base: NormingBase,
               scheme: Scheme = Scheme.GENERAL_POWER) -> float:
    """Order-1/2/3 approximation of the density of (|M_n|^t - d_n)/c_n; valid, unclipped
    and checked as cdf_approx is (-1.6e148 at t = 1e150, x = 0.7, n = 100, order 2)."""
    if order not in (1, 2, 3):
        raise _order_error(order)
    t, scheme = validate_scheme(t, scheme)
    if type(x) is not float or x != x:
        x = _real(x, "x")
    lamp, emx = _gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    u = _base_u(base)
    if scheme is _GENERAL:
        bracket = 1.0 + _pdf_coeff1_general(t, x, emx) * u
        if order == 3:
            bracket += _pdf_coeff2(_general_coefficients(t, x), emx) * u * u
    elif scheme is _OPTIMAL:
        u2 = u * u
        bracket = 1.0 + _pdf_coeff1_square(x, emx) * u2
        if order == 3:
            bracket += _pdf_coeff2_square(x, emx) * u2 * u
    else:
        coeffs = a1, _, d1, _ = _shifted_coefficients(t, x, _SHIFT[scheme])
        bracket = 1.0 + (-emx * a1 + a1 - d1) * u
        if order == 3:
            bracket += _pdf_coeff2(coeffs, emx) * u * u
    if math.isfinite(bracket):
        return lamp * bracket
    raise _bracket_error(order, t, x)


# The classic second-order pair of the golden tables at t = 2: _cdf_coeff2_square
# with its linear term's sign flipped, and -e^{-x} times that plus a stated polynomial.
def _cdf_coeff2_classic(x):
    return ((4.0 / 3.0 * x + 2.0) * x - 2.0) * x + 7.0 / 3.0


def _pdf_coeff2_classic(x, emx):
    poly = ((4.0 / 3.0 * x - 2.0) * x - 2.0) * x + 1.0 / 3.0
    return -emx * _cdf_coeff2_classic(x) + poly


def _cdf_approx_tabulated(order, t, x, base, scheme):
    """Square-power distribution approximation in the golden-table convention.

    A kernel of a checked float x, with cdf_approx's arguments; t and scheme
    are the table's 2 and square-optimal, the only ones it exists for. It
    matches the reference tables when `base` carries the closed-form b_hat
    (see norming.hall_base): the first correction enters with the opposite
    sign to cdf_approx and the second uses the classic coefficient.
    """
    lam = gumbel_cdf(x)
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


def _pdf_approx_tabulated(order, t, x, base, scheme):
    """Square-power density approximation in the golden-table convention, as above."""
    lamp, emx = _gumbel_pdf(x)
    if order == 1 or lamp == 0.0:
        return lamp
    z = base.b_n / base.sigma
    u2 = 1.0 / z ** 4
    bracket = 1.0 + _pdf_coeff1_square(x, emx) * u2
    if order == 3:
        bracket -= _pdf_coeff2_classic(x, emx) * u2 / (z * z)
    return lamp * bracket

