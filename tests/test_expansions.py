"""Expansion coefficients and approximations, checked against an exact derivation.

No kernel's coefficient is typed here: each is derived in exact rational
arithmetic from the tail lemma and the norming equation, at sigma = 1,

    n S(y) = (y / b_n) e^{-(y^2 - b_n^2) / 2} (1 + r - r^2 + 3 r^3 - ...),  r = 1 / y^2,

under the norming shift (y / b_n)^t = 1 + t u (x + s u (1 + x)), u = 1 / b_n^2,
with s from norming._SHIFT. Then e^x n S(y) = 1 + A1 u + A2 u^2 + A3 u^3 + O(u^4),
and since -log F^n = n S(y) up to terms exponentially small in b_n^2, the
distribution of the normalized maximum is Lambda(x) exp(-e^{-x} sum A_k u^k) and
its density Lambda'(x) exp(-e^{-x} sum A_k u^k) (1 + sum (A_k - A_k') u^k). Every
kernel, and every bracket that cdf_approx and pdf_approx build, is compared
with these polynomials at the same float x and e^{-x}. The classic forms are
checked through their stated relation to the derived ones. The one
polynomial typed here is A3, which no kernel states yet.
"""
import csv
import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from maxext.errors import ConfigurationError, DomainError
from maxext.exact import _pdf_coeff1_classic, hall_rate_check
from maxext.expansions import (
    _cdf_approx_tabulated,
    _cdf_coeff1_general,
    _cdf_coeff1_square,
    _cdf_coeff2_classic,
    _cdf_coeff2_general,
    _cdf_coeff2_square,
    _general_coefficients,
    _pdf_approx_tabulated,
    _pdf_coeff1_general,
    _pdf_coeff1_square,
    _pdf_coeff2,
    _pdf_coeff2_classic,
    _pdf_coeff2_square,
    _shifted_coefficients,
    cdf_approx,
    pdf_approx,
)
from maxext.norming import _SHIFT, NormingBase, Scheme, hall_base, solve_bn
from maxext.special import gumbel_cdf, gumbel_pdf

# ------------------------------------------------- the exact derivation
#
# A polynomial is a dict {(i, j): Fraction} of its terms c x^i e^j, where e
# stands for e^{-x}; a series is the list of the polynomials of u^0, u^1, ...

_ONE = {(0, 0): Fraction(1)}
_TAIL = (1, 1, -1, 3)  # the tail lemma's 1 + r - r^2 + 3 r^3


def _add(p, q, c=1):
    # p + c q
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _mul(p, q):
    out = {}
    for (i, j), v in p.items():
        for (k, l), w in q.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + v * w
    return {k: v for k, v in out.items() if v}


def _d(p):
    # d/dx of a polynomial free of e
    return {(i - 1, j): i * v for (i, j), v in p.items() if i}


def _series_mul(a, b):
    return [functools.reduce(_add, (_mul(a[i], b[k - i]) for i in range(k + 1)), {})
            for k in range(min(len(a), len(b)))]


def _compose(q, coeffs):
    # sum of coeffs[k] q^k over the series' length, for a series q with no constant term
    assert not q[0]
    total, power = [{}] * len(q), [_ONE] + [{}] * (len(q) - 1)
    for c in coeffs[:len(q)]:
        total = [_add(p, v, c) for p, v in zip(total, power)]
        power = _series_mul(power, q)
    return total


def _exp(q):
    return _compose(q, [Fraction(1, math.factorial(k)) for k in range(len(q))])


def _binomial(q, alpha):
    # (1 + q)^alpha
    coeffs = [Fraction(1)]
    for k in range(len(q) - 1):
        coeffs.append(coeffs[-1] * (alpha - k) / (k + 1))
    return _compose(q, coeffs)


@functools.cache
def _derived(t, s):
    """[1, A1, A2, A3] of e^x n S(y) under (y / b_n)^t = 1 + t u (x + s u (1 + x))."""
    t, s = Fraction(t), Fraction(s)
    q = [{}, {(1, 0): t}, _add({}, {(0, 0): 1, (1, 0): 1}, t * s), {}, {}]  # (y / b_n)^t - 1
    w = _binomial(q, 2 / t)  # y^2 / b_n^2, through u^4 so that (w - 1) / u reaches u^3
    exponent = [_add({}, p, Fraction(-1, 2)) for p in w[1:]]
    exponent[0] = _add(exponent[0], {(1, 0): 1})  # x - (y^2 - b_n^2) / 2 = x - (w - 1) / 2u
    r = [{}] + _binomial(q, -2 / t)[:-1]  # 1 / y^2 = u b_n^2 / y^2
    return _series_mul(_series_mul(_binomial(q, 1 / t), _exp(exponent)), _compose(r, _TAIL))


@functools.cache
def _brackets(t, s):
    """The cdf bracket exp(-e sum A_k u^k), and the pdf bracket: that times
    1 + sum (A_k - A_k') u^k."""
    a = _derived(t, s)
    cdf = _exp([{}] + [_mul({(0, 1): -1}, p) for p in a[1:]])
    return cdf, _series_mul(cdf, [_ONE] + [_add(p, _d(p), -1) for p in a[1:]])


def _terms(series, x, emx, u=0):
    """Each term of a series at the floats x and e^{-x} and at u, exactly."""
    X, E = Fraction(x), Fraction(emx)
    return [u**k * v * X**i * E**j for k, p in enumerate(series) for (i, j), v in p.items()]


_TOL = 16 * Fraction(sys.float_info.epsilon)


def _assert_derived(got, terms):
    # a float evaluation is within 16 eps of the sum of the absolute terms
    exact = sum(terms)
    assert abs(Fraction(got) - exact) <= _TOL * sum(map(abs, terms)), (got, float(exact))


T_GRID = (0.5, 1.0, 2.5, 3.0, 7.0)  # each float t is exactly its rational
X_GRID = [-5.0 + 45.0 * k / 89 for k in range(90)]  # [-5, 40], mostly not dyadic
_OPTIMAL, _ALTERNATIVE = _SHIFT[Scheme.SQUARE_OPTIMAL], _SHIFT[Scheme.SQUARE_ALTERNATIVE]


def test_the_derivation_gives_a3():
    # the first coefficient no kernel states (A0 = 1 is the norming equation)
    for t in T_GRID + (2.0,):
        T = Fraction(t)
        a3 = {(0, 0): 3, (1, 0): 3, (2, 0): Fraction(3, 2), (3, 0): Fraction(1, 2),
              (4, 0): (T - 2) * (2 * T * T - 7 * T + 4) / 8,
              (5, 0): (T - 2) ** 2 * (7 - 4 * T) / 24, (6, 0): (T - 2) ** 3 / 48}
        assert _derived(t, 0.0)[0] == _ONE
        assert _derived(t, 0.0)[3] == {k: v for k, v in a3.items() if v}, t


@pytest.mark.parametrize("t", T_GRID)
def test_general_kernels_match_the_derivation(t):
    a = _derived(t, 0.0)
    pdf = _brackets(t, 0.0)[1]
    classic = _add(pdf[1], {(2, 0): (Fraction(t) - 2) / 2})  # (t-2) x^2 for the (t-2) x^2 / 2 of P1
    for x in X_GRID:
        emx = math.exp(-x)
        coeffs = _general_coefficients(t, x)
        for got, p in [(_cdf_coeff1_general(t, x), a[1]), (_cdf_coeff2_general(t, x), a[2]),
                       *zip(coeffs, (a[1], a[2], _d(a[1]), _d(a[2]))),
                       (_pdf_coeff1_general(t, x, emx), pdf[1]), (_pdf_coeff2(coeffs, emx), pdf[2]),
                       (_pdf_coeff1_classic(t, x, emx), classic)]:
            _assert_derived(got, _terms([p], x, emx))


def test_square_kernels_match_the_derivation():
    # at t = 2 the optimal shift removes A1; its A2 and A3 are the square kernels
    a, alt = _derived(2.0, _OPTIMAL), _derived(2.0, _ALTERNATIVE)
    pdf = _brackets(2.0, _OPTIMAL)[1]
    assert not a[1] and not pdf[1]
    classic = {**a[3], (1, 0): -a[3][1, 0]}  # B2 with the sign of its linear term flipped
    q2_classic = _add(_add(a[3], _d(a[3]), -1), _mul({(0, 1): -1}, classic))  # -e B2c + B2 - B2'
    for x in X_GRID:
        emx = math.exp(-x)
        pairs = [(_cdf_coeff1_square(x), a[2]), (_cdf_coeff2_square(x), a[3]),
                 (_pdf_coeff1_square(x, emx), pdf[2]), (_pdf_coeff2_square(x, emx), pdf[3]),
                 (_cdf_coeff2_classic(x), classic), (_pdf_coeff2_classic(x, emx), q2_classic)]
        for s, d in ((_OPTIMAL, a), (_ALTERNATIVE, alt)):
            pairs += zip(_shifted_coefficients(2.0, x, s), (d[1], d[2], _d(d[1]), _d(d[2])))
        for got, p in pairs:
            _assert_derived(got, _terms([p], x, emx))


# z = b_n / sigma = 4 and 32, so the float u = 1 / z^2 of the approximations is exact
BASES = [NormingBase(1000, 1.0, 4.0, 0.25), NormingBase(10**6, 0.5, 16.0, 1.0 / 64.0)]


@pytest.mark.parametrize("t, scheme", [(t, Scheme.GENERAL_POWER) for t in T_GRID]
                         + [(2.0, Scheme.SQUARE_OPTIMAL), (2.0, Scheme.SQUARE_ALTERNATIVE)])
def test_approximation_brackets_match_the_derivation(t, scheme):
    # order k keeps the first k - 1 corrections that are not 0; the terms come by
    # rising power of u, so the order-2 terms are the first of the order-3 ones
    brackets = _brackets(t, _SHIFT[scheme])
    for base, x in itertools.product(BASES, X_GRID):
        emx, u = math.exp(-x), (Fraction(base.sigma) / Fraction(base.b_n)) ** 2
        for approx, gumbel, series in zip((cdf_approx, pdf_approx), (gumbel_cdf, gumbel_pdf),
                                          brackets):
            tops = [k for k, p in enumerate(series) if p]
            terms = [Fraction(gumbel(x)) * v for v in _terms(series[:tops[2] + 1], x, emx, u)]
            for order in (2, 3):
                count = sum(map(len, series[:tops[order - 1] + 1]))
                _assert_derived(approx(order, t, x, base, scheme), terms[:count])


def test_zero_shift_returns_the_general_kernels_bit_for_bit():
    s = _SHIFT[Scheme.GENERAL_POWER]
    for t, x in itertools.product((0.5, 1.0, 2.0, 3.0, 7.0), (-4.0, -0.45, 0.0, 0.7, 1.3, 12.0)):
        assert _shifted_coefficients(t, x, s) == _general_coefficients(t, x)


@pytest.mark.parametrize("b_n, sigma", [(0.0, 1.0), (1e-200, 1.0), (math.nan, 1.0), (-3.0, 1.0),
                                        (10.0, 0.0), (10.0, math.inf), (10.0, math.nan),
                                        (10.0, -1.0)])
def test_approximations_reject_a_base_with_no_finite_u(b_n, sigma):
    base = NormingBase(10, sigma, b_n, 1.0)
    members = [(1.0, Scheme.GENERAL_POWER), (2.0, Scheme.SQUARE_OPTIMAL),
               (2.0, Scheme.SQUARE_ALTERNATIVE)]
    for (t, scheme), approx, order in itertools.product(members, (cdf_approx, pdf_approx), (2, 3)):
        with pytest.raises(DomainError, match="sigma > 0, b_n > 0"):
            approx(order, t, 0.7, base, scheme)


def test_order1_is_gumbel_everywhere():
    base = solve_bn(100, 2.0)
    for scheme, t in ((Scheme.GENERAL_POWER, 1.0), (Scheme.SQUARE_OPTIMAL, 2.0),
                      (Scheme.SQUARE_ALTERNATIVE, 2.0)):
        for x in (-1.0, 0.7, 2.5):
            assert cdf_approx(1, t, x, base, scheme) == gumbel_cdf(x)
            assert pdf_approx(1, t, x, base, scheme) == gumbel_pdf(x)


def test_approx_rejects_bad_order_and_scheme():
    base = solve_bn(100, 2.0)
    with pytest.raises(ConfigurationError):
        cdf_approx(4, 1.0, 0.7, base, Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError):
        cdf_approx(0, 1.0, 0.7, base, Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError):
        pdf_approx(2, 2.0, 0.7, base, Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError):
        pdf_approx(2, 1.5, 0.7, base, Scheme.SQUARE_OPTIMAL)


@pytest.mark.parametrize("order", [0, 4])
@pytest.mark.parametrize("approx", [cdf_approx, pdf_approx], ids=["cdf_approx", "pdf_approx"])
def test_every_approximation_rejects_an_order_outside_1_to_3(approx, order):
    message = f"^expansion order must be 1, 2 or 3, got {order}$"
    with pytest.raises(ConfigurationError, match=message):
        approx(order, 1.0, 0.7, solve_bn(100, 2.0))


def _increment_slope(values, bs):
    return float(np.polyfit(np.log(bs), np.log(np.abs(values)), 1)[0])


def test_order_increments_scale_exactly():
    # |order k+1 - order k| is an exact monomial in 1/b_n per branch
    x = 0.7
    ns = [10**3, 10**6, 10**9, 10**12]
    bases = [solve_bn(n, 1.0) for n in ns]
    bs = [b.b_n for b in bases]
    cases = [
        (Scheme.GENERAL_POWER, 1.0, (-2.0, -4.0)),
        (Scheme.SQUARE_OPTIMAL, 2.0, (-4.0, -6.0)),
        (Scheme.SQUARE_ALTERNATIVE, 2.0, (-2.0, -4.0)),
    ]
    for scheme, t, (s21, s32) in cases:
        d21 = [cdf_approx(2, t, x, b, scheme) - cdf_approx(1, t, x, b, scheme)
               for b in bases]
        d32 = [cdf_approx(3, t, x, b, scheme) - cdf_approx(2, t, x, b, scheme)
               for b in bases]
        assert _increment_slope(d21, bs) == pytest.approx(s21, abs=1e-6)
        assert _increment_slope(d32, bs) == pytest.approx(s32, abs=1e-6)
        p21 = [pdf_approx(2, t, x, b, scheme) - pdf_approx(1, t, x, b, scheme)
               for b in bases]
        p32 = [pdf_approx(3, t, x, b, scheme) - pdf_approx(2, t, x, b, scheme)
               for b in bases]
        assert _increment_slope(p21, bs) == pytest.approx(s21, abs=1e-6)
        assert _increment_slope(p32, bs) == pytest.approx(s32, abs=1e-6)


def test_approximations_converge_to_gumbel():
    x = 1.2
    for scheme, t in ((Scheme.GENERAL_POWER, 3.0), (Scheme.SQUARE_OPTIMAL, 2.0)):
        for order in (2, 3):
            gaps = [abs(cdf_approx(order, t, x, solve_bn(n, 1.0), scheme) - gumbel_cdf(x))
                    for n in (10**3, 10**6, 10**9, 10**12)]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))


def _tabulated(approx, order, x, base):
    return approx(order, 2.0, x, base, Scheme.SQUARE_OPTIMAL)


def test_tabulated_approximations_structure():
    base = solve_bn(200, 2.0)
    x = 0.7
    assert _tabulated(_cdf_approx_tabulated, 1, x, base) == gumbel_cdf(x)
    assert _tabulated(_pdf_approx_tabulated, 1, x, base) == gumbel_pdf(x)
    # first correction enters with the opposite sign relative to cdf_approx
    u2 = 1.0 / base.b_n**4
    expected = gumbel_cdf(x) * (1.0 + math.exp(-x) * 2.0**4 * _cdf_coeff1_square(x) * u2)
    assert _tabulated(_cdf_approx_tabulated, 2, x, base) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("x", [-10.0, -400.0, -800.0, -1e300])
def test_approximations_vanish_where_gumbel_underflows(x):
    # the exp(-x) coefficients would overflow here (or give 0 * inf = nan)
    base = solve_bn(500, 1.0)
    for order in (1, 2, 3):
        assert cdf_approx(order, 1.0, x, base) == 0.0
        assert pdf_approx(order, 1.0, x, base) == 0.0
        for scheme in (Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE):
            assert cdf_approx(order, 2.0, x, base, scheme) == 0.0
            assert pdf_approx(order, 2.0, x, base, scheme) == 0.0
        assert _tabulated(_cdf_approx_tabulated, order, x, base) == 0.0
        assert _tabulated(_pdf_approx_tabulated, order, x, base) == 0.0
    with pytest.raises(DomainError, match="leading error term underflows"):
        hall_rate_check(x, 1.0, [10**6])


@pytest.mark.parametrize("x", [750.0, 1e40, 1e200, 1e300])
def test_approximations_saturate_where_exp_minus_x_underflows(x):
    # the polynomial coefficients would overflow here (or give 0 * inf = nan)
    base = solve_bn(500, 1.0)
    for order in (1, 2, 3):
        assert cdf_approx(order, 1.0, x, base) == 1.0
        assert pdf_approx(order, 1.0, x, base) == 0.0
        for scheme in (Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE):
            assert cdf_approx(order, 2.0, x, base, scheme) == 1.0
            assert pdf_approx(order, 2.0, x, base, scheme) == 0.0
        assert _tabulated(_cdf_approx_tabulated, order, x, base) == 1.0
        assert _tabulated(_pdf_approx_tabulated, order, x, base) == 0.0


@pytest.mark.parametrize("t", [1e150, 1e155, 1e305])
def test_approximations_at_a_huge_t_are_finite_or_domain_error(t):
    # the general-power coefficients grow as t^2, beyond the float range from t
    # near 1.3e154; a bracket they make inf or NaN is a DomainError, not a value
    base = solve_bn(100, 1.0)
    for approx, order, x in itertools.product((cdf_approx, pdf_approx), (2, 3),
                                              (-5.0, 0.7, 300.0, 700.0)):
        try:
            value = approx(order, t, x, base)
        except DomainError as error:
            assert str(error).startswith(f"the order-{order} expansion is not finite"), error
        else:
            assert math.isfinite(value), (approx, order, x, value)


def test_outputs_match_recorded_bits(data_dir):
    # approx_bits.csv holds float.hex values recorded before each public
    # function was split into one validation and an unchecked kernel; the
    # split must not move a single bit. The 57 order-2/3 rows at sigma = 1.7
    # were re-recorded when the approximations moved to sigma = 1 units
    # (z = b_n / sigma), which moves the last bits where sigma is not a power
    # of two. The coefficient rows, recorded with a sigma argument, are
    # checked as sigma^2k times the sigma = 1 kernel, which is exact at
    # sigma = 1 and 2; the 60 coefficient rows at sigma = 1.7 pinned only the
    # rounding order of that argument and were deleted with it. The
    # consistent column reads 0 for the classic first density coefficient,
    # which the adjudication consumes, and 1 or empty otherwise. The 36 rows
    # of the classic second density coefficient left with that form. The 6
    # square-alternative pdf_approx rows at orders 2 and 3, n = 25 and
    # (sigma, x) = (1, 1.3), (1.7, -0.45), (2, 1.3) were re-recorded, each
    # within 2.6e-16 relative, when the alternative scheme's corrections
    # became the general t = 2 expansion under its shift.
    general = {
        "cdf_coeff1_general": (1, _cdf_coeff1_general),
        "cdf_coeff2_general": (2, _cdf_coeff2_general),
        "pdf_coeff1_general": (1, lambda t, x: _pdf_coeff1_general(t, x, math.exp(-x))),
        "pdf_coeff2_general": (2, lambda t, x: _pdf_coeff2(_general_coefficients(t, x),
                                                           math.exp(-x))),
    }
    classic = {"pdf_coeff1_general": (1, lambda t, x: _pdf_coeff1_classic(t, x, math.exp(-x)))}
    approx = {"cdf_approx": cdf_approx, "pdf_approx": pdf_approx}
    with open(data_dir / "approx_bits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1416
    for row in rows:
        t, sigma, x = float(row["t"]), float(row["sigma"]), float(row["x"])
        if row["function"] in general:
            k, kernel = (classic if row["consistent"] == "0" else general)[row["function"]]
            got = [sigma ** (2 * k) * kernel(t, x)]
        else:
            base = solve_bn(int(row["n"]), sigma)
            fn = approx[row["function"]]
            got = [fn(int(row["order"]), t, x, base, scheme)
                   for scheme in (Scheme(row["scheme"]), row["scheme"])]
        assert [v.hex() for v in got] == [row["value"]] * len(got), row


# sigma from the bottom to the top of the solve_bn domain; sigma^4 and
# sigma^6 leave the float range at both ends
SIGMA_SWEEP = [1.5e-154, 1e-100, 1e-60, 1e-3, 1.7, 1e52, 1e100, 1e152]


@pytest.mark.parametrize("sigma", SIGMA_SWEEP)
def test_approximations_are_sigma_invariant(sigma):
    # sigma is a pure scale, so every approximation takes its sigma = 1
    # value, up to the few ulp in which the solved b_n / sigma differs
    cases = [(0.5, Scheme.GENERAL_POWER), (3.0, Scheme.GENERAL_POWER),
             (2.0, Scheme.SQUARE_OPTIMAL), (2.0, Scheme.SQUARE_ALTERNATIVE)]
    for n in (25, 10**6, 10**12):
        base, unit = solve_bn(n, sigma), solve_bn(n, 1.0)
        hall, hall_unit = hall_base(n, sigma), hall_base(n, 1.0)
        for order, x in itertools.product((1, 2, 3), (-2.0, 0.7, 3.0)):
            for (t, scheme), fn in itertools.product(cases, (cdf_approx, pdf_approx)):
                assert fn(order, t, x, base, scheme) == pytest.approx(
                    fn(order, t, x, unit, scheme), rel=1e-12), (n, order, x, t, scheme, fn)
            for fn in (_cdf_approx_tabulated, _pdf_approx_tabulated):
                assert _tabulated(fn, order, x, hall) == pytest.approx(
                    _tabulated(fn, order, x, hall_unit), rel=1e-12)
