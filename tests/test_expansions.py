"""Expansion coefficients and approximations against frozen symbolic values."""
import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxext.errors import ConfigurationError
from maxext.exact import _pdf_coeff1_classic
from maxext.expansions import (
    _cdf_approx_tabulated,
    _cdf_coeff1_general,
    _cdf_coeff1_square,
    _cdf_coeff2_classic,
    _cdf_coeff2_general,
    _cdf_coeff2_square,
    _general_coefficients,
    _hall_error_leading,
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
from maxext.norming import _SHIFT, Scheme, hall_base, solve_bn
from maxext.special import gumbel_cdf, gumbel_pdf

# Frozen values from an independent symbolic derivation evaluated in
# arbitrary precision. The coefficients are the derivative-consistent forms;
# the "classic" values check the classic forms that the adjudication (P1) and
# the golden-table convention (B2, Q2) consume. Every coefficient is stated at
# sigma = 1, and the coefficient of b_n^-2k carries sigma^2k, so a frozen
# value at sigma != 1 is checked as sigma^2k times the kernel.
FROZEN_GENERAL = {
    # (t, x, sigma): (A1, A2, P1_cons, P2_cons, P1_classic)
    (2.5, 1.3, 1.7): (7.868025, -25.5219034746875, 0.95523803911356299,
                      -5.9975265787176567, 2.176263039113563),
    (0.5, -0.75, 1.0): (-0.171875, -0.0203857421875, -1.9330156221446965,
                        1.6653375642773233, -2.3548906221446965),
    (3.0, 1.4, 0.5): (0.845, -0.20982083333333333, 0.036625565469342527,
                      -0.061921436838660963, 0.28162556546934253),
}
FROZEN_SQUARE = {
    # (x, sigma): (B1, B2_cons, B2_classic, Q1, Q2_cons, Q2_classic)
    (1.3, 1.7): (-29.148829, 271.37064241066667, 145.85528361066667,
                 8.8627136322118246, -139.54694858230418, -105.34002279523275),
    (-0.75, 1.0): (-0.3125, 1.3958333333333333, 4.3958333333333333,
                   -0.15093749480853917, -2.8091458565218584, -9.1601459063598824),
}
FROZEN_ALT = {
    # (x, sigma): (u1, u2, w1, w2)
    (1.3, 1.7): (-3.6230376565941635, 0.89543108693721618,
                 3.8909623434058365, -35.598904864711329),
    (-0.75, 1.0): (-1.0585000083063373, 2.0156486452134719,
                   -2.5585000083063373, 3.4158986576729779),
}


def test_general_coefficients_frozen():
    for (t, x, s), (a1, a2, p1c, p2c, p1p) in FROZEN_GENERAL.items():
        assert s**2 * _cdf_coeff1_general(t, x) == pytest.approx(a1, rel=1e-14)
        assert s**4 * _cdf_coeff2_general(t, x) == pytest.approx(a2, rel=1e-14)
        emx = math.exp(-x)
        assert s**2 * _pdf_coeff1_general(t, x, emx) == pytest.approx(p1c, rel=1e-13)
        assert s**4 * _pdf_coeff2(_general_coefficients(t, x), emx) == pytest.approx(
            p2c, rel=1e-13)
        assert s**2 * _pdf_coeff1_classic(t, x, emx) == pytest.approx(p1p, rel=1e-13)


def test_square_coefficients_frozen():
    for (x, s), (b1, b2c, b2p, q1, q2c, q2p) in FROZEN_SQUARE.items():
        assert s**4 * _cdf_coeff1_square(x) == pytest.approx(b1, rel=1e-14)
        assert s**6 * _cdf_coeff2_square(x) == pytest.approx(b2c, rel=1e-14)
        emx = math.exp(-x)
        assert s**4 * _pdf_coeff1_square(x, emx) == pytest.approx(q1, rel=1e-13)
        assert s**6 * _pdf_coeff2_square(x, emx) == pytest.approx(q2c, rel=1e-13)
        assert s**6 * _cdf_coeff2_classic(x) == pytest.approx(b2p, rel=1e-14)
        assert s**6 * _pdf_coeff2_classic(x, emx) == pytest.approx(q2p, rel=1e-13)


def test_alternative_corrections_frozen():
    # the alternative pair's b_n^-2 and b_n^-4 corrections are the general
    # t = 2 expansion under its shift
    for (x, s), (u1, u2, w1, w2) in FROZEN_ALT.items():
        emx = math.exp(-x)
        coeffs = a1, a2, d1, _ = _shifted_coefficients(2.0, x, _SHIFT[Scheme.SQUARE_ALTERNATIVE])
        k1, k2 = -emx * a1, emx * (0.5 * emx * a1 * a1 - a2)
        assert (s**2 * k1, s**4 * k2) == pytest.approx((u1, u2), rel=1e-13)
        k1, k2 = -emx * a1 + a1 - d1, _pdf_coeff2(coeffs, emx)
        assert (s**2 * k1, s**4 * k2) == pytest.approx((w1, w2), rel=1e-13)


def test_optimal_shift_reproduces_the_square_kernels():
    # at t = 2 the optimal shift removes the b_n^-2 term exactly, and its
    # b_n^-4 term is the hand-typed square kernel pair
    s = _SHIFT[Scheme.SQUARE_OPTIMAL]
    for x in np.linspace(-5.0, 40.0, 901):
        x = float(x)
        emx = math.exp(-x)
        a1, a2, d1, d2 = _shifted_coefficients(2.0, x, s)
        assert a1 == 0.0
        scale = 1.0 + abs(x) + x * x
        assert abs(a2 - _cdf_coeff1_square(x)) <= 4e-16 * scale, x
        assert abs(-emx * a2 + a2 - d2 - _pdf_coeff1_square(x, emx)) <= 4e-16 * scale * (2.0 + emx), x


def test_zero_shift_returns_the_general_kernels_bit_for_bit():
    s = _SHIFT[Scheme.GENERAL_POWER]
    for t, x in itertools.product((0.5, 1.0, 2.0, 3.0, 7.0), (-4.0, -0.45, 0.0, 0.7, 1.3, 12.0)):
        coeffs = _shifted_coefficients(t, x, s)
        assert coeffs == _general_coefficients(t, x)
        a1, a2, d1, _ = coeffs
        assert (a1, a2) == (_cdf_coeff1_general(t, x), _cdf_coeff2_general(t, x))
        emx = math.exp(-x)
        assert -emx * a1 + a1 - d1 == pytest.approx(_pdf_coeff1_general(t, x, emx),
                                                    rel=1e-14, abs=1e-14)


def test_handpicked_point_values():
    assert _cdf_coeff1_general(4.0, 1.0) == pytest.approx(3.0, abs=1e-15)
    assert _cdf_coeff2_general(1.0, 2.0) == pytest.approx(-7.0, abs=1e-14)
    assert _cdf_coeff1_square(0.0) == -0.5
    assert 2.0**4 * _cdf_coeff1_square(1.0) == -40.0
    assert _cdf_coeff2_square(0.0) == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert _cdf_coeff2_classic(0.0) == pytest.approx(7.0 / 3.0, abs=1e-15)
    assert _pdf_coeff1_square(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert _pdf_coeff2_square(0.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
    assert _pdf_coeff2_classic(0.0, 1.0) == pytest.approx(-2.0, abs=1e-14)
    # first density coefficient at x = 0 is -sigma^2 in both variants
    for fn in (_pdf_coeff1_general, _pdf_coeff1_classic):
        for s in (1.0, 2.0):
            assert s * s * fn(3.0, 0.0, 1.0) == pytest.approx(-s * s, abs=1e-15)
    # classic value at t=1, x=1: -(3/2) e^{-1} + 1
    assert _pdf_coeff1_classic(1.0, 1.0, math.exp(-1.0)) == pytest.approx(
        1.0 - 1.5 * math.exp(-1.0), rel=1e-14)


def test_general_coefficient_near_t2_limit():
    for t in (2.0 - 1e-9, 2.0 + 1e-9):
        for x in (-1.0, 0.5, 3.0):
            assert 1.5**2 * _cdf_coeff1_general(t, x) == pytest.approx(
                1.5**2 * (1.0 + x), abs=2e-8)


def test_variant_gap_is_half_t_minus_2_x_squared():
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = rng.uniform(0.1, 5.0)
        if abs(t - 2.0) < 1e-9:
            continue
        x = rng.uniform(-3.0, 6.0)
        s = rng.uniform(0.5, 3.0)
        emx = math.exp(-x)
        gap = s * s * (_pdf_coeff1_classic(t, x, emx) - _pdf_coeff1_general(t, x, emx))
        assert gap == pytest.approx(0.5 * (t - 2.0) * s * s * x * x, rel=1e-10, abs=1e-12)


def _b1_slope(x, s):
    return -(s**4) * (2.0 * x + 1.0)


def _b2_slope(x, s):
    return s**6 * (4.0 * x * x + 4.0 * x + 2.0)


@given(st.floats(min_value=-3.0, max_value=10.0, allow_nan=False))
@settings(max_examples=500)
def test_density_coefficient_identity_property(x):
    s = 1.0
    b1 = s**4 * _cdf_coeff1_square(x)
    q1 = s**4 * _pdf_coeff1_square(x, math.exp(-x))
    assert abs(q1 - (-math.exp(-x) * b1 + b1 - _b1_slope(x, s))) <= 1e-12
    b2 = s**6 * _cdf_coeff2_square(x)
    q2 = s**6 * _pdf_coeff2_square(x, math.exp(-x))
    assert abs(q2 - (-math.exp(-x) * b2 + b2 - _b2_slope(x, s))) <= 1e-12


def _assert_close_conditioned(got, terms):
    # tolerance scaled by the cancellation mass of the monomial evaluation
    ref = sum(terms)
    tol = 1e-15 * max(1.0, sum(abs(v) for v in terms))
    assert abs(got - ref) <= 16.0 * tol, (got, ref, tol)


def test_horner_against_monomial_forms():
    # independent plain-monomial re-implementations guard transcription slips
    rng = np.random.default_rng(11)
    for _ in range(300):
        t = rng.uniform(0.2, 4.0)
        if abs(t - 2.0) < 1e-6:
            continue
        x = float(np.round(rng.uniform(-4.0, 8.0), 3))
        s = float(np.round(rng.uniform(0.5, 2.5), 3))
        s2, s4, s6 = s**2, s**4, s**6
        _assert_close_conditioned(
            s2 * _cdf_coeff1_general(t, x),
            [s2, s2 * x, s2 * (t - 2) * x**2 / 2])
        _assert_close_conditioned(
            s4 * _cdf_coeff2_general(t, x),
            [s4 * (t - 2) ** 2 * x**4 / 8, s4 * (t - 2) * (5 - 2 * t) * x**3 / 6,
             -s4 * x**2 / 2, -s4 * x, -s4])
        _assert_close_conditioned(
            s4 * _cdf_coeff1_square(x), [-s4 * x**2, -s4 * x, -s4 * 0.5])
        _assert_close_conditioned(
            s6 * _cdf_coeff2_square(x),
            [s6 * 4 * x**3 / 3, s6 * 2 * x**2, s6 * 2 * x, s6 * 7 / 3])
        emx = math.exp(-x)
        _assert_close_conditioned(
            s4 * _pdf_coeff1_square(x, emx),
            [s4 * x**2 * emx, s4 * x * emx, s4 * 0.5 * emx,
             -s4 * x**2, s4 * x, s4 * 0.5])


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


def test_cdf_pdf_order_consistency_squared():
    # centered difference of the order-2 distribution approximation equals the
    # order-2 density approximation up to finite-difference noise; scaling the
    # gap by b_n^8 must stay bounded along n (a wrong coefficient would blow up)
    h = 1e-5
    x = 0.9
    for n in (10**3, 10**6, 10**9, 10**12):
        base = solve_bn(n, 1.0)
        fd = (cdf_approx(2, 2.0, x + h, base, Scheme.SQUARE_OPTIMAL)
              - cdf_approx(2, 2.0, x - h, base, Scheme.SQUARE_OPTIMAL)) / (2 * h)
        gap = fd - pdf_approx(2, 2.0, x, base, Scheme.SQUARE_OPTIMAL)
        assert abs(gap) * base.b_n**8 < 0.05


def test_pdf_approx_order2_at_origin():
    # at x = 0, sigma = 1 the first density coefficient is exactly 1, so the
    # order-2 density approximation is e^{-1} (1 + b_n^-4)
    base = solve_bn(300, 1.0)
    got = pdf_approx(2, 2.0, 0.0, base, Scheme.SQUARE_OPTIMAL)
    assert got == pytest.approx(math.exp(-1.0) * (1.0 + base.b_n**-4), rel=1e-15)


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
    assert _hall_error_leading(10**6, x) == 0.0


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


def test_hall_error_leading():
    # at n = e^{e/2} the squared log factor is exactly 1 (the formula, at a real n)
    n = math.exp(math.e / 2.0)
    for x in (0.0, 0.7, 2.0):
        ref = gumbel_cdf(x) * math.exp(-x) / (8.0 * math.e)
        assert _hall_error_leading(n, x) == pytest.approx(ref, rel=1e-13)
    assert _hall_error_leading(10**6, 50.0) < 1e-22
    assert _hall_error_leading(10**6, 0.7) == pytest.approx(
        gumbel_cdf(0.7) * math.exp(-0.7) * math.log(2 * math.log(10**6)) ** 2
        / (16 * math.log(10**6)), rel=1e-14)
