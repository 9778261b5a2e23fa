"""Exact finite-n layer: golden spot rows, self-consistency, diagnostics."""
import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from maxext import exact, maxwell
from maxext.errors import ConfigurationError, DiagnosticsError, DomainError, MaxextError
from maxext.exact import (
    ErrorRow,
    _fit,
    _pdf_coeff1_classic,
    adjudicate_density_coeffs,
    compare_schemes,
    default_scheme,
    error_table,
    exact_powered_cdf,
    exact_powered_pdf,
    exact_unpowered_cdf,
    hall_rate_check,
    rate_diagnostic,
)
from maxext.expansions import (
    _cdf_approx_tabulated,
    _pdf_approx_tabulated,
    _pdf_coeff1_general,
    cdf_approx,
    pdf_approx,
)
from maxext.maxwell import MaxwellParams, cdf
from maxext.norming import PoweredNorming, Scheme, hall_base, powered_constants, solve_bn
from maxext.special import gumbel_cdf, gumbel_pdf

P2 = MaxwellParams(2.0)

# exact - Lambda(0.7) at n = 25 under solved norming constants (frozen from
# an arbitrary-precision evaluation)
EXACT_GAP_N25_SOLVED = 0.00305186331484


def _golden_rows(data_dir, name):
    with open(data_dir / name, newline="") as fh:
        return [(int(r["n"]), float(r["err1"]), float(r["err2"]), float(r["err3"]))
                for r in csv.DictReader(fh)]


def test_exact_cdf_saturates():
    base = solve_bn(50, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    assert exact_powered_cdf(50, 2.0, 40.0, pn, P2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n, t, x, sigma", [
    (500, 0.1, 1e40, 1.0), (500, 3.0, 1e300, 1.0),
    (500, 0.01, 1e300, 1.0), (500, 0.5, 1e300, 1.0), (3, 0.25, 1e300, 1.0),
    (500, 0.1, 1e40, 1e152), (10**300, 0.1, 1e40, 1.0),
    (10**300, 1.0, 1e3, 1.0), (10**300, 1.0, 1e3, 1e152),
], ids=["t0.1", "t3", "t0.01", "t0.5", "t0.25-n3", "t0.1-sigma1e152", "t0.1-n1e300",
        "n1e300", "n1e300-sigma1e152"])
def test_exact_laws_saturate_far_above_mode(n, t, x, sigma):
    # (c_n x + d_n)^(1/t) overflows in every case with t < 1, where both laws
    # take the kernels' limits at delta = inf; in the others the Maxwell
    # density at delta underflows to 0 while F^(n-1) is 1, and at
    # sigma = 1e152 the factor n c_n / t overflows, which gave inf * 0 = nan
    pn = powered_constants(solve_bn(n, sigma), t, Scheme.GENERAL_POWER)
    p = MaxwellParams(sigma)
    assert exact_powered_cdf(n, t, x, pn, p) == 1.0
    assert exact_powered_pdf(n, t, x, pn, p) == 0.0


@pytest.mark.parametrize("e", [158, 174, 200, 300], ids=lambda e: f"n1e{e}")
@pytest.mark.parametrize("t", [1.0, 2.0])
def test_exact_pdf_is_sigma_invariant_at_huge_n(t, e):
    n = 10**e
    # at sigma = 1e152 the Maxwell density f(delta), of order 1/sigma,
    # underflows and n c_n / t, of order n sigma, overflows: the density read
    # 0.0 or inf where it is about 0.302
    def density(sigma):
        pn = powered_constants(solve_bn(n, sigma), t, default_scheme(t))
        return exact_powered_pdf(n, t, 0.7, pn, MaxwellParams(sigma))

    assert density(1e152) == pytest.approx(density(1.0), rel=1e-12)


def test_exact_cdf_single_observation():
    base = solve_bn(25, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    x = 0.4
    delta = math.sqrt(pn.c_n * x + pn.d_n)
    assert exact_powered_cdf(1, 2.0, x, pn, P2) == pytest.approx(cdf(delta, P2), rel=1e-14)


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_exact_pdf_single_observation(t):
    # n = 1: c_n y^{1/t-1} f(delta) / t with F^0 = 1, also where the survival at
    # delta rounds to 1 (delta below about 1e-6 sigma), which gave 0.0
    base = solve_bn(25, 1.0)
    pn = powered_constants(base, t, Scheme.GENERAL_POWER if t == 1.0 else Scheme.SQUARE_OPTIMAL)
    p = MaxwellParams(1.0)
    for target in (1e-7, 1e-6, 1e-3, 0.5, 2.0):
        x = (target ** t - pn.d_n) / pn.c_n
        y = pn.c_n * x + pn.d_n
        delta = y ** (1.0 / t)
        want = pn.c_n / t * y ** (1.0 / t - 1.0) * maxwell.pdf(delta, p)
        assert want > 0.0
        assert abs(exact_powered_pdf(1, t, x, pn, p) / want - 1.0) <= 1e-12, target


def test_exact_cdf_tabulated_gap_matches_table():
    # golden-table convention: closed-form norming constants
    base = hall_base(25, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    gap = abs(exact_powered_cdf(25, 2.0, 0.7, pn, P2) - gumbel_cdf(0.7))
    assert gap == pytest.approx(0.0169056391, abs=1e-9)


def test_exact_cdf_solved_gap_frozen():
    base = solve_bn(25, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    gap = exact_powered_cdf(25, 2.0, 0.7, pn, P2) - gumbel_cdf(0.7)
    assert gap == pytest.approx(EXACT_GAP_N25_SOLVED, rel=1e-9)


def test_exact_pdf_tabulated_gap_matches_table():
    base = hall_base(375, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    gap = abs(exact_powered_pdf(375, 2.0, 0.7, pn, P2) - gumbel_pdf(0.7))
    assert gap == pytest.approx(0.00825613746, abs=1e-9)


def test_exact_pdf_integrates_to_one():
    for (t, n, s) in ((3.0, 50, 1.0), (1.0, 200, 1.5)):
        base = solve_bn(n, s)
        pn = powered_constants(base, t, Scheme.GENERAL_POWER)
        p = MaxwellParams(s)
        total, _ = quad(
            lambda x: exact_powered_pdf(n, t, x, pn, p, below_support="zero"),
            -6.0, 40.0, limit=400)
        assert abs(total - 1.0) <= 1e-8


def test_exact_pdf_matches_cdf_derivative():
    h = 1e-5
    for (t, n) in ((1.0, 50), (2.0, 100), (3.0, 400)):
        scheme = Scheme.SQUARE_OPTIMAL if t == 2.0 else Scheme.GENERAL_POWER
        base = solve_bn(n, 2.0)
        pn = powered_constants(base, t, scheme)
        for x in (-1.0, 0.0, 0.7, 2.0, 5.0):
            fd = (exact_powered_cdf(n, t, x + h, pn, P2)
                  - exact_powered_cdf(n, t, x - h, pn, P2)) / (2 * h)
            assert abs(fd - exact_powered_pdf(n, t, x, pn, P2)) <= 1e-7


def test_below_support_edge():
    base = solve_bn(3, 1.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    p1 = MaxwellParams(1.0)
    x_edge = -pn.d_n / pn.c_n - 0.5
    with pytest.raises(DomainError):
        exact_powered_cdf(3, 2.0, x_edge, pn, p1)
    assert exact_powered_cdf(3, 2.0, x_edge, pn, p1, below_support="zero") == 0.0
    assert exact_powered_pdf(3, 2.0, x_edge, pn, p1, below_support="zero") == 0.0


@pytest.mark.parametrize("law", [exact_powered_cdf, exact_powered_pdf])
@pytest.mark.parametrize("below_support", ["Zero", None, 0])
def test_below_support_takes_error_or_zero_only(law, below_support):
    pn = powered_constants(solve_bn(3, 1.0), 2.0, Scheme.SQUARE_OPTIMAL)
    x_edge = -pn.d_n / pn.c_n - 0.5
    with pytest.raises(ConfigurationError, match="below_support must be 'error' or 'zero'"):
        law(3, 2.0, x_edge, pn, MaxwellParams(1.0), below_support=below_support)


@pytest.mark.parametrize("law", [exact_powered_cdf, exact_powered_pdf])
def test_exact_law_rejects_constants_built_for_another_t(law):
    # constants built for t = 1, read at t = 3
    pn = powered_constants(solve_bn(100, 1.0), 1.0, Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError, match="differs from the constants' t = 1.0"):
        law(100, 3.0, 0.5, pn, MaxwellParams(1.0))


def test_density_whose_slope_overflows_is_domain_error():
    # y^(1/t - 1) overflows for y = 1e-310 at t = 700, where F^0 and f are nonzero
    pn = PoweredNorming(700.0, Scheme.GENERAL_POWER, 1.0, 0.0)
    with pytest.raises(DomainError, match="overflows at y"):
        exact_powered_pdf(1, 700.0, 1e-310, pn, MaxwellParams(1.0))


def test_pointwise_convergence_to_gumbel():
    for x in (-2.0, 0.0, 0.7, 1.5, 3.0):
        gaps = []
        for n in (10**3, 10**4, 10**5, 10**6):
            base = solve_bn(n, 1.0)
            pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
            gaps.append(abs(exact_powered_cdf(n, 2.0, x, pn, MaxwellParams(1.0))
                            - gumbel_cdf(x)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("convention", ["tabulated", "asymptotic"])
@pytest.mark.parametrize("kind, sigma", [
    (kind, sigma) for kind in ("cdf", "pdf") for sigma in (1.5e-154, 1e-100, 1.7, 1e100, 1e152)
])
def test_error_table_is_sigma_invariant(kind, sigma, convention):
    # sigma is a pure scale; at the ends of the range 1 / b_n^4 and sigma^4
    # leave the float range, which the errors must not
    ns = [25, 1000, 10**6]
    got = error_table(kind, 2.0, 0.7, sigma, ns, convention=convention)
    ref = error_table(kind, 2.0, 0.7, 1.0, ns, convention=convention)
    for row, unit in zip(got, ref):
        for field in ("err1", "err2", "err3"):
            assert getattr(row, field) == pytest.approx(getattr(unit, field), abs=1e-13)


def test_error_table_matches_golden_spot_rows(data_dir):
    golden = {r[0]: r[1:] for r in _golden_rows(data_dir, "table1_cdf_errors.csv")}
    rows = error_table("cdf", 2.0, 0.7, 2.0, [25, 50, 500, 1000])
    for row in rows:
        ref = golden[row.n]
        assert row.err1 == pytest.approx(ref[0], abs=1e-8)
        assert row.err2 == pytest.approx(ref[1], abs=1e-8)
        assert row.err3 == pytest.approx(ref[2], abs=1e-8)
    # the first-order error is coefficient-free: |F^n - Lambda| under hall_base
    assert rows[1].err1 == float.fromhex("0x1.d5c0f3e045780p-7")


def test_error_table_pdf_golden_spot_rows(data_dir):
    golden = {r[0]: r[1:] for r in _golden_rows(data_dir, "table2_pdf_errors.csv")}
    rows = error_table("pdf", 2.0, 0.7, 2.0, [375, 7500, 15000])
    for row in rows:
        ref = golden[row.n]
        assert row.err1 == pytest.approx(ref[0], abs=1e-8)
        assert row.err2 == pytest.approx(ref[1], abs=1e-8)
        assert row.err3 == pytest.approx(ref[2], abs=1e-8)


def test_error_table_asymptotic_convention():
    rows = error_table("cdf", 2.0, 0.7, 2.0, [25], convention="asymptotic")
    assert rows[0].err1 == pytest.approx(abs(EXACT_GAP_N25_SOLVED), rel=1e-6)
    # general power index works only in the asymptotic convention
    rows = error_table("cdf", 1.0, 0.7, 1.0, [100], convention="asymptotic")
    assert rows[0].err1 > 0
    with pytest.raises(ConfigurationError):
        error_table("cdf", 1.0, 0.7, 1.0, [100], convention="tabulated")
    with pytest.raises(ConfigurationError):
        error_table("cdf", 2.0, 0.7, 1.0, [100], convention="golden")


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
@pytest.mark.parametrize("convention", ["tabulated", "asymptotic", "rate_diagnostic"])
def test_error_table_makes_one_order_1_call_per_table(monkeypatch, kind, convention):
    # order 1, the Gumbel limit, is free of n: one call per table (and per
    # rate_diagnostic grid), while an error table calls orders 2 and 3 once a row
    law, orders = exact._KINDS[kind], []

    def counting(fn):
        def call(order, *args):
            orders.append(order)
            return fn(order, *args)
        return call

    def table(ns):
        if convention == "rate_diagnostic":
            return rate_diagnostic(kind, 2.0, 0.7, 2.0, ns)
        return error_table(kind, 2.0, 0.7, 2.0, ns, convention)

    ns = [25, 500, 10**4, 10**6]
    want = table(ns)
    monkeypatch.setitem(exact._KINDS, kind, law._replace(approx=counting(law.approx),
                                                         tabulated=counting(law.tabulated)))
    assert table(ns) == want
    if convention == "rate_diagnostic":
        assert orders == [1]
        return
    assert sorted(orders) == [1] + [2] * len(ns) + [3] * len(ns)
    orders.clear()
    assert table([]) == []
    assert orders == []


def test_error_table_single_row_idempotent():
    one = error_table("cdf", 2.0, 0.7, 2.0, [250])
    two = error_table("cdf", 2.0, 0.7, 2.0, [250])
    assert one == two
    assert len(one) == 1 and isinstance(one[0], ErrorRow)


def test_error_row_validation():
    with pytest.raises(DomainError):
        ErrorRow(n=10, err1=-1.0, err2=0.0, err3=0.0)
    with pytest.raises(DomainError):
        ErrorRow(n=10, err1=float("nan"), err2=0.0, err3=0.0)


def test_rate_diagnostic_square():
    diag = rate_diagnostic("cdf", 2.0, 0.7, 2.0, [10**4, 10**7, 10**10])
    assert -4.4 <= diag.slope <= -3.6
    assert diag.scale_power == 4
    # scaled sequence approaches the predicted limit from below
    assert diag.scaled[-1] == pytest.approx(diag.scaled_limit_prediction, rel=0.2)


def test_rate_diagnostic_general():
    diag = rate_diagnostic("pdf", 1.0, 0.7, 1.0, [10**4, 10**7, 10**10])
    assert -2.4 <= diag.slope <= -1.6
    assert diag.scale_power == 2


def test_rate_diagnostic_grid_validation():
    with pytest.raises(DiagnosticsError):
        rate_diagnostic("cdf", 2.0, 0.7, 2.0, [10**4, 10**5])
    with pytest.raises(DiagnosticsError):
        rate_diagnostic("cdf", 2.0, 0.7, 2.0, [10**6])


def test_rate_diagnostic_zero_error_is_diagnostics_error():
    # far above the mode the first-order error is exactly 0, which has no log
    with pytest.raises(DiagnosticsError, match="first-order error is 0"):
        rate_diagnostic("cdf", 2.0, 50.0, 2.0, [10**4, 10**8])


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
@pytest.mark.parametrize("t, x, sigma, message", [
    # err1 is scale-free, but err1 * b_n^4 carries sigma^4
    (2.0, 0.7, 1.5e-154, r"err1 \* b_n\^4 = 0.0 leaves"),
    (2.0, 0.7, 1e-100, r"err1 \* b_n\^4 = 0.0 leaves"),
    (2.0, 0.7, 1e100, r"err1 \* b_n\^4 = inf leaves"),
    (2.0, 0.7, 1e153, r"err1 \* b_n\^4 = inf leaves"),
    # sigma^2 x^2 overflows in the first coefficient
    (0.5, 20.0, 1e153, "scaled_limit_prediction"),
])
def test_rate_out_of_float_range_is_domain_error(kind, t, x, sigma, message):
    with pytest.raises(DomainError, match=message):
        rate_diagnostic(kind, t, x, sigma, [10**4, 10**8])


@pytest.mark.parametrize("kind", ["CDF", "bogus", None, []])
def test_unknown_kind_is_configuration_error(kind):
    with pytest.raises(ConfigurationError, match="unknown kind"):
        error_table(kind, 2.0, 0.7, 2.0, [25, 50])
    with pytest.raises(ConfigurationError, match="unknown kind"):
        rate_diagnostic(kind, 1.0, 0.7, 1.0, [10**4, 10**8])


def test_non_integral_grid_point_is_domain_error():
    grid = [10**4 + 0.5, 10**8]
    for call in (lambda: rate_diagnostic("cdf", 1.0, 0.7, 1.0, grid),
                 lambda: hall_rate_check(0.7, 1.0, grid),
                 lambda: compare_schemes(0.7, 1.0, grid),
                 lambda: adjudicate_density_coeffs(1.0, [0.0], 1.0, grid),
                 lambda: error_table("cdf", 1.0, 0.7, 1.0, grid, convention="asymptotic")):
        with pytest.raises(DomainError):
            call()
    # integral floats and numpy integers are still read as ints
    diag = rate_diagnostic("cdf", 1.0, 0.7, 1.0, [1e4, np.int64(10**8)])
    assert diag.ns == (10**4, 10**8) and all(type(n) is int for n in diag.ns)


def test_hall_rate_check_behaviour():
    chk = hall_rate_check(0.7, 1.0, [10**3, 10**4, 10**6, 10**8, 10**10])
    # finite-n reality: the gap is negative while the leading term is positive,
    # so the ratio sits in (-1, 0) with |ratio| shrinking
    assert all(-1.0 < r < 0.0 for r in chk.ratios)
    mags = [abs(r) for r in chk.ratios]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    # |ratio - 1| decreasing over n = 1e4 .. 1e10
    dev = [abs(r - 1.0) for r in chk.ratios[1:]]
    assert all(b < a for a, b in zip(dev, dev[1:]))
    # powered square maximum beats the non-powered one at every n
    assert all(e < abs(g) for e, g in zip(chk.powered_err1, chk.gaps))


def test_compare_schemes():
    cmp = compare_schemes(0.7, 1.0, [10**3, 10**4, 10**6, 10**8])
    assert all(o < a for o, a in zip(cmp.optimal, cmp.alternative))
    assert cmp.crossover_n == 10**3
    assert all(b < a for a, b in zip(cmp.optimal, cmp.optimal[1:]))
    assert all(b < a for a, b in zip(cmp.alternative, cmp.alternative[1:]))


@pytest.mark.parametrize("x, crossover", [(-1.0, 10**4), (-0.5, 10**3), (0.7, 100), (1.5, 3)])
def test_crossover_is_the_first_n_from_which_optimal_never_loses(x, crossover):
    # below x = 1.5 the optimal scheme loses at the small grid n
    cmp = compare_schemes(x, 1.0, [3, 5, 10, 30, 100, 10**3, 10**4, 10**6, 10**8])
    wins = [o <= a for o, a in zip(cmp.optimal, cmp.alternative)]
    assert crossover == next(n for i, n in enumerate(cmp.ns) if all(wins[i:]))
    assert cmp.crossover_n == crossover


def test_crossover_reads_the_grid_by_increasing_n():
    # the rows keep grid order; the crossover is that of the sorted grid
    ns = [10**10, 10**3, 30, 10**6]
    cmp = compare_schemes(0.7, 1.0, ns)
    assert cmp.ns == tuple(ns)
    assert cmp.crossover_n == compare_schemes(0.7, 1.0, sorted(ns)).crossover_n == 10**3


@pytest.mark.parametrize("kind, t", [("cdf", 0.5), ("pdf", 1.0), ("cdf", 2.0), ("pdf", 3.0)])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("x", [-1.0, 0.0, 0.7, 3.0])
def test_grid_diagnostics_walk_the_error_table_bit_for_bit(kind, t, sigma, x):
    # rate, compare-hall and compare-schemes walk the exact law as error_table does
    ns = [10**4, 10**6, 10**8]
    rows = error_table(kind, t, x, sigma, ns, "asymptotic")
    assert rate_diagnostic(kind, t, x, sigma, ns).errors == tuple(r.err1 for r in rows)
    if (kind, t) == ("cdf", 2.0):
        assert hall_rate_check(x, sigma, ns).powered_err1 == tuple(r.err1 for r in rows)
        assert compare_schemes(x, sigma, ns).optimal == tuple(r.err2 for r in rows)


def test_compare_schemes_solves_each_grid_n_once(monkeypatch):
    # both schemes share the root of each n
    calls = []

    def counting(n, sigma):
        calls.append(n)
        return solve_bn(n, sigma)

    ns = [10**3, 10**4, 10**5, 10**6, 10**8, 10**10]
    want = compare_schemes(0.7, 1.0, ns)
    monkeypatch.setattr(exact, "solve_bn", counting)
    assert compare_schemes(0.7, 1.0, ns) == want
    assert calls == ns


def test_adjudication_rejects_square_power():
    with pytest.raises(ConfigurationError):
        adjudicate_density_coeffs(2.0, [0.0, 1.0], 1.0, [10**4, 10**6])


def test_adjudication_identifies_consistent_variant():
    xs = np.arange(-1.0, 3.01, 0.5)
    report = adjudicate_density_coeffs(1.0, xs, 1.0, [10**5, 10**7, 10**9])
    assert report.winner == "consistent"
    assert report.rel_dev_consistent < 0.05
    assert report.rel_dev_classic > 0.05
    # deviations from the consistent variant shrink with n; classic ones do not
    assert report.sup_dev_consistent[-1] < report.sup_dev_consistent[0]
    assert report.sup_dev_classic[-1] > report.sup_dev_consistent[-1]
    text = report.summary()
    assert "winner: consistent" in text


def test_adjudication_pointwise_at_x2():
    # R(1e10, x=2) at t=1 sits within 5% of exactly one variant
    base = solve_bn(10**10, 1.0)
    pn = powered_constants(base, 1.0, Scheme.GENERAL_POWER)
    r = (exact_powered_pdf(10**10, 1.0, 2.0, pn, MaxwellParams(1.0))
         / gumbel_pdf(2.0) - 1.0) * base.b_n**2
    cons = _pdf_coeff1_general(1.0, 2.0, math.exp(-2.0))
    clas = _pdf_coeff1_classic(1.0, 2.0, math.exp(-2.0))
    hits = [abs(r - cons) <= 0.05 * abs(cons), abs(r - clas) <= 0.05 * abs(clas)]
    assert hits == [True, False]


@pytest.mark.parametrize("n_grid", [[10**6] * 3, [10**6, 10**6], [10**300, 10**300 + 1]])
def test_adjudication_needs_two_distinct_b_n(n_grid):
    # one distinct n, or distinct n with one b_n^-2, leave the limit undefined
    with pytest.raises(DiagnosticsError):
        adjudicate_density_coeffs(1.0, [0.0, 1.0], 1.0, n_grid)


@pytest.mark.parametrize("sigma", [1.5e-154, 1e-150, 1e100, 1e152])
def test_adjudication_is_scale_free_in_sigma(sigma):
    # R and both coefficient variants scale with sigma^2, so the relative
    # deviations and the winner must not depend on sigma, even where the
    # slope in b_n^-2 is beyond float range
    xs, ns = [-1.0, 0.5, 2.0], [10**6, 10**8, 10**10]
    ref = adjudicate_density_coeffs(1.0, xs, 1.0, ns)
    report = adjudicate_density_coeffs(1.0, xs, sigma, ns)
    assert report.winner == ref.winner == "consistent"
    assert report.rel_dev_consistent == pytest.approx(ref.rel_dev_consistent, rel=1e-6)
    assert report.rel_dev_classic == pytest.approx(ref.rel_dev_classic, rel=1e-6)


def test_adjudication_rejects_an_empty_x_grid():
    with pytest.raises(DiagnosticsError, match="^empty x grid$"):
        adjudicate_density_coeffs(1.0, [], 1.0, [10**6, 10**8])


def test_adjudication_of_a_coefficient_zero_at_every_grid_x_is_a_diagnostics_error():
    # at t = 2.5, x = -2 the consistent coefficient is exactly 0: A1 = 0 and
    # x ((t - 2) x / 2 + 3 - t) = 0, so no relative deviation exists
    assert _pdf_coeff1_general(2.5, -2.0, math.exp(2.0)) == 0.0
    with pytest.raises(DiagnosticsError, match="^the consistent coefficient is 0 at every grid x"):
        adjudicate_density_coeffs(2.5, [-2.0], 1.0, [10**6, 10**8])
    report = adjudicate_density_coeffs(2.5, [-2.0, 0.5], 1.0, [10**6, 10**8])
    assert math.isfinite(report.rel_dev_consistent)


@pytest.mark.parametrize("xs", [[750.0, 750.5], [0.0, -800.0]])
def test_adjudication_underflowing_gumbel_density_is_domain_error(xs):
    with pytest.raises(DomainError, match="underflows to 0"):
        adjudicate_density_coeffs(1.0, xs, 1.0, [10**6, 10**8])


def test_adjudication_x0_matches_both_variants():
    # at x = 0 the variants coincide, so the scaled residual must sit near both
    report = adjudicate_density_coeffs(1.0, [0.0], 1.0, [10**6, 10**8])
    assert report.sup_dev_consistent[-1] == pytest.approx(
        report.sup_dev_classic[-1], rel=1e-12)
    assert report.sup_dev_consistent[-1] < 0.2


# ------------------------------------------------------------ line fit

def _round(q):
    """A Fraction rounded to the nearest float, +-inf beyond float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _fit_oracle(xs, ys):
    """Cramer's rule on the normal equations in Fractions, each result rounded once."""
    X, Y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    k, sx, sy = len(X), sum(X), sum(Y)
    sxx = sum(x * x for x in X)
    sxy = sum(x * y for x, y in zip(X, Y))
    det = sxx * k - sx * sx
    return _round((sxy * k - sx * sy) / det), _round((sxx * sy - sxy * sx) / det)


# magnitudes from the subnormals up to about 1e300
_wide_floats = st.builds(math.ldexp, st.integers(-2**53 + 1, 2**53 - 1),
                         st.integers(-1100, 944))
_dyadic_floats = st.builds(lambda m: m / 1024, st.integers(-2**20, 2**20))


@settings(max_examples=300)
@given(st.lists(_dyadic_floats, min_size=2, max_size=8, unique=True), _dyadic_floats,
       _dyadic_floats)
def test_fit_is_exact_on_collinear_dyadic_points(xs, slope, intercept):
    # every product and sum here is exact in floats, so the points lie on the line
    ys = [slope * x + intercept for x in xs]
    assert _fit(xs, ys) == (slope, intercept)


@settings(max_examples=300)
@given(st.lists(st.tuples(_wide_floats, _wide_floats), min_size=2, max_size=8),
       st.randoms(use_true_random=False))
def test_fit_matches_fraction_oracle_in_any_order(points, rnd):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    try:
        expected = _fit_oracle(xs, ys)
    except ZeroDivisionError:  # one distinct x
        with pytest.raises(DiagnosticsError):
            _fit(xs, ys)
        return
    assert _fit(xs, ys) == expected
    rnd.shuffle(points)
    assert _fit([p[0] for p in points], [p[1] for p in points]) == expected


@pytest.mark.parametrize("xs, ys", [
    ([1.0, 2.0], [0.0, math.inf]),
    ([1.0, math.nan], [0.0, 1.0]),
    ([-math.inf, 2.0], [0.0, 1.0]),
    ([3.0, 3.0, 3.0], [0.0, 1.0, 2.0]),
    ([3.0], [1.0]),
    ([], []),
])
def test_fit_degenerate_points_are_diagnostics_errors(xs, ys):
    with pytest.raises(DiagnosticsError):
        _fit(xs, ys)


def test_fit_rounds_out_of_range_slope_to_infinity():
    assert _fit([0.0, 5e-324], [0.0, 1e300]) == (math.inf, 0.0)
    assert _fit([0.0, 5e-324], [1.0, -1e300]) == (-math.inf, 1.0)


def test_pinned_slopes_are_exact_least_squares(data_dir):
    # each pinned rate slope is the correctly rounded least-squares slope
    # through the logs of its pinned b_values and errors
    with open(data_dir / "exact_bits.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["function"] == "rate_diagnostic"]
    groups = {}
    for row in rows:
        key = tuple(row[k] for k in ("kind", "t", "sigma", "x"))
        groups.setdefault(key, {}).setdefault(row["field"], []).append(
            float.fromhex(row["value"]))
    assert len(groups) == 16
    for fields in groups.values():
        xs = [math.log(b) for b in fields["b_values"]]
        ys = [math.log(e) for e in fields["errors"]]
        assert fields["slope"] == [_fit_oracle(xs, ys)[0]]


# ------------------------------------------------------------ pinned bits
# Each evaluator maps one grid call to {(n or "", field): value}, floats as
# float.hex, so exact_bits.csv pins every bit of the exact layer.

def _bits_error_table(kind, convention, t, sigma, x, ns):
    rows = error_table(kind, t, x, sigma, ns, convention=convention)
    return {(str(r.n), f): getattr(r, f).hex()
            for r in rows for f in ("err1", "err2", "err3")}


def _bits_per_n(result, fields):
    return {(str(n), f): getattr(result, f)[i].hex()
            for i, n in enumerate(result.ns) for f in fields}


def _bits_rate(kind, convention, t, sigma, x, ns):
    diag = rate_diagnostic(kind, t, x, sigma, ns)
    out = _bits_per_n(diag, ("b_values", "errors", "scaled"))
    out["", "slope"] = diag.slope.hex()
    out["", "scaled_limit_prediction"] = diag.scaled_limit_prediction.hex()
    return out


def _bits_hall(kind, convention, t, sigma, x, ns):
    chk = hall_rate_check(x, sigma, ns)
    return _bits_per_n(chk, ("gaps", "leading", "ratios", "powered_err1"))


def _bits_schemes(kind, convention, t, sigma, x, ns):
    cmp = compare_schemes(x, sigma, ns)
    out = _bits_per_n(cmp, ("optimal", "alternative"))
    out["", "crossover_n"] = str(cmp.crossover_n)
    return out


def _bits_law(law):
    def bits(kind, convention, t, sigma, x, ns):
        out = {}
        for n in ns:
            pn = powered_constants(solve_bn(n, sigma), t, default_scheme(t))
            value = law(n, t, x, pn, MaxwellParams(sigma), below_support="zero")
            out[str(n), "value"] = value.hex()
        return out
    return bits


def _bits_unpowered(kind, convention, t, sigma, x, ns):
    return {(str(n), "value"): exact_unpowered_cdf(n, x, MaxwellParams(sigma)).hex()
            for n in ns}


EXACT_BITS = {
    "error_table": _bits_error_table,
    "rate_diagnostic": _bits_rate,
    "hall_rate_check": _bits_hall,
    "compare_schemes": _bits_schemes,
    "exact_powered_cdf": _bits_law(exact_powered_cdf),
    "exact_powered_pdf": _bits_law(exact_powered_pdf),
    "exact_unpowered_cdf": _bits_unpowered,
}


def exact_bits_groups(rows):
    """Group csv rows into one call each: (function, kind, convention, t, sigma, x)."""
    groups = {}
    for row in rows:
        key = tuple(row[k] for k in ("function", "kind", "convention", "t", "sigma", "x"))
        groups.setdefault(key, []).append(row)
    for (function, kind, convention, t, sigma, x), group in groups.items():
        ns = list(dict.fromkeys(int(r["n"]) for r in group if r["n"]))
        yield group, EXACT_BITS[function](kind, convention, float(t), float(sigma),
                                          float(x), ns)


def test_exact_layer_bits_pinned(data_dir):
    # exact_bits.csv holds float.hex values of error tables in both
    # conventions, the grid diagnostics and the three exact laws (including
    # points where the survival function rounds to 1), recorded before the
    # exact layer was consolidated; the consolidation must not move a bit.
    # The 16 rate slopes were re-recorded when the fit became the correctly
    # rounded exact least-squares line, and 6 sigma = 1.7 error_table fields
    # when the approximations moved to sigma = 1 units (z = b_n / sigma), and
    # 63 pdf fields at sigma = 1 and 1.7 when exact_powered_pdf stopped
    # forming n * c_n first, and the pdf scaled_limit_prediction at t = 1 and
    # 3, sigma = 1.7 (-2 and +1 ulp) when the prediction became sigma^2 times
    # the sigma = 1 coefficient
    with open(data_dir / "exact_bits.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 816
    for group, got in exact_bits_groups(rows):
        for row in group:
            assert got[row["n"], row["field"]] == row["value"], row


_PN1 = powered_constants(solve_bn(25, 1.0), 1.0, Scheme.GENERAL_POWER)
_LAWS = {
    "exact_powered_cdf": lambda n: exact_powered_cdf(n, 1.0, 0.7, _PN1, MaxwellParams(1.0)),
    "exact_powered_pdf": lambda n: exact_powered_pdf(n, 1.0, 0.7, _PN1, MaxwellParams(1.0)),
    "exact_unpowered_cdf": lambda n: exact_unpowered_cdf(n, 3.0, MaxwellParams(1.0)),
}


@pytest.mark.parametrize("law", _LAWS)
@pytest.mark.parametrize("bad", [-5, 0, 2.5, True, math.nan, "3", 10**400],
                         ids=["-5", "0", "2.5", "True", "nan", "str", "10**400"])
def test_exact_laws_reject_bad_sample_size(law, bad):
    # n must be an integer >= 1 within float range: no value for n <= 0, no
    # silent truncation or bool, no bare TypeError or OverflowError
    with pytest.raises(DomainError) as info:
        _LAWS[law](bad)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("call", [
    # below the support edge, mapped to 0
    lambda n: exact_powered_cdf(n, 1.0, -1e6, _PN1, MaxwellParams(1.0), "zero"),
    lambda n: exact_powered_pdf(n, 1.0, -1e6, _PN1, MaxwellParams(1.0), "zero"),
    # (c_n x + d_n)^{1/t} overflows far above the mode
    lambda n: exact_powered_cdf(n, 0.01, 1e300, _PN1, MaxwellParams(1.0)),
    lambda n: exact_powered_pdf(n, 0.01, 1e300, _PN1, MaxwellParams(1.0)),
    # the survival rounds to 1 at the origin
    lambda n: exact_unpowered_cdf(n, 0.0, MaxwellParams(1.0)),
], ids=["cdf-below", "pdf-below", "cdf-overflow", "pdf-overflow", "unpowered-origin"])
def test_huge_sample_size_is_domain_error_on_every_branch(call):
    # the range check on n comes before any early return of the laws
    with pytest.raises(DomainError, match="beyond float range"):
        call(10**400)


@pytest.mark.parametrize("law", _LAWS)
def test_exact_laws_accept_integral_sample_sizes(law):
    ref = _LAWS[law](25)
    for n in (np.int64(25), 25.0, np.float64(25.0)):
        assert _LAWS[law](n) == ref
    assert 0.0 < _LAWS[law](1) < math.inf


_GRID = [10**4, 10**6, 10**8]


@pytest.mark.parametrize("bad", [None, "abc", [], 10**400], ids=["None", "str", "list", "huge"])
@pytest.mark.parametrize("call", [
    lambda v: default_scheme(v),
    lambda v: error_table("cdf", v, 0.7, 1.0, [25]),
    lambda v: error_table("cdf", 2.0, v, 1.0, [25]),
    lambda v: error_table("pdf", 1.0, v, 1.0, [25], convention="asymptotic"),
    lambda v: rate_diagnostic("cdf", v, 0.7, 1.0, [10**4, 10**8]),
    lambda v: rate_diagnostic("pdf", 2.0, v, 1.0, [10**4, 10**8]),
    lambda v: hall_rate_check(v, 1.0, _GRID),
    lambda v: compare_schemes(v, 1.0, _GRID),
    lambda v: adjudicate_density_coeffs(v, [0.0, 1.0], 1.0, _GRID),
    lambda v: adjudicate_density_coeffs(1.0, [0.0, v], 1.0, _GRID),
    lambda v: exact_powered_cdf(25, 2.0, v, powered_constants(solve_bn(25, 2.0), 2.0,
                                                              Scheme.SQUARE_OPTIMAL), P2),
], ids=["default_scheme", "error_table-t", "error_table-x", "error_table-pdf-x",
        "rate-t", "rate-x", "hall-x", "schemes-x", "adjudicate-t", "adjudicate-x",
        "exact_powered_cdf-x"])
def test_non_real_t_or_x_is_domain_error(call, bad):
    # no bare TypeError, ValueError or OverflowError from float(t) or float(x)
    with pytest.raises(DomainError) as info:
        call(bad)
    assert len(str(info.value)) < 200


def _finite_or_maxext_error(fn, *args):
    try:
        value = fn(*args)
    except MaxextError:
        return
    assert isinstance(value, float) and math.isfinite(value), (fn.__name__, args, value)


@settings(max_examples=400, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False),
       n=st.sampled_from([3, 500, 10**12, 10**300]),
       sigma=st.sampled_from([1.5e-154, 1.0, 1e152]),
       case=st.sampled_from([(0.01, Scheme.GENERAL_POWER), (0.5, Scheme.GENERAL_POWER),
                             (1.0, Scheme.GENERAL_POWER), (3.0, Scheme.GENERAL_POWER),
                             (40.0, Scheme.GENERAL_POWER), (2.0, Scheme.SQUARE_OPTIMAL),
                             (2.0, Scheme.SQUARE_ALTERNATIVE)]))
def test_any_finite_x_gives_finite_value_or_maxext_error(x, n, sigma, case):
    # far below and far above the mode, at both ends of the sigma domain
    t, scheme = case
    p = MaxwellParams(sigma)
    for fn in (maxwell.pdf, maxwell.cdf, maxwell.survival):
        _finite_or_maxext_error(fn, x, p)
    base, hall = solve_bn(n, sigma), hall_base(n, sigma)
    for order in (1, 2, 3):
        for fn in (cdf_approx, pdf_approx):
            _finite_or_maxext_error(fn, order, t, x, base, scheme)
        for fn in (_cdf_approx_tabulated, _pdf_approx_tabulated):
            _finite_or_maxext_error(fn, order, 2.0, x, hall, Scheme.SQUARE_OPTIMAL)
    try:
        pn = powered_constants(base, t, scheme)
    except MaxextError:  # c_n or d_n out of float range
        return
    for fn in (exact_powered_cdf, exact_powered_pdf):
        _finite_or_maxext_error(fn, n, t, x, pn, p, "zero")
