"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints
one pass/fail line per criterion (see conftest).
"""
import csv
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from maxext.exact import (
    adjudicate_density_coeffs,
    compare_schemes,
    error_table,
    exact_powered_cdf,
    exact_powered_pdf,
    hall_rate_check,
    rate_diagnostic,
)
from maxext.expansions import (
    _cdf_coeff1_square,
    _cdf_coeff2_square,
    _pdf_coeff1_square,
    _pdf_coeff2_square,
)
from maxext.maxwell import MaxwellParams, tail_remainder
from maxext.montecarlo import SimulationConfig, ks_distance, simulate_powered_maxima
from maxext.norming import Scheme, powered_constants, solve_bn
from maxext.special import gumbel_cdf


def _load_golden(data_dir, name):
    with open(data_dir / name, newline="") as fh:
        return [(int(r["n"]), float(r["err1"]), float(r["err2"]), float(r["err3"]))
                for r in csv.DictReader(fh)]


def _table_delta(rows, golden):
    worst = 0.0
    for row, ref in zip(rows, golden):
        assert row.n == ref[0]
        worst = max(worst, abs(row.err1 - ref[1]), abs(row.err2 - ref[2]),
                    abs(row.err3 - ref[3]))
    return worst


def test_c01_table1_reproduction(data_dir):
    golden = _load_golden(data_dir, "table1_cdf_errors.csv")
    start = time.perf_counter()
    rows = error_table("cdf", 2.0, 0.7, 2.0, range(25, 1001, 25))
    elapsed = time.perf_counter() - start
    assert len(rows) == 40
    worst = _table_delta(rows, golden)
    assert worst <= 1e-6, f"worst deviation {worst}"
    assert worst <= 1e-8  # target accuracy also holds
    assert elapsed < 2.0, f"took {elapsed:.3f}s"


def test_c02_table2_reproduction(data_dir):
    golden = _load_golden(data_dir, "table2_pdf_errors.csv")
    start = time.perf_counter()
    rows = error_table("pdf", 2.0, 0.7, 2.0, range(375, 15001, 375))
    elapsed = time.perf_counter() - start
    assert len(rows) == 40
    worst = _table_delta(rows, golden)
    assert worst <= 1e-6, f"worst deviation {worst}"
    assert worst <= 1e-8
    assert elapsed < 2.0, f"took {elapsed:.3f}s"


def test_c03_order_monotonicity():
    for kind, grid in (("cdf", range(25, 1001, 25)), ("pdf", range(375, 15001, 375))):
        for row in error_table(kind, 2.0, 0.7, 2.0, grid):
            assert row.err3 <= row.err2 <= row.err1, f"{kind} n={row.n}"


def test_c04_density_coefficient_identities():
    rng = np.random.default_rng(20240607)
    s = 1.0
    for x in rng.uniform(-3.0, 10.0, size=1000):
        emx = math.exp(-x)
        b1 = s**4 * _cdf_coeff1_square(x)
        db1 = -(s**4) * (2.0 * x + 1.0)
        assert abs(s**4 * _pdf_coeff1_square(x) - (-emx * b1 + b1 - db1)) <= 1e-12
        b2 = s**6 * _cdf_coeff2_square(x)
        db2 = s**6 * (4.0 * x * x + 4.0 * x + 2.0)
        assert abs(s**6 * _pdf_coeff2_square(x) - (-emx * b2 + b2 - db2)) <= 1e-12


def test_c05_rate_verification():
    grid = [10**4, 10**6, 10**8, 10**10, 10**12]
    diag2 = rate_diagnostic("cdf", 2.0, 0.7, 2.0, grid)
    assert -4.4 <= diag2.slope <= -3.6, f"t=2 slope {diag2.slope}"
    for t in (1.0, 3.0):
        diag = rate_diagnostic("cdf", t, 0.7, 2.0, grid)
        assert -2.4 <= diag.slope <= -1.6, f"t={t} slope {diag.slope}"
    # scaled limit at n = 1e10 within 20% of e^{-x} |B1(x)| Lambda(x)
    i = grid.index(10**10)
    scaled = diag2.scaled[i]
    target = math.exp(-0.7) * abs(2.0**4 * _cdf_coeff1_square(0.7)) * gumbel_cdf(0.7)
    assert abs(scaled / target - 1.0) <= 0.2, (scaled, target)


def test_c06_powered_beats_unpowered():
    chk = hall_rate_check(0.7, 1.0, [10**4, 10**6, 10**8])
    for e1, gap in zip(chk.powered_err1, chk.gaps):
        assert e1 < abs(gap)


def test_c07_optimal_scheme_dominates():
    grid = [10**3, 10**4, 10**5, 10**6, 10**8, 10**10]
    cmp = compare_schemes(0.7, 1.0, grid)
    assert all(o < a for o, a in zip(cmp.optimal, cmp.alternative))
    assert cmp.crossover_n == 10**3
    bs = [solve_bn(n, 1.0).b_n for n in grid]
    ratios = [a / o for o, a in zip(cmp.optimal, cmp.alternative)]
    slope = float(np.polyfit(np.log(bs), np.log(ratios), 1)[0])
    assert 1.6 <= slope <= 2.4, f"ratio slope {slope}"


def test_c08_tail_expansion_remainder_band():
    for s in (0.5, 1.0, 2.0):
        p = MaxwellParams(s)
        vals = [abs(tail_remainder(r * s, p)) * r**8 for r in np.arange(8.0, 40.001, 0.5)]
        assert max(vals) / min(vals) <= 10.0, f"sigma={s}"


def test_c09_exact_layer_selfconsistency():
    h = 1e-5
    p = MaxwellParams(2.0)
    for t, n in ((0.5, 1000), (1.0, 50), (2.0, 100), (3.0, 400)):
        scheme = Scheme.SQUARE_OPTIMAL if t == 2.0 else Scheme.GENERAL_POWER
        base = solve_bn(n, 2.0)
        pn = powered_constants(base, t, scheme)
        for x in (-1.0, 0.0, 0.7, 2.0, 5.0):
            fd = (exact_powered_cdf(n, t, x + h, pn, p)
                  - exact_powered_cdf(n, t, x - h, pn, p)) / (2.0 * h)
            assert abs(fd - exact_powered_pdf(n, t, x, pn, p)) <= 1e-7
    base = solve_bn(100, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    total, _ = quad(lambda x: exact_powered_pdf(100, 2.0, x, pn, p,
                                                below_support="zero"),
                    -6.0, 30.0, limit=400)
    assert abs(total - 1.0) <= 1e-8


def test_c10_montecarlo_convergence():
    start = time.perf_counter()
    for t in (1.0, 2.0):
        scheme = Scheme.SQUARE_OPTIMAL if t == 2.0 else Scheme.GENERAL_POWER
        ks = []
        for n in (100, 1000, 10_000):
            cfg = SimulationConfig(n=n, t=t, sigma=1.0, reps=10_000, seed=205,
                                   scheme=scheme)
            ks.append(ks_distance(simulate_powered_maxima(cfg), gumbel_cdf))
        assert ks[0] > ks[1] > ks[2], f"t={t}: {ks}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c11_density_coefficient_adjudication():
    report = adjudicate_density_coeffs(
        1.0, np.arange(-1.0, 3.001, 0.25), 1.0, [10**6, 10**8, 10**10])
    assert report.winner == "consistent"
    below = [v < 0.05 for v in (report.rel_dev_consistent, report.rel_dev_classic)]
    assert below.count(True) == 1, (report.rel_dev_consistent, report.rel_dev_classic)
    # the per-n deviation of the winning variant shrinks toward zero
    assert report.sup_dev_consistent[-1] < report.sup_dev_consistent[0]
