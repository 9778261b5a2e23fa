"""Maxwell distribution layer: closed forms vs quadrature, tails, sampling."""
import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from maxext.errors import DomainError
from maxext.maxwell import (
    MaxwellParams,
    cdf,
    pdf,
    sample,
    survival,
    tail_expansion,
    tail_remainder,
)

# frozen 30+ digit oracle values (quadrature / erfc forms evaluated in
# arbitrary precision before the build)
CDF_2_S1 = 0.7385358700508893778
SF_2_S1 = 0.2614641299491106222
PDF_1_S1 = 0.4839414490382866996
SF_TABLE = {
    (1.0, 5.0): 1.5440498291101364902e-5,
    (1.0, 10.0): 1.5541594313896049214e-21,
    (1.0, 20.0): 2.2138865931011177432e-86,
    (1.0, 36.0): 1.0858079214998435919e-280,
    (2.0, 10.0): 1.5440498291101364902e-5,
    (2.0, 24.0): 5.186850607832898408e-31,
    (0.5, 4.0): 8.2080529451444633432e-14,
}
TAIL4_RELDEV_X10 = 1.38976561426e-7  # |tail_expansion/survival - 1| at x=10, sigma=1


def test_params_validation():
    with pytest.raises(DomainError):
        MaxwellParams(0.0)
    with pytest.raises(DomainError):
        MaxwellParams(-1.0)
    with pytest.raises(DomainError):
        MaxwellParams(float("nan"))


def test_params_accept_numpy_scalars():
    for s in (np.float32(1.0), np.float64(1.0), np.int64(1), np.int8(1)):
        p = MaxwellParams(s)
        assert p == MaxwellParams(1.0) and type(p.sigma) is float
    for bad in (np.float32("nan"), np.float32(-1.0), np.int64(0), "1.0"):
        with pytest.raises(DomainError):
            MaxwellParams(bad)


def test_pdf_values():
    p = MaxwellParams(1.0)
    assert pdf(0.0, p) == 0.0
    assert pdf(-2.0, p) == 0.0
    assert abs(pdf(1.0, p) - PDF_1_S1) <= 1e-16


def test_pdf_mode_at_sqrt2_sigma():
    for s in (0.5, 1.0, 3.0):
        p = MaxwellParams(s)
        m = math.sqrt(2.0) * s
        assert pdf(m, p) >= pdf(m + 1e-3 * s, p)
        assert pdf(m, p) >= pdf(m - 1e-3 * s, p)
        fd = (pdf(m + 1e-6 * s, p) - pdf(m - 1e-6 * s, p)) / (2e-6 * s)
        assert abs(fd) <= 1e-6 / s


def test_pdf_integrates_to_one():
    for s in (0.5, 1.0, 2.0):
        p = MaxwellParams(s)
        total, _ = quad(lambda v: pdf(v, p), 0.0, 60.0 * s, limit=300)
        assert abs(total - 1.0) <= 1e-10


def test_cdf_against_quadrature():
    p = MaxwellParams(1.0)
    for x in (0.3, 1.0, 2.0, 3.5):
        ref, _ = quad(lambda v: pdf(v, p), 0.0, x, limit=200)
        assert abs(cdf(x, p) - ref) <= 1e-13
    assert abs(cdf(2.0, p) - CDF_2_S1) <= 1e-14


def test_cdf_edges():
    p = MaxwellParams(1.3)
    assert cdf(0.0, p) == 0.0
    assert cdf(-5.0, p) == 0.0
    assert cdf(50.0 * 1.3, p) == pytest.approx(1.0, abs=1e-15)


def test_cdf_below_sigma_is_the_incomplete_gamma_series():
    # erf - z * density cancels near 0: at x = 1e-8 it gave -1.65e-24, not 2.66e-25.
    # Below x = sigma the cdf is never negative and within 1e-12 of P(3/2, z^2/2)
    # wherever that is a normal float; from x = sigma up it keeps the erf form's bits
    from scipy.special import gammainc

    rng = np.random.default_rng(20)
    xs = 10.0 ** rng.uniform(-12, -3, 2000)
    sigmas = 10.0 ** rng.uniform(-12, -3, 2000)
    zs = list(10.0 ** rng.uniform(-110, 0, 2000)) + [1e-8, 0.5, 0.999999, 1.0 - 2**-53]
    for x, s in [*zip(xs, sigmas), *((z, 1.0) for z in zs)]:
        got = cdf(x, MaxwellParams(s))
        assert got >= 0.0, (x, s)
        z = x / s
        ref = gammainc(1.5, z * z / 2)
        if ref >= 2.2250738585072014e-308:
            assert abs(got / ref - 1.0) <= 1e-12, (x, s)
    assert abs(cdf(1e-8, MaxwellParams(1.0)) / 2.659615202676218e-25 - 1.0) <= 1e-14
    for sigma in (1e-150, 0.7, 1.0, 1e150):
        for v in (1.0, 1.0 + 2**-52, 1.5, 2.0, 3.0, 8.0, 40.0, 1e10):
            x = sigma * v
            z = x / sigma
            e = math.exp(-0.5 * z * z)
            want = math.erf(z / math.sqrt(2.0)) - (math.sqrt(2.0 / math.pi) * z * e if e else 0.0)
            assert cdf(x, MaxwellParams(sigma)).hex() == want.hex(), (x, sigma)


def test_survival_values():
    p = MaxwellParams(1.0)
    assert survival(0.0, p) == 1.0
    assert abs(survival(2.0, p) - SF_2_S1) <= 1e-15
    for (s, x), ref in SF_TABLE.items():
        assert abs(survival(x, MaxwellParams(s)) / ref - 1.0) <= 1e-12


def test_cdf_survival_complement():
    p = MaxwellParams(2.0)
    last = survival(0.0, p)
    for x in np.linspace(0.05, 20.0, 120):
        assert abs(cdf(x, p) + survival(x, p) - 1.0) <= 1e-13
        cur = survival(x, p)
        assert cur < last
        last = cur


def test_survival_never_negative():
    p = MaxwellParams(1.0)
    for x in (30.0, 36.0, 50.0, 200.0):
        assert survival(x, p) >= 0.0


@pytest.mark.parametrize("x, sigma", [(40.0, 1.0), (1e200, 1.0), (1.0, 1.5e-154),
                                      (1e300, 1e-10)])
def test_far_above_mode_saturates(x, sigma):
    # exp(-z^2/2) underflows; in the last two cases z * z overflows as well,
    # which left 0 * inf = nan in the density
    p = MaxwellParams(sigma)
    assert (pdf(x, p), cdf(x, p), survival(x, p), tail_expansion(x, p)) == (0.0, 1.0, 0.0, 0.0)


def test_tail_expansion_leading_term():
    p = MaxwellParams(1.4)
    for x in (3.0, 7.0, 12.0):
        lead = 1.4**2 / x * pdf(x, p)
        assert tail_expansion(x, p, terms=1) == pytest.approx(lead, rel=1e-15)


def test_tail_expansion_improves_with_terms():
    for s in (0.5, 1.0, 2.0):
        p = MaxwellParams(s)
        for ratio in np.linspace(6.0, 30.0, 25):
            x = ratio * s
            sf = survival(x, p)
            errs = [abs(tail_expansion(x, p, terms=k) - sf) for k in (1, 2, 3, 4)]
            assert errs[1] < errs[0]
            assert errs[2] < errs[1]
            assert errs[3] < errs[2]


def test_tail_expansion_vs_survival_frozen():
    p = MaxwellParams(1.0)
    dev = abs(tail_expansion(10.0, p, 4) / survival(10.0, p) - 1.0)
    assert dev == pytest.approx(TAIL4_RELDEV_X10, rel=1e-2)
    # x = 40 at sigma = 2 is 20 scale units out: remainder ~ (s/x)^8 level
    p2 = MaxwellParams(2.0)
    ratio = tail_expansion(40.0, p2, 4) / survival(40.0, p2)
    assert abs(ratio - 1.0) <= 1e-9


def test_tail_remainder_scaled_band():
    # remainder * (x/sigma)^8 tends to -15; factor-10 band over [8s, 40s]
    for s in (0.5, 1.0, 2.0):
        p = MaxwellParams(s)
        vals = [tail_remainder(r * s, p) * r**8 for r in np.arange(8.0, 40.01, 0.5)]
        assert all(v < 0 for v in vals)
        assert max(abs(v) for v in vals) / min(abs(v) for v in vals) <= 10.0
        assert abs(vals[-1] + 15.0) <= 0.1


def test_tail_remainder_matches_mp_reference(data_dir):
    """Within 1e-14 relative of every tail_remainder row of mp_reference.csv.

    Each value was recorded with mpmath 1.3.0 at mp.dps = 140 as, with
    z = mpf(x) / mpf(sigma),
    sqrt(pi/2) * erfc(z/sqrt(2)) * exp(z**2/2) / z - (z**-2 - z**-4 + 3*z**-6)
    for z = 10**(k/20), k = -26..120 (0.05 to 1e6), and 1.999, 2, 2.001, 8
    and 25, at sigma = 2**-500, 1 and 2**500, so that x = z * sigma is exact.
    """
    with open(data_dir / "mp_reference.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["function"] == "tail_remainder"]
    assert len(rows) == 456
    worst = max(
        abs(tail_remainder(float(row["x"]), MaxwellParams(float(row["sigma"])))
            / float(row["value"]) - 1.0)
        for row in rows
    )
    assert worst <= 1e-14


@pytest.mark.parametrize("x", [0.0, -1.0])
def test_tail_remainder_rejects_x_at_or_below_0(x):
    with pytest.raises(DomainError, match=r"^tail_remainder requires x > 0, got "):
        tail_remainder(x, MaxwellParams(1.0))


def test_tail_remainder_tiny_and_huge_ratios():
    p = MaxwellParams(1.0)
    # the value, about -3 (sigma/x)^6, nears the float range below 1e-50
    assert tail_remainder(1e-50, p) == pytest.approx(-3e300, rel=1e-14)
    with pytest.raises(DomainError, match=r"x/sigma >= 1e-50"):
        tail_remainder(1e-51, p)
    with pytest.raises(DomainError):
        tail_remainder(1e-300, MaxwellParams(1e300))  # x/sigma underflows to 0
    # -15 (sigma/x)^8 underflows, and so does the result
    for x, sigma in ((1e41, 1.0), (1e300, 1e-300), (1.7e308, 1.0)):
        assert tail_remainder(x, MaxwellParams(sigma)) == 0.0


@pytest.mark.parametrize("x, sigma", [(1e-60, 1.0), (0.7, 1e100), (1e-200, 1.0),
                                      (1e-310, 1.5e-154), (1e-10, 1e300)])
def test_tail_expansion_rejects_x_below_tail_remainders_floor(x, sigma):
    # it returned inf below x/sigma = 5e-52 and raised a bare OverflowError below 7e-155
    with pytest.raises(DomainError, match=r"^tail_expansion requires x/sigma >= 1e-50, got "):
        tail_expansion(x, MaxwellParams(sigma))


def test_tail_expansion_is_finite_or_domain_error_at_any_scale():
    assert tail_expansion(1e-50, MaxwellParams(1.0)) == pytest.approx(2.3936536824e250)
    for sigma in (1.5e-154, 1e-100, 1.0, 1e100, 1e300):
        p = MaxwellParams(sigma)
        for x in (10.0**e for e in range(-320, 309, 3)):
            try:
                value = tail_expansion(x, p)
            except DomainError:
                assert x / sigma < 1e-50, (x, sigma)
            else:
                assert math.isfinite(value) and x / sigma >= 1e-50, (x, sigma, value)


def test_tail_expansion_domain():
    p = MaxwellParams(1.0)
    with pytest.raises(DomainError):
        tail_expansion(0.0, p)
    with pytest.raises(DomainError):
        tail_expansion(-1.0, p)
    with pytest.raises(DomainError):
        tail_expansion(5.0, p, terms=5)
    with pytest.raises(DomainError):
        survival(float("nan"), p)


@pytest.mark.parametrize("fn", [pdf, cdf, survival, tail_expansion, tail_remainder])
def test_nan_rejected_by_name(fn):
    with pytest.raises(DomainError, match=f"^{fn.__name__}: NaN input$"):
        fn(float("nan"), MaxwellParams(1.0))


def test_sample_positive_and_scales():
    p = MaxwellParams(0.7)
    rng = np.random.default_rng(0)
    v = sample(rng, p)
    assert isinstance(v, float) and v > 0.0
    draws = sample(np.random.default_rng(1), p, size=1000)
    assert draws.shape == (1000,)
    assert (draws > 0.0).all()


def test_sample_mean_matches_moment():
    p = MaxwellParams(1.0)
    rng = np.random.default_rng(42)
    draws = sample(rng, p, size=100_000)
    mean = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    target = 2.0 * math.sqrt(2.0 / math.pi)
    assert abs(mean - target) <= 4.0 * se


def test_sample_ks_against_cdf():
    p = MaxwellParams(1.0)
    rng = np.random.default_rng(42)
    draws = sample(rng, p, size=100_000)
    stat = kstest(draws, lambda v: np.vectorize(lambda q: cdf(q, p))(v)).statistic
    assert stat <= 1.95 / math.sqrt(draws.size)
