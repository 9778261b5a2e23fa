"""Special-function accuracy against a frozen high-precision oracle table."""
import math

import numpy as np
import pytest

from maxext.errors import DomainError
from maxext.special import erfc, gumbel_cdf, gumbel_pdf

# 30+ significant digit reference values, generated with an arbitrary-precision
# evaluator before the implementation was written.
ERFC_TABLE = {
    0.5: 0.47950012218695346232,
    1.0: 0.15729920705028513066,
    2.0: 4.6777349810472658379e-3,
    3.0: 2.2090496998585441373e-5,
    5.0: 1.5374597944280348502e-12,
    8.0: 1.122429717298292708e-29,
    10.0: 2.088487583762544757e-45,
    13.0: 1.7395573154667245218e-75,
    17.0: 1.0212280150942608811e-127,
    20.0: 5.3958656116079009289e-176,
    26.0: 5.6631924088561428465e-296,
}


def test_erfc_relative_accuracy():
    for x, ref in ERFC_TABLE.items():
        assert abs(erfc(x) / ref - 1.0) <= 1e-13


def test_erfc_examples():
    assert erfc(0.0) == 1.0
    assert abs(erfc(5.0) / 1.5374597944280349e-12 - 1.0) <= 1e-13
    assert abs(erfc(-2.0) - (2.0 - erfc(2.0))) <= 1e-15


def test_erfc_complements_erf_near_origin():
    for x in np.linspace(-1.0, 1.0, 201):
        assert abs(erfc(x) - (1.0 - math.erf(x))) <= 1e-15


def test_erfc_reflection_bulk():
    rng = np.random.default_rng(99)
    for x in rng.uniform(0.0, 3.0, size=10_000):
        assert abs(erfc(-x) - (2.0 - erfc(x))) <= 1e-15


def test_gumbel_cdf_values():
    assert abs(gumbel_cdf(0.0) - math.exp(-1.0)) <= 1e-16
    assert gumbel_cdf(40.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(gumbel_cdf(-1.0) - 0.06598803584531254) <= 1e-16


def test_gumbel_pdf_values():
    assert abs(gumbel_pdf(0.0) - math.exp(-1.0)) <= 1e-16
    assert abs(gumbel_pdf(2.0) - 0.118204951593143146) <= 1e-15
    # mode at the origin
    assert gumbel_pdf(0.0) >= gumbel_pdf(0.1)
    assert gumbel_pdf(0.0) >= gumbel_pdf(-0.1)


@pytest.mark.parametrize("x", [-709.0, -710.0, -800.0, -1e300, -math.inf])
def test_gumbel_underflows_to_zero_far_below_mode(x):
    # exp(-x) overflows below about -709.78; the true values are far below
    # the smallest subnormal there
    assert gumbel_cdf(x) == 0.0
    assert gumbel_pdf(x) == 0.0
    assert gumbel_cdf(-x) == 1.0


def test_gumbel_pdf_is_cdf_derivative():
    h = 1e-5
    for x in np.linspace(-3.0, 10.0, 131):
        fd = (gumbel_cdf(x + h) - gumbel_cdf(x - h)) / (2.0 * h)
        assert abs(fd - gumbel_pdf(x)) <= 1e-8


def test_gumbel_cdf_monotone_on_grid():
    xs = np.sort(np.random.default_rng(7).uniform(-6, 12, size=500))
    vals = [gumbel_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gumbel_pdf_integrates_to_one():
    from scipy.integrate import quad

    total, _ = quad(gumbel_pdf, -10, 60, limit=200)
    assert abs(total - 1.0) <= 1e-9


@pytest.mark.parametrize("fn", [erfc, gumbel_cdf, gumbel_pdf])
def test_nan_rejected(fn):
    with pytest.raises(DomainError):
        fn(float("nan"))


@pytest.mark.parametrize("fn", [erfc, gumbel_cdf, gumbel_pdf])
@pytest.mark.parametrize("bad", [None, "abc", [], 1j, 10**400],
                         ids=["None", "str", "list", "complex", "huge"])
def test_non_float_rejected(fn, bad):
    # anything but a real number within float range is a DomainError, with a
    # shortened repr
    rule = "a real number( within float range)?"
    with pytest.raises(DomainError, match=f"^{fn.__name__} must be {rule}, got .*$") as info:
        fn(bad)
    assert len(str(info.value)) < 100
