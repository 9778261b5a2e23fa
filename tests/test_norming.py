"""Norming constants: solver contract, closed forms, powered schemes."""
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from maxext import norming
from maxext.errors import (
    ConfigurationError,
    DomainError,
    MaxextError,
    NoRootError,
)
from maxext.exact import (
    adjudicate_density_coeffs,
    compare_schemes,
    hall_rate_check,
    rate_diagnostic,
)
from maxext.expansions import cdf_approx, pdf_approx
from maxext.maxwell import MaxwellParams
from maxext.montecarlo import SimulationConfig
from maxext.norming import (
    NormingBase,
    Scheme,
    equation_residual,
    hall_base,
    powered_constants,
    solve_bn,
    validate_scheme,
)

# frozen 20-digit roots from an arbitrary-precision solve
B_10_S1 = 2.436050895652024487
B_25_S2 = 5.6832855248648744862
B_100_S1 = 3.3424818416096280174
A_HAT_100_S1 = 0.32950511449113040575

GRID_N = [3, 10, 100, 10_000, 10**6, 10**8, 10**10, 10**12]
GRID_SIGMA = [0.5, 1.0, 2.0, 5.0]


def test_frozen_roots():
    assert solve_bn(10, 1.0).b_n == pytest.approx(B_10_S1, rel=1e-12)
    assert solve_bn(25, 2.0).b_n == pytest.approx(B_25_S2, rel=1e-12)
    assert solve_bn(100, 1.0).b_n == pytest.approx(B_100_S1, rel=1e-12)


def test_residual_contract_on_grid():
    for n in GRID_N:
        for s in GRID_SIGMA:
            base = solve_bn(n, s)
            assert base.b_n > s
            assert abs(equation_residual(base.b_n, n, s)) <= 1e-13
            assert base.a_n == s * s / base.b_n


@pytest.mark.parametrize("b", [40.0, 1e3, 1e200, math.inf, 0.0, -1.0])
def test_residual_far_from_the_root_is_domain_error(b):
    # exp(h) - 1 overflows above b ~ 38 at n = 25, and log b needs b > 0
    with pytest.raises(DomainError):
        equation_residual(b, 25, 1.0)


@pytest.mark.parametrize("sigma", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_residual_contract_at_astronomical_n(sigma):
    # the log residual sums terms of size log n, so its rounding grows with it
    for k in range(20, 308):
        n = 10**k
        bound = max(1e-13, 4.0 * sys.float_info.epsilon * math.log(n))
        assert abs(equation_residual(solve_bn(n, sigma).b_n, n, sigma)) <= bound, k


def test_against_independent_bracketing_solver():
    # direct root of the raw equation, independent of the Newton path
    for n in [3, 10, 100, 10_000, 10**8, 10**12]:
        for s in (0.5, 2.0):
            f = lambda b: math.sqrt(math.pi / 2.0) * (s / b) * math.exp(
                b * b / (2 * s * s)) - n
            ref = brentq(f, s * 1.0000001, 4.0 * s * math.sqrt(max(1.0, math.log(n))),
                         xtol=1e-13, rtol=8.9e-16)
            assert solve_bn(n, s).b_n == pytest.approx(ref, rel=1e-10)


def test_monotone_in_n_and_sigma():
    bs = [solve_bn(n, 1.0).b_n for n in GRID_N]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    bs = [solve_bn(1000, s).b_n for s in GRID_SIGMA]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))


def test_asymptotic_ratio_at_huge_n():
    b = solve_bn(10**12, 1.0).b_n
    assert 1.0 <= b * b / (2.0 * math.log(10**12)) <= 1.12


def test_no_root_below_three():
    for n in (1, 2):
        with pytest.raises(NoRootError):
            solve_bn(n, 1.0)
    with pytest.raises(DomainError):
        solve_bn(10, float("inf"))
    with pytest.raises(DomainError):
        solve_bn(10, -1.0)


# every public entry to the norming root, each with n as its one bad input
_ROOT_ENTRIES = {
    "solve_bn": lambda n: solve_bn(n, 1.0),
    "hall_base": lambda n: hall_base(n, 1.0),
    "SimulationConfig": lambda n: SimulationConfig(n=n, t=1.0, sigma=1.0, reps=1, seed=0),
    "rate_diagnostic": lambda n: rate_diagnostic("cdf", 1.0, 0.5, 1.0, [n, 10**4, 10**8]),
    "hall_rate_check": lambda n: hall_rate_check(0.5, 1.0, [n]),
    "compare_schemes": lambda n: compare_schemes(0.5, 1.0, [n]),
    "adjudicate_density_coeffs": lambda n: adjudicate_density_coeffs(3.0, [0.5], 1.0, [n, 10**4]),
}


@pytest.mark.parametrize("n", [2, 0, pytest.param(-10**400, id="-10**400")])
@pytest.mark.parametrize("enter", _ROOT_ENTRIES.values(), ids=_ROOT_ENTRIES.keys())
def test_n_below_three_is_one_no_root_error_everywhere(enter, n):
    with pytest.raises(NoRootError) as info:
        enter(n)
    message = str(info.value)
    assert message.startswith("no root with b > sigma exists for n = ")
    assert message.endswith("; need n >= 3") and len(message) < 100
    with pytest.raises(NoRootError, match=f"^{re.escape(message)}$"):  # the solver's own text
        solve_bn(n, 1.0)


@pytest.mark.parametrize("n, sigma", [
    (1000, 1e-300), (1000, 1e-160), (1000, 5e-324),  # sigma^2 zero or subnormal
    (1000, 1e160), (1000, 1e300),  # sigma^2 overflows
    (1000, 1e154), (10**300, 1e153),  # b_n^2 overflows
])
def test_extreme_sigma_is_domain_error(n, sigma):
    with pytest.raises(DomainError):
        solve_bn(n, sigma)


@pytest.mark.parametrize("sigma", [1e-160, 1e160])
def test_closed_form_constants_reject_unsquarable_sigma(sigma):
    with pytest.raises(DomainError):
        hall_base(1000, sigma)


@pytest.mark.parametrize("sigma", [None, "1", True, 1j, float("nan"),
                                   pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("fn", [
    solve_bn, hall_base,
    pytest.param(lambda n, sigma: MaxwellParams(sigma), id="MaxwellParams"),
])
def test_non_real_or_bool_sigma_is_domain_error(fn, sigma):
    with pytest.raises(DomainError, match="sigma"):
        fn(25, sigma)


@pytest.mark.parametrize("make", [
    lambda sigma: MaxwellParams(sigma),
    lambda sigma: solve_bn(25, sigma),
    lambda sigma: SimulationConfig(n=10, t=1.0, sigma=sigma, reps=1, seed=0),
], ids=["MaxwellParams", "solve_bn", "SimulationConfig"])
def test_huge_sigma_message_is_one_short_line(make):
    # the rejected value is abbreviated, not echoed with all 401 digits
    with pytest.raises(MaxextError, match="^sigma must be a positive finite real, got 1000") as exc:
        make(10**400)
    assert len(str(exc.value)) < 100


@pytest.mark.parametrize("n, sigma", [(1000, 1e-150), (1000, 1e150), (10**12, 1e153)])
def test_sigma_near_square_limits_still_solves(n, sigma):
    base = solve_bn(n, sigma)
    assert abs(equation_residual(base.b_n, n, sigma)) <= 1e-13
    assert base.b_n / sigma == pytest.approx(solve_bn(n, 1.0).b_n, rel=1e-12)
    assert math.isfinite(base.a_n) and base.a_n > 0


def test_numpy_scalar_n_accepted():
    ref = solve_bn(1000, 2.0)
    for n in (np.int64(1000), np.int32(1000), np.uint16(1000), np.float32(1000.0)):
        base = solve_bn(n, np.float32(2.0))
        assert base == ref and type(base.n) is int
    assert solve_bn(1000, np.int64(2)) == ref
    assert hall_base(np.int64(1000)) == hall_base(1000)
    for bad in (True, np.True_, 1000.5, np.float64(1000.5), "1000"):
        with pytest.raises(DomainError):
            solve_bn(bad)


# solve_bn memoizes its root per validated (n, sigma); validation comes first
# because True == 1.0 and Fraction(25) == 25 hash equal to cached keys

def test_bool_sigma_rejected_after_equal_float_is_cached():
    solve_bn(10, 1.0)
    with pytest.raises(DomainError, match="sigma"):
        solve_bn(10, True)


def test_rational_n_and_int_sigma_share_the_root_of_int_and_float():
    base = solve_bn(Fraction(25), 2)
    assert base == solve_bn(25, 2.0)
    assert type(base.n) is int and type(base.sigma) is float


@pytest.mark.parametrize("sigma", [1e160, 1e154])  # sigma^2 overflows; b_n^2 overflows
def test_out_of_range_sigma_raises_on_every_call(sigma):
    for _ in range(2):
        with pytest.raises(DomainError):
            solve_bn(1000, sigma)


@pytest.mark.parametrize("n, sigma, checked", [
    (25, 2.0, []),
    (np.int64(25), 2.0, ["n"]),
    (25, np.float64(2.0), ["sigma"]),
    (Fraction(25), Fraction(2), ["n", "sigma"]),
])
def test_plain_int_and_float_are_checked_in_line(monkeypatch, n, sigma, checked):
    # a memoized plain (int, float) pair calls neither rule; any other type still does
    ref, calls = solve_bn(25, 2.0), []

    def spy(rule):
        def checking(value, name, *args, **kwargs):
            calls.append(name)
            return rule(value, name, *args, **kwargs)
        return checking

    monkeypatch.setattr(norming, "_integer", spy(norming._integer))
    monkeypatch.setattr(norming, "_real", spy(norming._real))
    assert solve_bn(n, sigma) is ref
    assert calls == checked


def test_warm_root_is_the_uncached_root_bit_for_bit():
    rng = random.Random(17)
    pairs = [(int(10 ** rng.uniform(math.log10(3), 300)), 10 ** rng.uniform(-150, 150))
             for _ in range(300)]
    for n, sigma in pairs:
        solve_bn(n, sigma)
    for n, sigma in pairs:
        warm, cold = solve_bn(n, sigma), norming._solve_root.__wrapped__(n, sigma)
        assert warm is solve_bn(n, sigma)  # the same immutable record
        assert (warm.n, warm.sigma.hex(), warm.b_n.hex(), warm.a_n.hex()) == \
            (cold.n, cold.sigma.hex(), cold.b_n.hex(), cold.a_n.hex())


def test_hall_constants_values():
    hall = hall_base(100, 1.0)
    assert hall.a_n == pytest.approx(A_HAT_100_S1, rel=1e-14)
    # both constants are exactly linear in sigma
    hall2 = hall_base(100, 2.0)
    assert hall2.a_n == 2.0 * hall.a_n
    assert hall2.b_n == 2.0 * hall.b_n
    with pytest.raises(DomainError):
        hall_base(2, 1.0)


def test_hall_product_tends_to_sigma_squared():
    for s in (1.0, 2.0):
        hall = hall_base(10**10, s)
        assert 0.98 * s * s <= hall.a_n * hall.b_n <= 1.10 * s * s


def test_hall_matches_solved_root_asymptotically():
    for n in GRID_N:
        for s in GRID_SIGMA:
            b = solve_bn(n, s).b_n
            bh = hall_base(n, s).b_n
            assert abs(bh - b) / b <= 1.0 / math.log(n)


def test_hall_base_mirrors_constants():
    # Hall's closed forms, bit for bit: a_hat = sigma / sqrt(2 log n) and b_hat
    base = hall_base(50, 2.0)
    log_n = math.log(50)
    root = math.sqrt(2.0 * log_n)
    a_hat = 2.0 / root
    b_hat = 2.0 * root + 2.0 * (math.log(2.0 * log_n) + math.log(2.0 / math.pi)) / (2.0 * root)
    assert base.b_n == b_hat
    assert base.a_n == a_hat


def test_hall_base_normalises_n_and_sigma():
    base = hall_base(np.int64(25), np.float32(2.0))
    assert base == hall_base(25, 2.0)
    assert type(base.n) is int and type(base.sigma) is float


def test_powered_general_t1_collapse():
    base = solve_bn(40, 1.5)
    pn = powered_constants(base, 1.0, Scheme.GENERAL_POWER)
    assert pn.c_n == base.a_n
    assert pn.d_n == base.b_n


def test_powered_general_t3():
    base = solve_bn(40, 1.5)
    pn = powered_constants(base, 3.0, Scheme.GENERAL_POWER)
    assert pn.c_n == pytest.approx(3.0 * 1.5**2 * base.b_n, rel=1e-15)
    assert pn.d_n == pytest.approx(base.b_n**3, rel=1e-15)


def test_powered_square_optimal_formula():
    # frozen b for (n=25, sigma=2) feeds the closed-form constants directly
    base = solve_bn(25, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    b2 = B_25_S2**2
    assert pn.c_n == pytest.approx(8.0 * (1.0 + 4.0 / b2), rel=1e-12)
    assert pn.d_n == pytest.approx(b2 + 32.0 / b2, rel=1e-12)


def test_powered_square_alternative_formula():
    base = solve_bn(25, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_ALTERNATIVE)
    b2 = B_25_S2**2
    assert pn.c_n == pytest.approx(8.0 * (1.0 - 4.0 / b2), rel=1e-12)
    assert pn.d_n == pytest.approx(b2 - 32.0 / b2, rel=1e-12)
    assert pn.c_n > 0.0


def test_scheme_power_mismatch():
    base = solve_bn(25, 2.0)
    with pytest.raises(ConfigurationError):
        powered_constants(base, 2.0, Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError):
        powered_constants(base, 3.0, Scheme.SQUARE_OPTIMAL)
    with pytest.raises(ConfigurationError):
        powered_constants(base, 1.0, Scheme.SQUARE_ALTERNATIVE)
    with pytest.raises(DomainError):
        powered_constants(base, -1.0, Scheme.GENERAL_POWER)


def test_validate_scheme_returns_float_t_and_member():
    for scheme in Scheme:
        t = 1 if scheme is Scheme.GENERAL_POWER else 2
        for given in (scheme, scheme.value):
            got = validate_scheme(t, given)
            assert got == (float(t), scheme)
            assert type(got[0]) is float and got[1] is scheme


@pytest.mark.parametrize("t, scheme, message", [
    (2.0, Scheme.GENERAL_POWER, "general-power constants are undefined at t = 2"),
    (2, "general-power", "general-power constants are undefined at t = 2"),
    (1.0, Scheme.SQUARE_OPTIMAL, r"scheme square-optimal requires t = 2, got t = 1\.0$"),
    (3, "square-alternative", r"scheme square-alternative requires t = 2, got t = 3\.0$"),
])
def test_a_scheme_that_does_not_fit_t_is_configuration_error(t, scheme, message):
    with pytest.raises(ConfigurationError, match=message):
        validate_scheme(t, scheme)


@pytest.mark.parametrize("scheme", ["bogus", None, []])
def test_unknown_scheme_is_configuration_error(scheme):
    base = solve_bn(25, 1.0)
    calls = [
        lambda: validate_scheme(1.0, scheme),
        lambda: powered_constants(base, 1.0, scheme),
        lambda: cdf_approx(2, 1.0, 0.5, base, scheme),
        lambda: pdf_approx(2, 1.0, 0.5, base, scheme),
        lambda: SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=0, scheme=scheme),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match="unknown scheme") as info:
            call()
        assert isinstance(info.value, MaxextError)


@pytest.mark.parametrize("t", [None, "abc", 1j, [2.0], object()])
def test_non_numeric_power_is_domain_error(t):
    base = solve_bn(25, 1.0)
    calls = [
        lambda: validate_scheme(t, Scheme.GENERAL_POWER),
        lambda: powered_constants(base, t, Scheme.GENERAL_POWER),
        lambda: cdf_approx(2, t, 0.5, base, Scheme.GENERAL_POWER),
        lambda: pdf_approx(2, t, 0.5, base, Scheme.GENERAL_POWER),
        lambda: SimulationConfig(n=10, t=t, sigma=1.0, reps=1, seed=0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="power index t must be a real number") as info:
            call()
        assert isinstance(info.value, MaxextError)
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("b_n, t, scheme", [
    (0.0, 1.0, Scheme.GENERAL_POWER),  # was a bare ZeroDivisionError from 0.0 ** -1.0
    (0.0, 2.0, Scheme.SQUARE_OPTIMAL),  # was a bare ZeroDivisionError from sigma^2 / b_n^2
    (-1.5, 2.0, Scheme.SQUARE_OPTIMAL),  # returned c_n = 2.89, d_n = 3.14
])
def test_powered_constants_reject_a_base_outside_zero_to_inf(b_n, t, scheme):
    fake = NormingBase(n=10, sigma=1.0, b_n=b_n, a_n=1.0)
    with pytest.raises(DomainError, match=r"0 < b_n < inf"):
        powered_constants(fake, t, scheme)


@pytest.mark.parametrize("scheme", [Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE])
def test_square_constants_at_an_underflowing_b_n_squared(scheme):
    # b_n^2 = 0.0 in floats: the shift sigma^2 / b_n^2 is unbounded, not a division by zero
    fake = NormingBase(n=10, sigma=1.0, b_n=1e-200, a_n=1.0)
    with pytest.raises(DomainError, match="out of range"):
        powered_constants(fake, 2.0, scheme)


def test_alternative_degenerates_below_sigma():
    # the shift leaves c_n <= 0, which the constants' range check rejects
    fake = NormingBase(n=10, sigma=2.0, b_n=1.0, a_n=4.0)
    with pytest.raises(DomainError, match="out of range"):
        powered_constants(fake, 2.0, "square-alternative")


@pytest.mark.parametrize("n, sigma, t, scheme", [
    (10**30, 1.0, 300.0, Scheme.GENERAL_POWER),  # b ** (t - 2) overflows
    (10**300, 1.0, 196.25, Scheme.GENERAL_POWER),  # only d_n = b ** t overflows
    (1000, 1e100, 3.5, Scheme.GENERAL_POWER),  # b ** t overflows at large sigma
    (100, 1e-150, 300.0, Scheme.GENERAL_POWER),  # c_n underflows to zero
    (3, 0.2078, 700.0, Scheme.GENERAL_POWER),  # c_n = 1.344e-321 is subnormal
])
def test_powered_constants_out_of_range_is_domain_error(n, sigma, t, scheme):
    base = solve_bn(n, sigma)
    with pytest.raises(DomainError, match="powered constants out of range"):
        powered_constants(base, t, scheme)


def test_square_constants_overflow_is_domain_error():
    # b_n^2 beyond float range: scaling c_n and d_n back overflows
    fake = NormingBase(n=10, sigma=1e150, b_n=1.4e154, a_n=1e146)
    for scheme in (Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE):
        with pytest.raises(DomainError, match="powered constants out of range"):
            powered_constants(fake, 2.0, scheme)


@pytest.mark.parametrize("sigma", [1.5e-154, 1e-100, 1e-3, 1.7, 1e100, 1e152])
def test_square_constants_scale_as_sigma_squared(sigma):
    # c_n and d_n are sigma^2 times a function of b_n / sigma, while sigma^4
    # leaves the float range at both ends of the sweep
    for n in (25, 10**6, 10**12):
        for scheme in (Scheme.SQUARE_OPTIMAL, Scheme.SQUARE_ALTERNATIVE):
            pn = powered_constants(solve_bn(n, sigma), 2.0, scheme)
            unit = powered_constants(solve_bn(n, 1.0), 2.0, scheme)
            assert pn.c_n / sigma**2 == pytest.approx(unit.c_n, rel=1e-14)
            assert pn.d_n / sigma**2 == pytest.approx(unit.d_n, rel=1e-14)


def test_schemes_converge_together():
    gaps = []
    for n in (100, 10**4, 10**8, 10**12):
        base = solve_bn(n, 1.0)
        c_o = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL).c_n
        c_a = powered_constants(base, 2.0, Scheme.SQUARE_ALTERNATIVE).c_n
        gaps.append((c_o - c_a) / c_o)
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # gap is 2 sigma^2 / b_n^2 to leading order; only ~0.034 even at n = 1e12
    assert gaps[-1] == pytest.approx(2.0 / solve_bn(10**12, 1.0).b_n ** 2, rel=0.05)
