"""One rule for every number the library takes, at every public entry point.

Each entry point is fed the same awkward values in one numeric argument at a
time. It must return a finite result or raise a MaxextError, never another
exception: a real argument goes through errors._real and an integer one
through errors._integer.
"""
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxext import MaxextError, maxwell
from maxext.errors import ConfigurationError, DiagnosticsError, DomainError
from maxext.exact import (
    ErrorRow,
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
from maxext.expansions import cdf_approx, pdf_approx
from maxext.maxwell import MaxwellParams
from maxext.montecarlo import SimulationConfig
from maxext.norming import (
    PoweredNorming,
    Scheme,
    equation_residual,
    hall_base,
    powered_constants,
    solve_bn,
    validate_scheme,
)
from maxext.special import erfc, gumbel_cdf, gumbel_pdf

VALUES = {
    "None": None, "str": "3", "True": True, "complex": 1j, "nan": math.nan,
    "10**400": 10**400, "Fraction(10**400)": Fraction(10**400),
    "float32": np.float32(3.0), "int64": np.int64(3), "Fraction(7,2)": Fraction(7, 2),
}

_P = MaxwellParams(1.0)
_BASE = solve_bn(25, 1.0)
_PN1 = powered_constants(_BASE, 1.0, Scheme.GENERAL_POWER)


def error_table_grid(kind, t, x, sigma, n):
    return error_table(kind, t, x, sigma, [25, n], "asymptotic")


def error_table_golden(kind, t, x, sigma, n):
    # the golden-table terms are private kernels; their inputs enter here
    return error_table(kind, t, x, sigma, [25, n], "tabulated")


def adjudicate_x_grid(t, x, sigma):
    return adjudicate_density_coeffs(t, [0.5, x], sigma, [10**6, 10**8])


# (entry point, valid positional arguments, {numeric argument: its position})
ENTRY_POINTS = [
    *[(fn, (0.5,), {"x": 0}) for fn in (erfc, gumbel_cdf, gumbel_pdf)],
    *[(fn, (1.0, _P), {"x": 0}) for fn in (maxwell.pdf, maxwell.cdf, maxwell.survival)],
    (maxwell.tail_expansion, (5.0, _P, 4), {"x": 0, "terms": 2}),
    (maxwell.tail_remainder, (5.0, _P), {"x": 0}),
    (MaxwellParams, (1.0,), {"sigma": 0}),
    (solve_bn, (25, 1.0), {"n": 0, "sigma": 1}),
    (hall_base, (25, 1.0), {"n": 0, "sigma": 1}),
    (equation_residual, (3.0, 25, 1.0), {"b": 0, "n": 1, "sigma": 2}),
    (validate_scheme, (1.0, Scheme.GENERAL_POWER), {"t": 0}),
    (powered_constants, (_BASE, 1.0, Scheme.GENERAL_POWER), {"t": 1}),
    (default_scheme, (1.0,), {"t": 0}),
    *[(fn, (2, 1.0, 0.5, _BASE), {"t": 1, "x": 2}) for fn in (cdf_approx, pdf_approx)],
    *[(fn, (25, 1.0, 0.7, _PN1, _P), {"n": 0, "t": 1, "x": 2})
      for fn in (exact_powered_cdf, exact_powered_pdf)],
    (exact_unpowered_cdf, (25, 3.0, _P), {"n": 0, "y": 1}),
    (SimulationConfig, (10, 1.0, 1.0, 1, 0), {"n": 0, "t": 1, "sigma": 2, "reps": 3, "seed": 4}),
    (error_table_grid, ("cdf", 1.0, 0.7, 1.0, 50), {"t": 1, "x": 2, "sigma": 3, "n": 4}),
    (error_table_golden, ("pdf", 2.0, 0.7, 1.0, 50), {"t": 1, "x": 2, "sigma": 3, "n": 4}),
    (rate_diagnostic, ("pdf", 1.0, 0.7, 1.0, [10**4, 10**8]), {"t": 1, "x": 2, "sigma": 3}),
    *[(fn, (0.7, 1.0, [10**3, 10**6]), {"x": 0, "sigma": 1})
      for fn in (hall_rate_check, compare_schemes)],
    (adjudicate_x_grid, (1.0, 1.0, 1.0), {"t": 0, "x": 1, "sigma": 2}),
]
CASES = {f"{fn.__name__}({name})": (fn, args, i)
         for fn, args, numeric in ENTRY_POINTS for name, i in numeric.items()}


def _finite(result) -> bool:
    if isinstance(result, numbers.Integral):  # an exact int, also beyond float range
        return True
    if isinstance(result, numbers.Real):
        return math.isfinite(result)
    if isinstance(result, (list, tuple)):  # also every record, a NamedTuple
        return all(map(_finite, result))
    return isinstance(result, str)  # a Scheme member or a verdict


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_valid_arguments_give_a_finite_result(case):
    fn, args, _ = case
    assert _finite(fn(*args))


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_finite_result_or_maxext_error(case, value):
    fn, args, i = case
    try:
        result = fn(*args[:i], value, *args[i + 1:])
    except MaxextError as exc:
        assert "\n" not in str(exc)
        return
    assert _finite(result), result


def test_accepted_values_convert_exactly():
    assert solve_bn(Fraction(10**400)).n == 10**400
    assert SimulationConfig(10**400, 1.0, 1.0, Fraction(4, 2), np.int64(0)) == \
        SimulationConfig(10**400, 1.0, 1.0, 2, 0)
    assert type(hall_base(np.float32(100.0)).n) is int
    assert maxwell.tail_expansion(5.0, _P, terms=2.0) == maxwell.tail_expansion(5.0, _P, terms=2)


@pytest.mark.parametrize("call", [
    lambda: maxwell.tail_expansion(5.0, _P, terms=True),
    lambda: SimulationConfig(10, 1.0, 1.0, True, 0),
    lambda: cdf_approx(2, "2", 0.5, _BASE),
    lambda: gumbel_cdf(Decimal("0.5")),
    # the grid's span is checked in ints, so the exact law's n check is reached
    lambda: rate_diagnostic("cdf", 1.0, 0.7, 1.0, [10**4, 10**400]),
], ids=["bool-terms", "bool-reps", "str-t", "Decimal-x", "n-beyond-float-range"])
def test_rejected_values(call):
    with pytest.raises(MaxextError):
        call()


_LONG = "x" * 5000
LONG_VALUE_CALLS = {
    "rate_diagnostic-grid": (DiagnosticsError, lambda: rate_diagnostic(
        "cdf", 1.0, 0.5, 1.0, [10**400, 10**401])),
    "equation_residual-n": (DomainError, lambda: equation_residual(2.0, -10**400, 1.0)),
    "exact_powered_cdf-n": (DomainError, lambda: exact_powered_cdf(-10**400, 1.0, 0.7, _PN1, _P)),
    "solve_bn-overflow": (DomainError, lambda: solve_bn(10**400, 1e153)),
    "error_table-kind": (ConfigurationError, lambda: error_table(_LONG, 2.0, 0.5, 1.0, [25])),
    "error_table-convention": (ConfigurationError,
                               lambda: error_table("cdf", 2.0, 0.5, 1.0, [25], _LONG)),
    "validate_scheme": (ConfigurationError, lambda: validate_scheme(1.0, _LONG)),
    "cdf_approx-order": (ConfigurationError, lambda: cdf_approx(_LONG, 1.0, 0.5, _BASE)),
    "exact_powered_cdf-below_support": (ConfigurationError, lambda: exact_powered_cdf(
        25, 1.0, -1e300, _PN1, _P, below_support=_LONG)),
}


@pytest.mark.parametrize("error, call", LONG_VALUE_CALLS.values(), ids=LONG_VALUE_CALLS.keys())
def test_a_huge_value_is_shortened_in_the_message(error, call):
    # every message shows the caller's value through errors._echo
    with pytest.raises(MaxextError) as info:
        call()
    assert type(info.value) is error
    assert len(str(info.value)) <= 200


# PoweredNorming checks nothing when it is built, so the exact laws check
# the argument c_n*x + d_n that they form from it
@pytest.mark.parametrize("law", [exact_powered_cdf, exact_powered_pdf])
@pytest.mark.parametrize("c_n, d_n, x", [
    (math.nan, 1.0, 0.7), (1.0, math.nan, 0.7), (math.inf, 1.0, 0.0), (math.inf, -math.inf, 0.7),
], ids=["nan-c", "nan-d", "inf-c-at-0", "inf-minus-inf"])
def test_a_nan_powered_argument_is_a_domain_error(law, c_n, d_n, x):
    pn = PoweredNorming(1.0, Scheme.GENERAL_POWER, c_n, d_n)
    for below_support in ("error", "zero"):
        with pytest.raises(MaxextError, match=r"^powered argument c_n\*x \+ d_n is NaN "):
            law(25, 1.0, x, pn, _P, below_support)


@pytest.mark.parametrize("c_n, d_n, x", [(math.inf, 1.0, 0.7), (1.0, math.inf, 0.7)])
def test_an_infinite_powered_argument_is_far_above_the_mode(c_n, d_n, x):
    pn = PoweredNorming(1.0, Scheme.GENERAL_POWER, c_n, d_n)
    assert exact_powered_cdf(25, 1.0, x, pn, _P) == 1.0
    assert exact_powered_pdf(25, 1.0, x, pn, _P) == 0.0


@pytest.mark.parametrize("law", [exact_powered_cdf, exact_powered_pdf])
def test_a_minus_infinite_powered_argument_is_below_the_support(law):
    pn = PoweredNorming(1.0, Scheme.GENERAL_POWER, math.inf, 1.0)
    with pytest.raises(MaxextError, match="below the support edge"):
        law(25, 1.0, -0.7, pn, _P)
    assert law(25, 1.0, -0.7, pn, _P, below_support="zero") == 0.0


_X32 = np.float32(0.7)
_SQUARE = {"square-optimal": Scheme.SQUARE_OPTIMAL, "square-alternative": Scheme.SQUARE_ALTERNATIVE}
X_CALLS = {
    **{f"{fn.__name__}-general": lambda x, fn=fn: fn(3, 1.0, x, _BASE)
       for fn in (cdf_approx, pdf_approx)},
    **{f"{fn.__name__}-{name}": lambda x, fn=fn, s=s: fn(3, 2.0, x, _BASE, s)
       for fn in (cdf_approx, pdf_approx) for name, s in _SQUARE.items()},
    **{f"error_table-{kind}-tabulated": lambda x, kind=kind: error_table(kind, 2.0, x, 1.0, [25])
       for kind in ("cdf", "pdf")},
    "rate_diagnostic": lambda x: rate_diagnostic("cdf", 1.0, x, 1.0, [10**4, 10**8]),
    "hall_rate_check": lambda x: hall_rate_check(x, 1.0, [10**3, 10**6]),
}


@pytest.mark.parametrize("call", X_CALLS.values(), ids=X_CALLS.keys())
def test_float32_x_is_used_as_its_float(call):
    # a float32 x must not run the kernels in float32: the same bits and
    # types as the float of its value
    assert repr(call(_X32)) == repr(call(float(_X32)))


# the entry points that test a plain float in-line and call errors._real only
# for any other value: each x, and the t of both exact laws (whose constants
# carry that same t, so the law is evaluated wherever t passes)
_EXACT_LAWS = (exact_powered_cdf, exact_powered_pdf)
IN_LINE_CALLS = {
    "gumbel_cdf-x": gumbel_cdf,
    **{f"{fn.__name__}-x": lambda v, fn=fn: fn(3, 1.0, v, _BASE) for fn in (cdf_approx, pdf_approx)},
    **{f"{law.__name__}-x": lambda v, law=law: law(25, 1.0, v, _PN1, _P) for law in _EXACT_LAWS},
    **{f"{law.__name__}-t": lambda v, law=law: law(25, v, 0.7, _PN1._replace(t=v), _P)
       for law in _EXACT_LAWS},
}


def _outcome(call, value):
    """The bits of what the call returns, or the class and message of what it raises."""
    try:
        return call(value).hex()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call", IN_LINE_CALLS.values(), ids=IN_LINE_CALLS.keys())
@settings(max_examples=200, deadline=None)
@given(v=st.floats())
@example(v=0.0)
@example(v=-0.0)
@example(v=-1.0)
@example(v=math.inf)
@example(v=-math.inf)
@example(v=5e-324)
@example(v=-5e-324)
@example(v=math.nan)
def test_the_in_line_float_test_matches_errors_real(call, v):
    # np.float64 is a float subclass, so it takes errors._real's path
    assert _outcome(call, v) == _outcome(call, np.float64(v))


@pytest.mark.parametrize("name, label", [
    ("gumbel_cdf-x", "gumbel_cdf"), ("cdf_approx-x", "x"), ("pdf_approx-x", "x"),
    ("exact_powered_cdf-x", "x"), ("exact_powered_pdf-x", "x"),
    ("exact_powered_cdf-t", "power index t"), ("exact_powered_pdf-t", "power index t"),
])
def test_a_nan_float_keeps_its_message(name, label):
    with pytest.raises(DomainError) as info:
        IN_LINE_CALLS[name](math.nan)
    assert str(info.value) == f"{label}: NaN input"


@pytest.mark.parametrize("law", ["exact_powered_cdf", "exact_powered_pdf"])
@pytest.mark.parametrize("t", [0.0, -1.0, math.inf])
def test_a_non_positive_or_infinite_float_t_keeps_its_message(law, t):
    with pytest.raises(DomainError) as info:
        IN_LINE_CALLS[f"{law}-t"](t)
    assert str(info.value) == f"power index t must be a positive finite real, got {t!r}"


@pytest.mark.parametrize("record, field, bad, good, stored", [
    (MaxwellParams(1.0), "sigma", -1.0, 2, 2.0),
    (ErrorRow(25, 0.1, 0.01, 0.001), "err2", math.nan, 0.5, 0.5),
    (SimulationConfig(10, 1.0, 1.0, 1, 0), "seed", -1, Fraction(4, 2), 2),
])
def test_validating_records_check_replace_and_stay_immutable(record, field, bad, good, stored):
    assert isinstance(record, tuple) and field in record._fields
    with pytest.raises(MaxextError):
        record._replace(**{field: bad})
    new = record._replace(**{field: good})
    assert getattr(new, field) == stored and type(getattr(new, field)) is type(stored)
    with pytest.raises(AttributeError):
        setattr(record, field, good)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
