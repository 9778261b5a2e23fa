"""Exact finite-n laws of powered maxima, error tables, and rate diagnostics.

Every power F^m of the Maxwell cdf (m = n for the distribution laws, n - 1
in the density) goes through one helper, `_cdf_power`, as
exp(m * log1p(-survival)), so the result keeps full precision when the
Maxwell cdf is within 1e-8 of one, which is the normal regime for every
tabulated n.

The two kinds, "cdf" and "pdf", differ only in which exact law,
approximations and first-order coefficients they use. `_KINDS` maps each kind
to those, and `error_table` and `rate_diagnostic` take them from it; any
other kind is a ConfigurationError. The grid diagnostics convert their n
grid through one check, `_check_grid`, so a non-integral n is a DomainError.
Both line fits, the rate slope and the adjudication limits, go through
`_fit`, which solves least squares exactly in Python ints; no function here
imports numpy. Each input is checked once, where it enters the package: the
exact laws and the diagnostics take t and x through errors._real (a numpy
float32 x is used as its float) and n through errors._integer, then call the
unchecked kernels maxwell._survival/_survival_pdf and special._gumbel_cdf/_gumbel_pdf.
PoweredNorming checks nothing, so a NaN c_n*x + d_n is a DomainError here.
Records are NamedTuples; ErrorRow checks its errors whenever one is built.
default_scheme, the `auto` rule, lives in norming next to validate_scheme;
it is imported here, so exact.default_scheme keeps working.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Literal, NamedTuple, Sequence

from .errors import ConfigurationError, DiagnosticsError, DomainError, _integer, _real
from .expansions import (
    _cdf_coeff1_general,
    _cdf_coeff1_square,
    _pdf_coeff1_general,
    _pdf_coeff1_square,
    cdf_approx,
    cdf_approx_tabulated,
    hall_error_leading,
    pdf_approx,
    pdf_approx_tabulated,
)
from .maxwell import MaxwellParams, _survival, _survival_pdf
from .norming import (
    _ALTERNATIVE,
    _OPTIMAL,
    PoweredNorming,
    default_scheme,
    hall_base,
    powered_constants,
    solve_bn,
    validate_scheme,
)
from .special import _gumbel_cdf, _gumbel_pdf

__all__ = [
    "ErrorRow",
    "RateDiagnostic",
    "HallRateCheck",
    "SchemeComparison",
    "DensityCoeffAdjudication",
    "exact_powered_cdf",
    "exact_powered_pdf",
    "exact_unpowered_cdf",
    "error_table",
    "rate_diagnostic",
    "hall_rate_check",
    "compare_schemes",
    "adjudicate_density_coeffs",
    "ADJUDICATION_THRESHOLD",
]

Kind = Literal["cdf", "pdf"]
_FLOAT_MAX = sys.float_info.max


class ErrorRow(NamedTuple("ErrorRow", [("n", int), ("err1", float), ("err2", float),
                                        ("err3", float)])):
    """Absolute errors of the order-1/2/3 approximations at one sample size."""

    __slots__ = ()

    def __new__(cls, n: int, err1: float, err2: float, err3: float):
        # each error in [0, float max], in one chained comparison; the loop words the error
        if not 0.0 <= err1 <= _FLOAT_MAX >= err2 >= 0.0 <= err3 <= _FLOAT_MAX:
            for name, v in (("err1", err1), ("err2", err2), ("err3", err3)):
                if not (math.isfinite(v) and v >= 0.0):
                    raise DomainError(f"{name} must be finite and >= 0, got {v}")
        return super().__new__(cls, n, err1, err2, err3)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


def _powered_argument(x: float, pn: PoweredNorming, below_support: str):
    x = _real(x, "x")
    y = pn.c_n * x + pn.d_n
    if not y > 0.0:
        if y != y:  # a NaN c_n or d_n, inf * 0 or inf - inf
            raise DomainError(f"powered argument c_n*x + d_n is NaN "
                              f"(c_n = {pn.c_n}, d_n = {pn.d_n}, x = {x})")
        if below_support == "zero":
            return None
        raise DomainError(
            f"powered argument c_n*x + d_n = {y} <= 0 (x = {x} below the support edge)"
        )
    return y


def _law_n(n) -> int:
    """The sample size of an exact law as an int in [1, float max]; DomainError otherwise."""
    n = _integer(n, "n")
    if n < 1:
        raise DomainError(f"sample size n must be >= 1, got {n}")
    if n > _FLOAT_MAX:
        raise DomainError("sample size n is beyond float range; n * log F cannot be formed")
    return n


def _cdf_power(sf: float, m: int) -> float:
    """F^m = (1 - sf)^m through log1p; 0.0 where the survival sf rounds to 1."""
    if sf >= 1.0:
        return 0.0
    return math.exp(m * math.log1p(-sf))


def exact_powered_cdf(n: int, t: float, x: float, pn: PoweredNorming,
                      p: MaxwellParams, below_support: str = "error") -> float:
    """P(|M_n|^t <= c_n x + d_n) = F((c_n x + d_n)^{1/t})^n, evaluated stably.

    Below the support edge (c_n x + d_n <= 0) the probability is raised as a
    domain error by default; pass below_support="zero" to map it to 0. Far
    above the mode, where (c_n x + d_n)^{1/t} overflows, it is 1. n must be an
    integer >= 1 within float range and t a positive finite real (DomainError otherwise).
    """
    n, t = _law_n(n), _real(t, "power index t", positive=True)
    y = _powered_argument(x, pn, below_support)
    if y is None:
        return 0.0
    try:
        delta = y ** (1.0 / t)
    except OverflowError:  # far above the mode
        return 1.0
    return _cdf_power(_survival(delta, p.sigma), n)


def exact_powered_pdf(n: int, t: float, x: float, pn: PoweredNorming,
                      p: MaxwellParams, below_support: str = "error") -> float:
    """Density of (|M_n|^t - d_n)/c_n at x: (n c_n / t) y^{1/t-1} F^{n-1}(y^{1/t}) f(y^{1/t}).

    below_support and n as for exact_powered_cdf; 0 wherever F^{n-1} or f is 0.
    """
    n, t = _law_n(n), _real(t, "power index t", positive=True)
    y = _powered_argument(x, pn, below_support)
    if y is None:
        return 0.0
    try:
        delta = y ** (1.0 / t)
    except OverflowError:  # far above the mode
        return 0.0
    sf, f_delta = _survival_pdf(delta, p.sigma)
    f_pow = _cdf_power(sf, n - 1)
    if f_pow == 0.0:  # also skips y^{1/t-1}, which can overflow where sf rounds to 1
        return 0.0
    if f_delta == 0.0:  # also skips n * (...) * 0, which is nan where n * (...) overflows
        return 0.0
    # d delta/dx = c_n y^{1/t-1} / t is of order sigma, while n c_n (order
    # n sigma^t) can overflow; so the factor n comes after it
    return n * (pn.c_n / t * y ** (1.0 / t - 1.0)) * f_pow * f_delta


class _KindLaws(NamedTuple):
    exact: Callable[..., float]           # exact law of the normalized maximum
    approx: Callable[..., float]          # order-k approximation, any scheme
    tabulated: Callable[..., float]       # order-k approximation, golden tables
    coeff1_square: Callable[..., float]   # first coefficient at t = 2, sigma = 1, of x
    coeff1_general: Callable[..., float]  # first coefficient at sigma = 1, of (t, x)
    weight: Callable[[float], float]      # limit of err1 * b_n^k / (sigma^k |coefficient|)


_KINDS = {
    "cdf": _KindLaws(exact_powered_cdf, cdf_approx, cdf_approx_tabulated, _cdf_coeff1_square,
                     _cdf_coeff1_general, lambda x: math.exp(-x) * _gumbel_cdf(x)),
    "pdf": _KindLaws(exact_powered_pdf, pdf_approx, pdf_approx_tabulated,
                     lambda x: _pdf_coeff1_square(x, math.exp(-x)),
                     lambda t, x: _pdf_coeff1_general(t, x, math.exp(-x)), _gumbel_pdf),
}


def _kind_laws(kind) -> _KindLaws:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}"
        ) from None


def error_table(kind: Kind, t: float, x: float, sigma: float,
                n_grid: Sequence[int],
                convention: str = "tabulated") -> list[ErrorRow]:
    """One ErrorRow per n: absolute errors of the order-1/2/3 approximations.

    convention="tabulated" (t = 2 only) regenerates the golden reference
    tables: closed-form norming constants and the tabulated coefficient
    signs. convention="asymptotic" uses the exact norming root and the
    derivative-consistent expansion; its errors display the theoretical
    convergence rates instead. Order 1, the Gumbel limit, does not depend
    on n: it is evaluated once per table.
    """
    if convention not in ("tabulated", "asymptotic"):
        raise ConfigurationError(f"unknown convention {convention!r}")
    law = _kind_laws(kind)
    t, scheme = validate_scheme(t, default_scheme(t))
    p = MaxwellParams(sigma)
    tabulated = convention == "tabulated"
    if tabulated and scheme is not _OPTIMAL:
        raise ConfigurationError(
            "the tabulated convention exists only for t = 2; use convention='asymptotic'"
        )
    make_base = hall_base if tabulated else solve_bn
    rows, lam = [], None
    for n in n_grid:
        base = make_base(n, sigma)
        exact = law.exact(n, t, x, powered_constants(base, t, scheme), p)
        if lam is None:  # order 1, the Gumbel limit, is the same at every n
            lam = law.tabulated(1, x, base) if tabulated else law.approx(1, t, x, base, scheme)
        if tabulated:
            a2, a3 = law.tabulated(2, x, base), law.tabulated(3, x, base)
        else:
            a2, a3 = law.approx(2, t, x, base, scheme), law.approx(3, t, x, base, scheme)
        rows.append(ErrorRow(base.n, abs(exact - lam), abs(exact - a2), abs(exact - a3)))
    return rows


class RateDiagnostic(NamedTuple):
    """Fitted decay of the first-order error against the norming constant."""

    ns: tuple[int, ...]
    b_values: tuple[float, ...]
    errors: tuple[float, ...]
    scaled: tuple[float, ...]
    slope: float
    scale_power: int
    scaled_limit_prediction: float


def _check_grid(n_grid: Sequence[int], min_len: int = 2, decades: int = 0) -> list[int]:
    """The grid as ints: `min_len` (>= 1) or more distinct integers >= 3 spanning `decades`."""
    ns = [_integer(n, "n") for n in n_grid]
    if len(set(ns)) < min_len or min(ns) < 3:
        raise DiagnosticsError(f"need {min_len} or more distinct sample sizes, all >= 3")
    if max(ns) < min(ns) * 10**decades:  # in ints: a float ratio overflows past 1e308
        raise DiagnosticsError(
            f"n grid must span at least {decades} decades, got {min(ns)}..{max(ns)}"
        )
    return ns


def _dyadic(vs: Sequence[float]) -> tuple[list[int], int]:
    """Integers m_i and one shift a with vs[i] == m_i / 2**a exactly."""
    ratios = [v.as_integer_ratio() for v in vs]  # every denominator is a power of 2
    a = max(d.bit_length() for _, d in ratios) - 1
    return [m << (a + 1 - d.bit_length()) for m, d in ratios], a


def _nearest(num: int, den: int) -> float:
    """num / den (den > 0) rounded to the nearest float, +-inf beyond float range."""
    try:
        return num / den  # int / int rounds correctly
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares line through the points (xs[i], ys[i]): (slope, intercept).

    Each result is the exact least-squares value rounded once to the nearest
    float (+-inf beyond float range): with every x an integer over 2**a and
    every y one over 2**c, the normal equations hold in Python ints.
    DiagnosticsError unless the points are finite and have two or more
    distinct x.
    """
    if not all(map(math.isfinite, [*xs, *ys])):
        raise DiagnosticsError("cannot fit a line through non-finite points")
    if len(set(xs)) < 2:
        raise DiagnosticsError("cannot fit a line through fewer than two distinct x")
    (X, a), (Y, c) = _dyadic(xs), _dyadic(ys)
    k, sx, sy = len(X), sum(X), sum(Y)
    sxx = sum(v * v for v in X)
    sxy = sum(u * v for u, v in zip(X, Y))
    den = (k * sxx - sx * sx) << c  # > 0 for two or more distinct x
    return _nearest((k * sxy - sx * sy) << a, den), _nearest(sy * sxx - sx * sxy, den)


def _scaled(value: float, base: float, power: int, what: str, where: str,
            weight: float = 1.0) -> float:
    """base ** power * value * weight, or DomainError unless that is in (0, inf)."""
    try:
        value = base ** power * value * weight
    except OverflowError:  # float ** int raises instead of returning inf
        value = math.inf
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} = {value!r} leaves the float range {where}")
    return value


def rate_diagnostic(kind: Kind, t: float, x: float, sigma: float,
                    n_grid: Sequence[int]) -> RateDiagnostic:
    """Log-log slope of the first-order error vs b_n, plus the scaled sequence.

    The error decays like b_n^-2 for general power index and b_n^-4 at t = 2
    under the optimal scheme; the scaled sequence err1 * b_n^k approaches
    |first coefficient| * Lambda(x) (cdf) or * Lambda'(x) (pdf). The slope is
    that of the exact least-squares line through (log b_n, log err1),
    correctly rounded; an error of 0, which has no log, is a DiagnosticsError.
    A scaled error, or a prediction that is nonzero at sigma = 1, that
    overflows or underflows to 0 (sigma far from 1) is a DomainError.
    """
    law = _kind_laws(kind)
    ns = _check_grid(n_grid, decades=3)
    t, scheme = validate_scheme(t, default_scheme(t))
    x, p = _real(x, "x"), MaxwellParams(sigma)
    power = 4 if scheme is _OPTIMAL else 2
    bs, errs, scaled = [], [], []
    for n in ns:
        base = solve_bn(n, sigma)
        pn = powered_constants(base, t, scheme)
        # the order-1 approximation is the Gumbel limit
        err = abs(law.exact(n, t, x, pn, p) - law.approx(1, t, x, base, scheme))
        if err == 0.0:
            raise DiagnosticsError(f"first-order error is 0 at n = {n}, x = {x}; "
                                   "the log-log slope is undefined")
        bs.append(base.b_n)
        errs.append(err)
        scaled.append(_scaled(err, base.b_n, power, f"err1 * b_n^{power}",
                              f"at n = {n}, sigma = {sigma!r}"))
    slope = _fit([math.log(b) for b in bs], [math.log(e) for e in errs])[0]
    # the first coefficient, stated at sigma = 1, carries sigma^power
    coeff1 = abs(law.coeff1_square(x) if scheme is _OPTIMAL
                 else law.coeff1_general(t, x))
    weight, prediction = law.weight(x), 0.0
    if coeff1 * weight != 0.0:
        prediction = _scaled(coeff1, p.sigma, power, "scaled_limit_prediction",
                             f"at sigma = {sigma!r}", weight)
    return RateDiagnostic(ns=tuple(ns), b_values=tuple(bs), errors=tuple(errs),
                          scaled=tuple(scaled), slope=slope, scale_power=power,
                          scaled_limit_prediction=prediction)


class HallRateCheck(NamedTuple):
    """Non-powered maximum under closed-form constants vs its leading error term."""

    ns: tuple[int, ...]
    gaps: tuple[float, ...]              # signed F^n(a_hat x + b_hat) - Lambda(x)
    leading: tuple[float, ...]           # predicted leading error magnitude
    ratios: tuple[float, ...]            # gaps / leading
    powered_err1: tuple[float, ...]      # first-order error of the squared maximum


def hall_rate_check(x: float, sigma: float, n_grid: Sequence[int]) -> HallRateCheck:
    """Compare the non-powered error against its leading term and against t = 2.

    The squared maximum under the optimal scheme converges like 1/(log n)^2,
    so its first-order error must undercut the non-powered one, whose decay
    is only log(2 log n)^2 / (16 log n).
    """
    ns = _check_grid(n_grid, min_len=1)
    x, p = _real(x, "x"), MaxwellParams(sigma)
    lam = _gumbel_cdf(x)
    gaps, leads, ratios, powered = [], [], [], []
    for n in ns:
        hall = hall_base(n, sigma)
        fn = exact_unpowered_cdf(n, hall.a_n * x + hall.b_n, p)
        gap = fn - lam
        lead = hall_error_leading(n, x)
        if lead == 0.0:
            raise DomainError(f"leading error term underflows to 0 at x = {x}; "
                              "the ratio gap / leading is undefined")
        base = solve_bn(n, sigma)
        pn = powered_constants(base, 2.0, _OPTIMAL)
        e1 = abs(exact_powered_cdf(n, 2.0, x, pn, p) - lam)
        gaps.append(gap)
        leads.append(lead)
        ratios.append(gap / lead)
        powered.append(e1)
    return HallRateCheck(ns=tuple(ns), gaps=tuple(gaps), leading=tuple(leads),
                         ratios=tuple(ratios), powered_err1=tuple(powered))


def exact_unpowered_cdf(n: int, y: float, p: MaxwellParams) -> float:
    """P(M_n <= y) = F(y)^n via the stable log1p route; n as for exact_powered_cdf."""
    return _cdf_power(_survival(_real(y, "y"), p.sigma), _law_n(n))


class SchemeComparison(NamedTuple):
    """Order-2 errors under the optimal vs alternative square schemes."""

    ns: tuple[int, ...]
    optimal: tuple[float, ...]
    alternative: tuple[float, ...]
    crossover_n: int | None   # smallest grid n from which optimal <= alternative onward


def compare_schemes(x: float, sigma: float, n_grid: Sequence[int]) -> SchemeComparison:
    """Second-order distribution errors for both t = 2 norming choices.

    The alternative constants leave an order b_n^-2 gap, so their error
    overtakes the optimal scheme's (order b_n^-6 residual after the order-2
    correction) with a ratio growing like b_n^2.
    """
    ns = _check_grid(n_grid, min_len=1)
    p = MaxwellParams(sigma)
    opt, alt = [], []
    for n in ns:
        base = solve_bn(n, sigma)
        for scheme, errs in ((_OPTIMAL, opt), (_ALTERNATIVE, alt)):
            pn = powered_constants(base, 2.0, scheme)
            errs.append(abs(exact_powered_cdf(n, 2.0, x, pn, p)
                            - cdf_approx(2, 2.0, x, base, scheme)))
    crossover = None
    for i in range(len(ns)):
        if all(opt[j] <= alt[j] for j in range(i, len(ns))):
            crossover = ns[i]
            break
    return SchemeComparison(ns=tuple(ns), optimal=tuple(opt), alternative=tuple(alt),
                            crossover_n=crossover)


class DensityCoeffAdjudication(NamedTuple):
    """Outcome of the first-density-coefficient adjudication for general t.

    R(n, x) = [exact density / Lambda'(x) - 1] * b_n^2 tends to the true
    coefficient; its extrapolated limit is compared against both variants.
    """

    t: float
    sigma: float
    x_grid: tuple[float, ...]
    ns: tuple[int, ...]
    sup_dev_consistent: tuple[float, ...]   # per n, no extrapolation
    sup_dev_classic: tuple[float, ...]
    extrapolated_dev_consistent: float      # sup over x of |limit - variant|
    extrapolated_dev_classic: float
    rel_dev_consistent: float               # relative to sup |variant|
    rel_dev_classic: float
    winner: str

    def summary(self) -> str:
        lines = [
            f"density-coefficient adjudication at t = {self.t:g}, sigma = {self.sigma:g}",
            f"x grid: [{self.x_grid[0]:g}, {self.x_grid[-1]:g}] "
            f"({len(self.x_grid)} points); n grid: {', '.join(format(n, 'g') for n in self.ns)}",
            "sup deviation of scaled residual R(n, .) from each variant:",
        ]
        for i, n in enumerate(self.ns):
            lines.append(
                f"  n = {n:<16g} consistent: {self.sup_dev_consistent[i]:.6g}"
                f"   classic: {self.sup_dev_classic[i]:.6g}"
            )
        lines.append(
            f"extrapolated-limit deviation: consistent {self.extrapolated_dev_consistent:.6g} "
            f"(rel {self.rel_dev_consistent:.3%}), classic {self.extrapolated_dev_classic:.6g} "
            f"(rel {self.rel_dev_classic:.3%})"
        )
        lines.append(f"winner: {self.winner}")
        return "\n".join(lines)


# relative sup-norm deviation below which a density-coefficient variant wins
ADJUDICATION_THRESHOLD = 0.05


def _pdf_coeff1_classic(t, x, emx):  # (t-2) x^2 where _pdf_coeff1_general has (t-2) x^2 / 2
    return -emx * _cdf_coeff1_general(t, x) + x * ((t - 2.0) * x + 3.0 - t)


def adjudicate_density_coeffs(t: float, x_grid: Sequence[float], sigma: float,
                              n_grid: Sequence[int]) -> DensityCoeffAdjudication:
    """Decide numerically which first-density-coefficient variant is correct.

    For each x the scaled residual R(n, x) is extrapolated linearly in
    b_n^-2 to its large-n limit; the winner is the variant whose sup-norm
    deviation from that limit falls below ADJUDICATION_THRESHOLD relative to
    its own sup-norm (and both per-n deviation sequences are reported so the
    "tends to zero" trend is visible). Each limit is the intercept of the
    exact least-squares line in b_n^-2, correctly rounded. The n grid needs
    two or more distinct sample sizes, and Lambda'(x) must not underflow to 0
    at any grid x.
    """
    t, scheme = validate_scheme(t, default_scheme(t))
    if scheme is _OPTIMAL:
        raise ConfigurationError(
            "no adjudication exists at t = 2; the square-branch coefficient is unique"
        )
    ns = _check_grid(n_grid)
    xs = [_real(v, "x") for v in x_grid]
    if not xs:
        raise DiagnosticsError("empty x grid")
    dens = [_gumbel_pdf(x) for x in xs]
    if 0.0 in dens:
        raise DomainError(f"Lambda'(x) underflows to 0 at x = {xs[dens.index(0.0)]}; "
                          "the scaled residual is undefined")
    p = MaxwellParams(sigma)
    us, R = [], []
    for n in ns:
        base = solve_bn(n, sigma)
        pn = powered_constants(base, t, scheme)
        b2 = base.b_n * base.b_n
        us.append(1.0 / b2)
        R.append([(exact_powered_pdf(n, t, x, pn, p) / d - 1.0) * b2 for x, d in zip(xs, dens)])
    s2 = p.sigma * p.sigma  # both variants carry sigma^2
    emxs = [math.exp(-x) for x in xs]
    cons = [s2 * _pdf_coeff1_general(t, x, e) for x, e in zip(xs, emxs)]
    clas = [s2 * _pdf_coeff1_classic(t, x, e) for x, e in zip(xs, emxs)]
    sup_c = tuple(max(abs(R[i][j] - cons[j]) for j in range(len(xs))) for i in range(len(ns)))
    sup_p = tuple(max(abs(R[i][j] - clas[j]) for j in range(len(xs))) for i in range(len(ns)))
    # pointwise linear extrapolation in u = b_n^-2 to u -> 0
    limits = [_fit(us, [row[j] for row in R])[1] for j in range(len(xs))]
    dev_c = max(abs(l - v) for l, v in zip(limits, cons))
    dev_p = max(abs(l - v) for l, v in zip(limits, clas))
    rel_c = dev_c / max(abs(v) for v in cons)
    rel_p = dev_p / max(abs(v) for v in clas)
    if rel_c < ADJUDICATION_THRESHOLD <= rel_p:
        winner = "consistent"
    elif rel_p < ADJUDICATION_THRESHOLD <= rel_c:
        winner = "classic"
    else:
        winner = "inconclusive"
    return DensityCoeffAdjudication(
        t=t, sigma=p.sigma, x_grid=tuple(xs), ns=tuple(ns),
        sup_dev_consistent=sup_c, sup_dev_classic=sup_p,
        extrapolated_dev_consistent=dev_c, extrapolated_dev_classic=dev_p,
        rel_dev_consistent=rel_c, rel_dev_classic=rel_p, winner=winner,
    )
