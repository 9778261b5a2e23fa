"""Exact finite-n laws of powered maxima, error tables, and rate diagnostics.

Every power F^m of the Maxwell cdf (m = n for the distribution laws, n - 1
in the density) goes through one helper, `_cdf_power`, as
exp(m * log1p(-survival)), so the result keeps full precision when the
Maxwell cdf is within 1e-8 of one, which is the normal regime for every
tabulated n.

The two kinds, "cdf" and "pdf", differ only in which exact law,
approximations and first-order coefficients they use. `_KINDS` maps each kind
to those; any other kind is a ConfigurationError. The grid diagnostics
convert their n grid through one check, `_check_grid`, so a non-integral n is
a DomainError and a too poor grid a DiagnosticsError (an n < 3 is its
solver's NoRootError); all but the adjudication walk it through one helper,
`_error_walk`, which yields each base's errors |exact - approx_k|. The
golden-table convention and hall_rate_check take their terms from private
kernels of a checked x (expansions._*_approx_tabulated, _hall_error_leading).
Both line fits, the rate slope and the adjudication limits, go through
`_fit`, which solves least squares exactly in Python ints; no function here
imports numpy. Each input is checked once, where it enters the package: the
exact laws and the diagnostics take t and x through errors._real (a numpy
float32 x is used as its float; the exact laws pass a plain float in-line)
and n through errors._integer (`_law_n` passes an int in range at once),
then call the unchecked kernels maxwell._survival/_survival_pdf and
special._gumbel_cdf/_gumbel_pdf.
PoweredNorming checks nothing, so a NaN c_n*x + d_n is a DomainError here.
Both exact laws take the root (c_n x + d_n)^{1/t} from `_powered_argument`,
which holds the one far-above-the-mode rule: where the root overflows it is
inf, and below the support edge under below_support="zero" it is 0. The
kernels give each law its limit there (F = 1, f = 0 at inf; F = 0, f = 0 at
0), so neither law has a branch of its own.
Records are NamedTuples; ErrorRow checks its errors whenever one is built.
default_scheme, the `auto` rule, lives in norming next to validate_scheme;
it is imported here, so exact.default_scheme keeps working.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Literal, NamedTuple, Sequence

from .errors import (ConfigurationError, DiagnosticsError, DomainError, _domain_error, _echo,
                     _integer, _real)
from .expansions import (
    _cdf_approx_tabulated,
    _cdf_coeff1_general,
    _cdf_coeff1_square,
    _hall_error_leading,
    _pdf_approx_tabulated,
    _pdf_coeff1_general,
    _pdf_coeff1_square,
    cdf_approx,
    pdf_approx,
)
from .maxwell import MaxwellParams, _survival, _survival_pdf, _z_density
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


def _powered_argument(x: float, t: float, pn: PoweredNorming,
                      below_support: str) -> tuple[float, float]:
    """(y, y^{1/t}) for y = c_n x + d_n; the root is inf where it overflows, 0 below support.

    ConfigurationError where t is not pn.t, the power the constants were built for.
    """
    if t != pn.t:
        raise ConfigurationError(f"power index t = {t} differs from the constants' t = {pn.t}")
    if type(x) is not float or x != x:
        x = _real(x, "x")
    y = pn.c_n * x + pn.d_n
    if not y > 0.0:
        if y != y:  # a NaN c_n or d_n, inf * 0 or inf - inf
            raise DomainError(f"powered argument c_n*x + d_n is NaN "
                              f"(c_n = {pn.c_n}, d_n = {pn.d_n}, x = {x})")
        if below_support == "zero":
            return y, 0.0
        if below_support != "error":  # read only here, so checked only here
            raise ConfigurationError(
                f"below_support must be 'error' or 'zero', got {_echo(below_support)}")
        raise DomainError(
            f"powered argument c_n*x + d_n = {y} <= 0 (x = {x} below the support edge)"
        )
    try:
        return y, y ** (1.0 / t)
    except OverflowError:  # far above the mode
        return y, math.inf


def _law_n(n) -> int:
    """The sample size of an exact law as an int in [1, float max]; DomainError otherwise."""
    if type(n) is int and 1 <= n <= _FLOAT_MAX:
        return n
    n = _integer(n, "n")
    if n < 1:
        raise _domain_error("sample size n", ">= 1", n)
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
    integer >= 1 within float range and t a positive finite real (DomainError
    otherwise). A t other than pn.t, or a below_support other than "error" or
    "zero" (read only below the support edge), is a ConfigurationError.
    """
    n = _law_n(n)
    if type(t) is not float or not 0.0 < t < math.inf:
        t = _real(t, "power index t", positive=True)
    delta = _powered_argument(x, t, pn, below_support)[1]
    return _cdf_power(_survival(delta, p.sigma), n)


def exact_powered_pdf(n: int, t: float, x: float, pn: PoweredNorming,
                      p: MaxwellParams, below_support: str = "error") -> float:
    """Density of (|M_n|^t - d_n)/c_n at x: (n c_n / t) y^{1/t-1} F^{n-1}(y^{1/t}) f(y^{1/t}).

    n, t and below_support as for exact_powered_cdf; 0 wherever F^{n-1} or
    e^{-z^2/2} (z = y^{1/t}/sigma) is 0. Where f underflows or n c_n overflows
    at a sigma far from 1, the product is formed in sigma units instead.
    DomainError where y^{1/t-1} overflows (y near 0 at a large t).
    """
    n = _law_n(n)
    if type(t) is not float or not 0.0 < t < math.inf:
        t = _real(t, "power index t", positive=True)
    y, delta = _powered_argument(x, t, pn, below_support)
    s = p.sigma
    sf, f_delta = _survival_pdf(delta, s)
    f_pow = _cdf_power(sf, n - 1)
    if f_pow == 0.0:  # also skips y^{1/t-1}, which can overflow where sf rounds to 1
        return 0.0
    if f_delta == 0.0 and not _z_density(delta / s):  # e^{-z^2/2} is 0, z = delta / sigma
        return 0.0
    # d delta/dx = c_n y^{1/t-1} / t is of order sigma, while n c_n (order
    # n sigma^t) can overflow; so the factor n comes after it
    try:
        slope = pn.c_n / t * y ** (1.0 / t - 1.0)
    except OverflowError:  # float ** float raises instead of returning inf
        raise DomainError(f"y^(1/t - 1) overflows at y = c_n*x + d_n = {y!r}, t = {t}") from None
    density = n * slope * f_pow * f_delta
    if 0.0 < density <= _FLOAT_MAX:
        return density
    # at a sigma far from 1, f(delta) (of order 1/sigma) underflows or n * slope
    # (of order n sigma) overflows: the same product in sigma units, where
    # sigma f(delta) = z _z_density(z) and slope / sigma = dz/dx
    z = delta / s
    return n * (slope / s) * f_pow * (z * _z_density(z))


class _KindLaws(NamedTuple):
    exact: Callable[..., float]           # exact law of the normalized maximum
    approx: Callable[..., float]          # order-k approximation, any scheme
    tabulated: Callable[..., float]       # order-k approximation, golden tables
    coeff1_square: Callable[..., float]   # first coefficient at t = 2, sigma = 1, of x
    coeff1_general: Callable[..., float]  # first coefficient at sigma = 1, of (t, x)
    weight: Callable[[float], float]      # limit of err1 * b_n^k / (sigma^k |coefficient|)


_KINDS = {
    "cdf": _KindLaws(exact_powered_cdf, cdf_approx, _cdf_approx_tabulated, _cdf_coeff1_square,
                     _cdf_coeff1_general, lambda x: math.exp(-x) * _gumbel_cdf(x)),
    "pdf": _KindLaws(exact_powered_pdf, pdf_approx, _pdf_approx_tabulated,
                     lambda x: _pdf_coeff1_square(x, math.exp(-x)),
                     lambda t, x: _pdf_coeff1_general(t, x, math.exp(-x)),
                     lambda x: _gumbel_pdf(x)[0]),
}


def _kind_laws(kind) -> _KindLaws:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown kind {_echo(kind)}; expected one of {', '.join(_KINDS)}"
        ) from None


def _error_walk(law, approx, t, scheme, x, p, bases, orders):
    """(base, [|exact - approx_k| at x for k in orders]) per base: the one error walk.

    approx is law.approx or law.tabulated, x a checked float and p the checked
    MaxwellParams. The caller builds the bases (solve_bn or hall_base), so a
    wrapped binding is seen.
    """
    lam = None
    for base in bases:
        exact = law.exact(base.n, t, x, powered_constants(base, t, scheme), p)
        errs = []
        for k in orders:
            if k == 1:  # the Gumbel limit is free of n: formed once, at the first base
                if lam is None:
                    lam = approx(1, t, x, base, scheme)
                errs.append(abs(exact - lam))
            else:
                errs.append(abs(exact - approx(k, t, x, base, scheme)))
        yield base, errs


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
        raise ConfigurationError(f"unknown convention {_echo(convention)}")
    law = _kind_laws(kind)
    t, scheme = validate_scheme(t, default_scheme(t))
    p = MaxwellParams(sigma)
    make_base, approx = solve_bn, law.approx
    if convention == "tabulated":
        if scheme is not _OPTIMAL:
            raise ConfigurationError(
                "the tabulated convention exists only for t = 2; use the asymptotic convention"
            )
        make_base, approx = hall_base, law.tabulated
    bases = (make_base(n, sigma) for n in n_grid)
    return [ErrorRow(base.n, *errs) for base, errs in
            _error_walk(law, approx, t, scheme, _real(x, "x"), p, bases, (1, 2, 3))]


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
    """The grid as ints: `min_len` (>= 1) or more distinct n spanning `decades`."""
    ns = [_integer(n, "n") for n in n_grid]
    if len(set(ns)) < min_len:
        raise DiagnosticsError(f"need {min_len} or more distinct sample sizes")
    if max(ns) < min(ns) * 10**decades:  # in ints: a float ratio overflows past 1e308
        raise DiagnosticsError(
            f"n grid must span at least {decades} decades, got {_echo(min(ns))}..{_echo(max(ns))}"
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
    bases = (solve_bn(n, sigma) for n in ns)
    for base, (err,) in _error_walk(law, law.approx, t, scheme, x, p, bases, (1,)):
        if err == 0.0:
            raise DiagnosticsError(f"first-order error is 0 at n = {base.n}, x = {x}; "
                                   "the log-log slope is undefined")
        bs.append(base.b_n)
        errs.append(err)
        scaled.append(_scaled(err, base.b_n, power, f"err1 * b_n^{power}",
                              f"at n = {base.n}, sigma = {sigma!r}"))
    slope = _fit([math.log(b) for b in bs], [math.log(e) for e in errs])[0]
    # the first coefficient, stated at sigma = 1, carries sigma^power
    coeff1 = abs(law.coeff1_square(x) if scheme is _OPTIMAL
                 else law.coeff1_general(t, x))
    weight, prediction = law.weight(x), 0.0
    if coeff1 * weight != 0.0:
        prediction = _scaled(coeff1, base.sigma, power, "scaled_limit_prediction",
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
    law = _KINDS["cdf"]
    squared = _error_walk(law, law.approx, 2.0, _OPTIMAL, x, p,
                          (solve_bn(n, sigma) for n in ns), (1,))
    lam = _gumbel_cdf(x)
    gaps, leads, ratios, powered = [], [], [], []
    for n in ns:
        hall = hall_base(n, sigma)
        fn = exact_unpowered_cdf(n, hall.a_n * x + hall.b_n, p)
        gap = fn - lam
        lead = _hall_error_leading(n, x)
        if lead == 0.0:
            raise DomainError(f"leading error term underflows to 0 at x = {x}; "
                              "the ratio gap / leading is undefined")
        gaps.append(gap)
        leads.append(lead)
        ratios.append(gap / lead)
        powered.append(next(squared)[1][0])
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
    correction) with a ratio growing like b_n^2. The rows keep grid order;
    crossover_n reads them by increasing n.
    """
    ns = _check_grid(n_grid, min_len=1)
    law, p, x = _KINDS["cdf"], MaxwellParams(sigma), _real(x, "x")
    bases = [solve_bn(n, sigma) for n in ns]  # both schemes share each root
    opt, alt = ([err for _, (err,) in _error_walk(law, law.approx, 2.0, scheme, x, p, bases, (2,))]
                for scheme in (_OPTIMAL, _ALTERNATIVE))
    crossover = None
    for n, o, a in sorted(zip(ns, opt, alt), reverse=True):  # down to the last n it loses at
        if not o <= a:
            break
        crossover = n
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
    two or more distinct sample sizes, Lambda'(x) must not underflow to 0 at
    any grid x, and neither variant may be 0 at every grid x (DiagnosticsError).
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
    dens = [_gumbel_pdf(x)[0] for x in xs]
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
    # pointwise linear extrapolation in u = b_n^-2 to u -> 0
    limits = [_fit(us, column)[1] for column in zip(*R)]
    fields, below = {}, []
    for name, coeff in (("consistent", _pdf_coeff1_general), ("classic", _pdf_coeff1_classic)):
        v = [s2 * coeff(t, x, math.exp(-x)) for x in xs]
        if not any(v):
            raise DiagnosticsError(f"the {name} coefficient is 0 at every grid x; "
                                   "its relative deviation is undefined")
        fields[f"sup_dev_{name}"] = tuple(max(abs(r - c) for r, c in zip(row, v)) for row in R)
        dev = fields[f"extrapolated_dev_{name}"] = max(abs(l - c) for l, c in zip(limits, v))
        rel = fields[f"rel_dev_{name}"] = dev / max(map(abs, v))
        if rel < ADJUDICATION_THRESHOLD:
            below.append(name)
    return DensityCoeffAdjudication(t=t, sigma=p.sigma, x_grid=tuple(xs), ns=tuple(ns), **fields,
                                    winner=below[0] if len(below) == 1 else "inconclusive")
