"""Command-line front end.

Thin orchestration only: every number printed here is produced by the
library modules. Output is plain CSV (or a plain-text report for
`adjudicate`) with LF line endings and 12 significant digits; no color or
other decoration is ever emitted, so NO_COLOR is honored trivially.

Exit codes: 0 success, 1 usage error, 2 domain/configuration error. An x
grid (`plot-data`, `adjudicate`) of more than 10**6 steps or with `--x-max`
below `--x-min`, and an `--output` path that cannot be written, are usage
errors; the path is opened before any work, and a failed call leaves an
existing file as it was.

At module level only `errors` and `norming` load, which every subcommand
uses; each `_cmd_*` imports the rest of the package where it runs, so `bn`
and `constants` load neither `exact` nor `montecarlo`, and only `simulate`
loads `montecarlo`.
"""
from __future__ import annotations

import argparse
import math
import numbers
import os
import sys

from .errors import MaxextError
from .norming import Scheme, default_scheme, equation_residual, powered_constants, solve_bn

_SCHEMES = [s.value for s in Scheme]


def _fmt(v) -> str:
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return format(float(v), ".12g")


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with out:  # closed here, so a failed flush is an OSError like a failed write
        if out.seekable():  # a file keeps its old bytes until now; a pipe has none
            out.truncate(0)
        out.write(text)


# argparse type= converters: bad values become one-line usage errors (exit 1)

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _n_grid(text: str) -> list[numbers.Rational]:
    # read exactly, so 1e300 is 10**300; a non-integral n is a domain error.
    # Only a typed grid loads fractions: the defaults are int lists, which
    # argparse passes through without calling this.
    from fractions import Fraction

    parts = [part for part in text.split(",") if part.strip()]
    try:
        for part in parts:
            _finite_float(part)  # a usage error for 1e400, which Fraction reads
        return [Fraction(part) for part in parts]
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}") from None


def _scheme_for(t: float, name: str) -> Scheme | str:
    # validate_scheme, behind every caller, resolves a named scheme
    return default_scheme(t) if name == "auto" else name


class _UsageError(Exception):
    """A bad combination of option values, found after parsing (exit 1)."""


_MAX_X_STEPS = 10**6


def _x_grid(x_min: float, x_max: float, x_step: float) -> list[float]:
    if x_max < x_min:
        raise _UsageError(f"--x-max {x_max!r} is below --x-min {x_min!r}")
    steps = (x_max - x_min) / x_step
    if not steps <= _MAX_X_STEPS:  # also inf, when the bounds are far apart
        raise _UsageError(
            f"--x-min, --x-max and --x-step give more than {_MAX_X_STEPS} x steps")
    return [x_min + k * x_step for k in range(int(round(steps)) + 1)]


def _cmd_bn(args) -> list[str]:
    base = solve_bn(args.n, args.sigma)
    res = equation_residual(base.b_n, base.n, base.sigma)
    return [
        "n,sigma,b_n,a_n,residual",
        ",".join([_fmt(base.n), _fmt(base.sigma), _fmt(base.b_n), _fmt(base.a_n), _fmt(res)]),
    ]


def _cmd_constants(args) -> list[str]:
    base = solve_bn(args.n, args.sigma)
    pn = powered_constants(base, args.t, _scheme_for(args.t, args.scheme))
    return [
        "n,sigma,t,scheme,c_n,d_n,b_n",
        ",".join([_fmt(args.n), _fmt(args.sigma), _fmt(pn.t), pn.scheme.value,
                  _fmt(pn.c_n), _fmt(pn.d_n), _fmt(base.b_n)]),
    ]


def _cmd_table(args) -> list[str]:
    from . import exact

    if args.n_start is None:
        args.n_start = 25 if args.kind == "cdf" else 375
    if args.n_end is None:
        args.n_end = 1000 if args.kind == "cdf" else 15000
    if args.n_step is None:
        args.n_step = 25 if args.kind == "cdf" else 375
    grid = range(args.n_start, args.n_end + 1, args.n_step)
    convention = args.convention
    if convention == "auto":
        convention = "tabulated" if args.t == 2.0 else "asymptotic"
    rows = exact.error_table(args.kind, args.t, args.x, args.sigma, grid,
                             convention=convention)
    lines = ["n,err1,err2,err3"]
    lines += [",".join([_fmt(r.n), _fmt(r.err1), _fmt(r.err2), _fmt(r.err3)]) for r in rows]
    return lines


def _cmd_rate(args) -> list[str]:
    from . import exact

    diag = exact.rate_diagnostic(args.kind, args.t, args.x, args.sigma, args.n_grid)
    lines = ["n,b_n,err1,err1_scaled,slope,scaled_limit_prediction"]
    for i, n in enumerate(diag.ns):
        lines.append(",".join([_fmt(n), _fmt(diag.b_values[i]), _fmt(diag.errors[i]),
                               _fmt(diag.scaled[i]), _fmt(diag.slope),
                               _fmt(diag.scaled_limit_prediction)]))
    return lines


def _cmd_compare_schemes(args) -> list[str]:
    from . import exact

    cmp = exact.compare_schemes(args.x, args.sigma, args.n_grid)
    cross = "" if cmp.crossover_n is None else _fmt(cmp.crossover_n)
    lines = ["n,optimal_err2,alternative_err2,ratio,crossover_n"]
    for i, n in enumerate(cmp.ns):
        # an order-2 error of exactly 0 (far above the mode) has no ratio
        ratio = "" if cmp.optimal[i] == 0.0 else _fmt(cmp.alternative[i] / cmp.optimal[i])
        lines.append(",".join([_fmt(n), _fmt(cmp.optimal[i]), _fmt(cmp.alternative[i]),
                               ratio, cross]))
    return lines


def _cmd_compare_hall(args) -> list[str]:
    from . import exact

    chk = exact.hall_rate_check(args.x, args.sigma, args.n_grid)
    lines = ["n,gap,leading,ratio,powered_err1"]
    for i, n in enumerate(chk.ns):
        lines.append(",".join([_fmt(n), _fmt(chk.gaps[i]), _fmt(chk.leading[i]),
                               _fmt(chk.ratios[i]), _fmt(chk.powered_err1[i])]))
    return lines


def _cmd_adjudicate(args) -> list[str]:
    from . import exact

    report = exact.adjudicate_density_coeffs(
        args.t, _x_grid(args.x_min, args.x_max, args.x_step), args.sigma,
        args.n_grid)
    return report.summary().splitlines()


def _cmd_simulate(args) -> list[str]:
    from .montecarlo import SimulationConfig, ks_distance, simulate_powered_maxima
    from .special import gumbel_cdf

    cfg = SimulationConfig(n=args.n, t=args.t, sigma=args.sigma, reps=args.reps,
                           seed=args.seed, scheme=_scheme_for(args.t, args.scheme))
    values = simulate_powered_maxima(cfg)
    ks = ks_distance(values, gumbel_cdf)
    lines = ["n,t,sigma,scheme,reps,seed,ks_gumbel,mean,std"]
    lines.append(",".join([_fmt(cfg.n), _fmt(cfg.t), _fmt(cfg.sigma), cfg.scheme.value,
                           _fmt(cfg.reps), _fmt(cfg.seed), _fmt(ks),
                           _fmt(values.mean()), _fmt(values.std())]))
    return lines


def _cmd_plot_data(args) -> list[str]:
    from . import exact
    from .maxwell import MaxwellParams

    xs = _x_grid(args.x_min, args.x_max, args.x_step)
    base = solve_bn(args.n, args.sigma)
    pn = powered_constants(base, args.t, _scheme_for(args.t, args.scheme))
    p = MaxwellParams(args.sigma)
    law = exact._kind_laws(args.kind)
    lines = ["x,exact,order1,order2,order3"]
    for x in xs:
        ex = law.exact(args.n, args.t, x, pn, p, below_support="zero")
        approx = [law.approx(k, args.t, x, base, pn.scheme) for k in (1, 2, 3)]
        lines.append(",".join([_fmt(x), _fmt(ex)] + [_fmt(a) for a in approx]))
    return lines


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp, sigma=2.0, t=2.0, x=0.7):
    sp.add_argument("--sigma", type=float, default=sigma, help=f"scale parameter (default {sigma})")
    sp.add_argument("--t", type=float, default=t, help=f"power index (default {t})")
    sp.add_argument("--x", type=float, default=x, help=f"evaluation point (default {x})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxext",
                     description="Powered maxima of Maxwell samples: exact laws, "
                                 "expansions, error tables, and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bn", parents=[], help="solve the norming equation for b_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=2.0)
    sp.set_defaults(func=_cmd_bn)

    sp = sub.add_parser("constants", help="powered norming constants (c_n, d_n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=2.0)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--scheme", choices=_SCHEMES + ["auto"], default="auto")
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("table", help="absolute-error table (defaults regenerate "
                                      "the golden reference tables)")
    sp.add_argument("--kind", choices=["cdf", "pdf"], default="cdf")
    _add_common(sp)
    sp.add_argument("--n-start", type=_positive_int, default=None)
    sp.add_argument("--n-end", type=_positive_int, default=None)
    sp.add_argument("--n-step", type=_positive_int, default=None)
    sp.add_argument("--convention", choices=["tabulated", "asymptotic", "auto"],
                    default="auto",
                    help="tabulated matches the golden tables (t = 2 only); "
                         "asymptotic uses the exact norming root (default: auto)")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("rate", help="convergence-rate diagnostic of the first-order error")
    sp.add_argument("--kind", choices=["cdf", "pdf"], default="cdf")
    _add_common(sp)
    sp.add_argument("--n-grid", default=[10**4, 10**6, 10**8, 10**10, 10**12],
                    type=_n_grid, help="comma-separated sample sizes")
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("compare-schemes",
                        help="order-2 errors: optimal vs alternative square norming")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--x", type=float, default=0.7)
    sp.add_argument("--n-grid", type=_n_grid,
                    default=[10**3, 10**4, 10**5, 10**6, 10**8, 10**10])
    sp.set_defaults(func=_cmd_compare_schemes)

    sp = sub.add_parser("compare-hall",
                        help="non-powered maximum vs its leading error term and vs t = 2")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--x", type=float, default=0.7)
    sp.add_argument("--n-grid", type=_n_grid, default=[10**3, 10**4, 10**6, 10**8, 10**10])
    sp.set_defaults(func=_cmd_compare_hall)

    sp = sub.add_parser("adjudicate",
                        help="report which first-density-coefficient variant is correct")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--x-min", type=_finite_float, default=-1.0)
    sp.add_argument("--x-max", type=_finite_float, default=3.0)
    sp.add_argument("--x-step", type=_positive_float, default=0.25)
    sp.add_argument("--n-grid", type=_n_grid, default=[10**6, 10**8, 10**10])
    sp.set_defaults(func=_cmd_adjudicate)

    sp = sub.add_parser("simulate", help="Monte-Carlo powered maxima + KS summary")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--scheme", choices=_SCHEMES + ["auto"], default="auto")
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=205)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("plot-data",
                        help="x-sweep of exact vs order-1/2/3 approximations (CSV)")
    sp.add_argument("--kind", choices=["cdf", "pdf"], default="cdf")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp)
    sp.add_argument("--scheme", choices=_SCHEMES + ["auto"], default="auto")
    sp.add_argument("--x-min", type=_finite_float, default=-3.0)
    sp.add_argument("--x-max", type=_finite_float, default=8.0)
    sp.add_argument("--x-step", type=_positive_float, default=0.05)
    sp.set_defaults(func=_cmd_plot_data)

    for name, subparser in sub.choices.items():
        subparser.add_argument("--output", default=None, metavar="PATH",
                               help="write to file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out, created, code = None, False, 1
    try:
        if args.output:
            # opened before the work, so an unwritable path fails at once; append
            # mode leaves an existing file byte-identical unless the work succeeds
            created = not os.path.lexists(args.output)
            out = open(args.output, "a", newline="")
        _emit(args.func(args), out)
        code = 0
    except _UsageError as exc:
        print(f"maxext {args.command}: error: {exc}", file=sys.stderr)
    except MaxextError as exc:
        print(f"maxext {args.command}: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:  # an --output path that cannot be opened or written
        print(f"maxext {args.command}: error: {exc}", file=sys.stderr)
    finally:
        if out is not None:
            out.close()
            if code != 0 and created:
                os.remove(args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
