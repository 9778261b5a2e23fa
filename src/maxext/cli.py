"""Command-line front end.

Thin orchestration only: every number printed here is produced by the
library modules. One row writer, `_csv`, prints every table as CSV with LF
line endings, floats to 12 significant digits and ints exactly (`adjudicate`
prints a plain-text report); no color or other decoration is ever emitted,
so NO_COLOR is honored trivially.

Each option is declared once, in `_OPTIONS` (its converter or choices and its
help), and `_COMMANDS` gives each subcommand its handler, its help and its
options with their defaults; `build_parser` is one loop over the two.

Two readers turn an argv into the handler's arguments, both from those two
tables. `_read_plain` reads a plain argv, a subcommand and then pairs of one
of its own options, written in full, and a value, into the namespace
argparse would build, with the same converters, choices and defaults. Every
other argv (help, `--opt=value`, an unknown option, a missing `--n`, a value
its converter rejects) goes to the argparse parser of `build_parser`, which
alone prints usage, help and usage errors, and which the tests hold the
plain reader to. The plain reader is there because argparse costs a cold
call about 7 ms (its import with gettext, then ten parsers), of about 95 ms
in all; only `build_parser`, and a converter where it raises its error,
import argparse.

Only `bn`, `constants` and `rate` take `--sigma`: they print b_n, c_n, d_n
or sigma^k-scaled errors, which scale with sigma. The other six print only
normalized quantities; `simulate` prints statistics of the normalized maxima.
The law of the normalized maximum (|M_n|^t - d_n)/c_n is free of sigma, a
pure scale (b_n = sigma z_n; c_n and d_n scale as sigma^t), so there
`--sigma` is a usage error, and a fixed sigma sets only the rounding.

Every grid is one comma-separated list: `--n-grid` of sample sizes and
`--x-grid` (`plot-data`, `adjudicate`) of evaluation points. Each real
(`--x`, `--t`, `--sigma`, an `--x-grid` part) is read by `_finite_float`,
and each integer (`--n`, `--reps`, `--seed`, an `--n-grid` part) exactly by
`_exact_int`, so 1e3 is 1000, and NaN, inf, 1e400 and 2.5 are usage errors.
An argument that starts with - and then a digit or a point is a value, so
`--x-grid -1,0,1` and `--x -1e-3` parse, and an option is matched by its
full name only.

Exit codes: 0 success, 1 usage error, 2 domain/configuration error or out
of memory, 130 interrupted (out of memory and Ctrl-C each print one stderr
line, no traceback). A grid with no values, and an `--output` path that
cannot be written, are usage errors; the path is opened before any work,
and a failed or interrupted call leaves an existing file as it was.

At module level only `errors` and `norming` load, which every subcommand
uses; each `_cmd_*` imports the rest of the package where it runs, so `bn`
and `constants` load neither `exact` nor `montecarlo`, and only `simulate`
loads `montecarlo`.
"""
from __future__ import annotations

import math
import numbers
import os
import re
import sys
import types

from .errors import MaxextError, _echo
from .norming import Scheme, default_scheme, equation_residual, powered_constants, solve_bn

_SCHEMES = [s.value for s in Scheme]


def _fmt(v) -> str:
    return str(int(v)) if isinstance(v, numbers.Integral) else format(float(v), ".12g")


def _csv(header: str, rows) -> list[str]:
    """The header, then one line per row of comma-joined fields: a str as it is, others by _fmt."""
    return [header, *(",".join(v if isinstance(v, str) else _fmt(v) for v in row)
                      for row in rows)]


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with out:  # closed here, so a failed flush is an OSError like a failed write
        if out.seekable():  # a file keeps its old bytes until now; a pipe has none
            out.truncate(0)
        out.write(text)


# type= converters of argparse and of the plain reader: bad values become
# one-line usage errors (exit 1)

def _usage_error(message: str, grid: str | None = None):
    # imported here, so a call whose values all read loads no argparse; a bad
    # grid part is named by its reader, with the grid shown by errors._echo
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message if grid is None else f"{message} in {_echo(grid)}")


def _finite_float(text: str, grid: str | None = None) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _usage_error(f"expected a finite number, got {_echo(text)}", grid)
    return value


def _exact_int(text: str, grid: str | None = None) -> int:
    # 1e300 is 10**300. Only text with a point or an exponent loads decimal,
    # which, unlike Fraction, forms no 10**k for an exponent k such as -10**8.
    _finite_float(text, grid)  # a usage error for nan, inf, 1e400 and a 401-digit literal
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal

        value = Decimal(text)
    if value != value.to_integral_value():
        raise _usage_error(f"expected an integer, got {_echo(text)}", grid)
    return int(value)


def _grid(read):
    """A converter of comma-separated values, each read by `read`; empty parts are skipped."""
    def convert(text: str) -> list:
        values = [read(part, text) for part in text.split(",") if part.strip()]
        if not values:  # a grid of no values, such as "" or ","
            raise _usage_error(f"expected comma-separated finite numbers, got {_echo(text)}")
        return values

    return convert


# The sigma of each subcommand without --sigma: the one its recorded output
# was made at, which sets only the rounding (and the scale of adjudicate's
# absolute deviations). The golden tables' 2.0 serves table and plot-data,
# and 1.0 compare-schemes, compare-hall, adjudicate and simulate.
_SIGMA_GOLDEN, _SIGMA_UNIT = 2.0, 1.0


def _scheme_for(t: float, name: str) -> Scheme | str:
    # validate_scheme, behind every caller, resolves a named scheme
    return default_scheme(t) if name == "auto" else name


# table's n grid when --n-grid is not given: the golden tables' rows
_TABLE_N_GRIDS = {"cdf": range(25, 1001, 25), "pdf": range(375, 15001, 375)}


def _cmd_bn(args) -> list[str]:
    base = solve_bn(args.n, args.sigma)
    res = equation_residual(base.b_n, base.n, base.sigma)
    return _csv("n,sigma,b_n,a_n,residual", [(base.n, base.sigma, base.b_n, base.a_n, res)])


def _cmd_constants(args) -> list[str]:
    base = solve_bn(args.n, args.sigma)
    pn = powered_constants(base, args.t, _scheme_for(args.t, args.scheme))
    return _csv("n,sigma,t,scheme,c_n,d_n,b_n",
                [(args.n, args.sigma, pn.t, pn.scheme.value, pn.c_n, pn.d_n, base.b_n)])


def _cmd_table(args) -> list[str]:
    from . import exact

    ns = args.n_grid or _TABLE_N_GRIDS[args.kind]  # a typed grid is never empty
    convention = args.convention
    if convention == "auto":
        convention = "tabulated" if args.t == 2.0 else "asymptotic"
    rows = exact.error_table(args.kind, args.t, args.x, _SIGMA_GOLDEN, ns,
                             convention=convention)
    return _csv("n,err1,err2,err3", rows)


def _cmd_rate(args) -> list[str]:
    from . import exact

    diag = exact.rate_diagnostic(args.kind, args.t, args.x, args.sigma, args.n_grid)
    return _csv("n,b_n,err1,err1_scaled,slope,scaled_limit_prediction",
                [(*row, diag.slope, diag.scaled_limit_prediction)
                 for row in zip(diag.ns, diag.b_values, diag.errors, diag.scaled)])


def _cmd_compare_schemes(args) -> list[str]:
    from . import exact

    cmp = exact.compare_schemes(args.x, _SIGMA_UNIT, args.n_grid)
    cross = "" if cmp.crossover_n is None else cmp.crossover_n
    # an order-2 error of exactly 0 (far above the mode) has no ratio
    return _csv("n,optimal_err2,alternative_err2,ratio,crossover_n",
                [(n, opt, alt, "" if opt == 0.0 else alt / opt, cross)
                 for n, opt, alt in zip(cmp.ns, cmp.optimal, cmp.alternative)])


def _cmd_compare_hall(args) -> list[str]:
    from . import exact

    chk = exact.hall_rate_check(args.x, _SIGMA_UNIT, args.n_grid)
    return _csv("n,gap,leading,ratio,powered_err1",
                zip(chk.ns, chk.gaps, chk.leading, chk.ratios, chk.powered_err1))


def _cmd_adjudicate(args) -> list[str]:
    from . import exact

    report = exact.adjudicate_density_coeffs(args.t, args.x_grid, _SIGMA_UNIT, args.n_grid)
    return report.summary().splitlines()


def _cmd_simulate(args) -> list[str]:
    from .montecarlo import SimulationConfig, ks_distance, simulate_powered_maxima
    from .special import gumbel_cdf

    cfg = SimulationConfig(n=args.n, t=args.t, sigma=_SIGMA_UNIT, reps=args.reps,
                           seed=args.seed, scheme=_scheme_for(args.t, args.scheme))
    values = simulate_powered_maxima(cfg)
    return _csv("n,t,sigma,scheme,reps,seed,ks_gumbel,mean,std",
                [(cfg.n, cfg.t, cfg.sigma, cfg.scheme.value, cfg.reps, cfg.seed,
                  ks_distance(values, gumbel_cdf), values.mean(), values.std())])


def _cmd_plot_data(args) -> list[str]:
    from . import exact
    from .maxwell import MaxwellParams

    base = solve_bn(args.n, _SIGMA_GOLDEN)
    pn = powered_constants(base, args.t, _scheme_for(args.t, args.scheme))
    p = MaxwellParams(_SIGMA_GOLDEN)
    law = exact._kind_laws(args.kind)
    return _csv("x,exact,order1,order2,order3",
                [(x, law.exact(args.n, args.t, x, pn, p, below_support="zero"),
                  *[law.approx(k, args.t, x, base, pn.scheme) for k in (1, 2, 3)])
                 for x in args.x_grid])


# no option starts with a digit, so any argument that starts with - and then
# a digit or a point is a value: -1e-3, -.5 and -1,0,1 too
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

_OPTIONS = {
    "--kind": dict(choices=["cdf", "pdf"], help="distribution or density (default %(default)s)"),
    "--n": dict(type=_exact_int, required=True, help="sample size"),
    "--sigma": dict(type=_finite_float, help="scale parameter (default %(default)s)"),
    "--t": dict(type=_finite_float, help="power index (default %(default)s)"),
    "--x": dict(type=_finite_float, help="evaluation point (default %(default)s)"),
    "--scheme": dict(choices=_SCHEMES + ["auto"], help="norming scheme (default %(default)s)"),
    "--convention": dict(choices=["tabulated", "asymptotic", "auto"],
                         help="tabulated matches the golden tables (t = 2 only); "
                              "asymptotic uses the exact norming root (default %(default)s)"),
    "--n-grid": dict(type=_grid(_exact_int), help="comma-separated sample sizes"),
    "--x-grid": dict(type=_grid(_finite_float), help="comma-separated evaluation points"),
    "--reps": dict(type=_exact_int, help="repetitions (default %(default)s)"),
    "--seed": dict(type=_exact_int, help="Philox key (default %(default)s)"),
    "--output": dict(metavar="PATH", help="write to file instead of stdout"),
}

# subcommand: (handler, help, {option: default} in usage order); each also takes --output
_COMMANDS = {
    "bn": (_cmd_bn, "solve the norming equation for b_n",
           {"--n": None, "--sigma": 2.0}),
    "constants": (_cmd_constants, "powered norming constants (c_n, d_n)",
                  {"--n": None, "--sigma": 2.0, "--t": 2.0, "--scheme": "auto"}),
    "table": (_cmd_table, "absolute-error table (defaults regenerate the golden reference tables)",
              {"--kind": "cdf", "--t": 2.0, "--x": 0.7, "--n-grid": None,
               "--convention": "auto"}),
    "rate": (_cmd_rate, "convergence-rate diagnostic of the first-order error",
             {"--kind": "cdf", "--sigma": 2.0, "--t": 2.0, "--x": 0.7,
              "--n-grid": [10**4, 10**6, 10**8, 10**10, 10**12]}),
    "compare-schemes": (_cmd_compare_schemes,
                        "order-2 errors: optimal vs alternative square norming",
                        {"--x": 0.7,
                         "--n-grid": [10**3, 10**4, 10**5, 10**6, 10**8, 10**10]}),
    "compare-hall": (_cmd_compare_hall,
                     "non-powered maximum vs its leading error term and vs t = 2",
                     {"--x": 0.7,
                      "--n-grid": [10**3, 10**4, 10**6, 10**8, 10**10]}),
    "adjudicate": (_cmd_adjudicate, "report which first-density-coefficient variant is correct",
                   {"--t": 1.0, "--x-grid": [-1.0 + k * 0.25 for k in range(17)],
                    "--n-grid": [10**6, 10**8, 10**10]}),
    "simulate": (_cmd_simulate, "Monte-Carlo powered maxima + KS summary",
                 {"--n": None, "--t": 2.0, "--scheme": "auto",
                  "--reps": 10_000, "--seed": 205}),
    "plot-data": (_cmd_plot_data, "x-sweep of exact vs order-1/2/3 approximations (CSV)",
                  {"--kind": "cdf", "--n": None, "--t": 2.0, "--scheme": "auto",
                   "--x-grid": [-3.0 + k * 0.05 for k in range(221)]}),
}


def build_parser():
    """The argparse parser of the CLI: the reference for every argv, and the only
    code that prints usage, help or a usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            # an option is matched by its full name only, so plot-data reads no
            # --x as an abbreviation of --x-grid
            super().__init__(allow_abbrev=False, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        # usage errors must exit 1, not argparse's default 2
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="maxext",
                     description="Powered maxima of Maxwell samples: exact laws, "
                                 "expansions, error tables, and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for option, default in [*defaults.items(), ("--output", None)]:
            sp.add_argument(option, default=default, **_OPTIONS[option])
        sp.set_defaults(func=func)
    return parser


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` makes of a plain argv, else None.

    A plain argv is a subcommand, then pairs of one of its own options, written
    in full, and a value that argparse reads as one: it does not start with -,
    or it is a negative number. The last occurrence of an option wins, as in
    argparse. Anything else, and any value its converter or choices reject, is
    left to argparse, which prints the usage, help or error.
    """
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    func, _, defaults = _COMMANDS[argv[0]]
    values = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        if (option not in defaults and option != "--output"
                or text.startswith("-") and not _NEGATIVE_NUMBER.match(text)):
            return None
        spec = _OPTIONS[option]
        try:
            value = spec.get("type", str)(text)
        except Exception:  # noqa: BLE001 - argparse reports it, or lets it escape
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[option] = value
    if any(_OPTIONS[option].get("required") and option not in values for option in defaults):
        return None
    return types.SimpleNamespace(
        command=argv[0], func=func,
        **{option[2:].replace("-", "_"): values.get(option, default)
           for option, default in [*defaults.items(), ("--output", None)]})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    except MaxextError as exc:
        print(f"maxext {args.command}: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:  # an --output path that cannot be opened or written
        print(f"maxext {args.command}: error: {exc}", file=sys.stderr)
    except MemoryError:
        print(f"maxext {args.command}: out of memory", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        print(f"maxext {args.command}: interrupted", file=sys.stderr)
        code = 130
    finally:
        if out is not None:
            out.close()
            if code != 0 and created:
                os.remove(args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
