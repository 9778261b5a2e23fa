"""CLI behaviour: CSV contracts, exit codes, and thin-orchestration checks."""
import argparse
import ast
import csv
import io
import math
import pathlib
import re
import shlex
import sys

import pytest

from maxext import cli, exact, montecarlo
from maxext.cli import main
from maxext.maxwell import MaxwellParams
from maxext.norming import Scheme, powered_constants, solve_bn


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_table_defaults_reproduce_golden_first_row(capsys, data_dir):
    code, out, err = run_cli(capsys, "table", "--kind", "cdf")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert rows[0] == ["n", "err1", "err2", "err3"]
    assert len(rows) == 41
    assert rows[1][0] == "25"
    with open(data_dir / "table1_cdf_errors.csv", newline="") as fh:
        golden = list(csv.DictReader(fh))
    assert float(rows[1][1]) == pytest.approx(float(golden[0]["err1"]), abs=1e-9)
    assert float(rows[1][2]) == pytest.approx(float(golden[0]["err2"]), abs=1e-9)
    assert float(rows[1][3]) == pytest.approx(float(golden[0]["err3"]), abs=1e-9)
    # 12 significant digits in the formatted values
    assert rows[1][1].startswith("0.0169056390")
    assert "\r" not in out


def test_table_pdf_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "pdf")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 41
    assert rows[1][0] == "375" and rows[-1][0] == "15000"


def test_bn_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bn", "--n", "25", "--sigma", "2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "sigma", "b_n", "a_n", "residual"]
    assert abs(float(rows[1][4])) <= 1e-13
    assert float(rows[1][2]) == pytest.approx(solve_bn(25, 2.0).b_n, rel=1e-11)


def test_constants_t1_collapse(capsys):
    code, out, _ = run_cli(capsys, "constants", "--n", "50", "--sigma", "1.5",
                           "--t", "1")
    assert code == 0
    rows = parse_csv(out)
    base = solve_bn(50, 1.5)
    assert float(rows[1][4]) == pytest.approx(base.a_n, rel=1e-11)
    assert float(rows[1][5]) == pytest.approx(base.b_n, rel=1e-11)
    assert rows[1][3] == "general-power"


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "table", "--bogus-flag")[0] == 1
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "bn")[0] == 1  # --n is required
    assert run_cli(capsys, "plot-data", "--n", "500", "--x", "1")[0] == 1  # it has no --x
    # an option is matched by its full name only: --x is no abbreviation of --x-grid
    assert run_cli(capsys, "adjudicate", "--x", "1")[0] == 1
    assert run_cli(capsys, "rate", "--n-g", "1e4,1e6")[0] == 1


@pytest.mark.parametrize("argv, takes_sigma", [
    # b_n, c_n and d_n and sigma^k-scaled errors scale with sigma
    (["bn", "--n", "25"], True),
    (["constants", "--n", "25"], True),
    (["rate"], True),
    # the law of the normalized maximum does not depend on sigma
    (["simulate", "--n", "25"], False),
    (["table"], False),
    (["compare-schemes"], False),
    (["compare-hall"], False),
    (["adjudicate"], False),
    (["plot-data", "--n", "500"], False),
])
def test_only_scale_carrying_subcommands_take_sigma(capsys, argv, takes_sigma):
    argv = [*argv, "--sigma", "3"]
    if takes_sigma:
        assert cli.build_parser().parse_args(argv).sigma == 3.0
    else:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        # the top-level usage, naming every subcommand, then the error
        assert err == (cli.build_parser().format_usage()
                       + "maxext: error: unrecognized arguments: --sigma 3\n")


def test_domain_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "bn", "--n", "2")
    assert code == 2 and "n" in err
    code, out, err = run_cli(capsys, "table", "--t", "1", "--convention", "tabulated",
                             "--n-grid", "25,50")
    assert code == 2
    # the message names the convention as a CLI user and a library caller both spell it
    code, out, err = run_cli(capsys, "table", "--t", "1", "--convention", "tabulated")
    assert (code, out) == (2, "")
    assert err == ("maxext table: the tabulated convention exists only for t = 2; "
                   "use the asymptotic convention\n")
    code, out, err = run_cli(capsys, "constants", "--n", "50", "--t", "2",
                             "--scheme", "general-power")
    assert code == 2
    for seed in ("-1", str(2**128)):
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--reps", "2", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"maxext simulate: seed must be in [0, 2**128), got {seed}\n"


def test_simulate_overflowing_power_exits_2_without_traceback(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--t", "570", "--reps", "2000")
    assert (code, out) == (2, "")
    assert err == ("maxext simulate: a sampled maximum to the power t = 570.0 overflows; "
                   "use a smaller t\n")


def test_help_exits_0(capsys):
    # a help string with a stray % fails only here, when argparse formats it
    assert run_cli(capsys, "--help")[0] == 0
    for name in subcommands():
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0 and out.startswith(f"usage: maxext {name} "), name


def _args_reads(tree):
    """{function: the `args.<name>` attributes it reads} for every top-level `_cmd_*`."""
    return {node.name: {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name) and n.value.id == "args"}
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")}


def test_the_args_scan_finds_every_read():
    tree = ast.parse("def _cmd_a(args):\n    return f(args.n, g(args.x_grid)), args.n\n"
                     "def _other(args):\n    return args.t\n")
    assert _args_reads(tree) == {"_cmd_a": {"n", "x_grid"}}


def test_each_handler_reads_exactly_the_options_its_subcommand_declares():
    # command, func and output are main's; an option no handler reads is a dead knob
    reads = _args_reads(ast.parse(pathlib.Path(cli.__file__).read_text()))
    for name, subparser in subcommands().items():
        declared = {action.dest for action in subparser._actions
                    if action.option_strings and action.dest not in ("help", "output")}
        assert reads.pop(subparser.get_default("func").__name__) == declared, name
    assert reads == {}  # every handler serves a subcommand


# every subcommand's options in usage order; each also takes --output, so 42 in all
CLI_SURFACE = {
    "bn": ["--n", "--sigma"],
    "constants": ["--n", "--sigma", "--t", "--scheme"],
    "table": ["--kind", "--t", "--x", "--n-grid", "--convention"],
    "rate": ["--kind", "--sigma", "--t", "--x", "--n-grid"],
    "compare-schemes": ["--x", "--n-grid"],
    "compare-hall": ["--x", "--n-grid"],
    "adjudicate": ["--t", "--x-grid", "--n-grid"],
    "simulate": ["--n", "--t", "--scheme", "--reps", "--seed"],
    "plot-data": ["--kind", "--n", "--t", "--scheme", "--x-grid"],
}


def test_the_cli_surface_is_pinned():
    surface = {name: [action.option_strings[0] for action in subparser._actions
                      if action.option_strings and action.dest != "help"]
               for name, subparser in subcommands().items()}
    assert surface == {name: [*options, "--output"] for name, options in CLI_SURFACE.items()}
    assert sum(map(len, surface.values())) == 42


def test_simulate_deterministic_output(capsys, tmp_path):
    args = ("simulate", "--n", "100", "--t", "2", "--reps", "400", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(list(args) + ["--output", str(f1)]) == 0
    assert main(list(args) + ["--output", str(f2)]) == 0
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1 and b1.endswith(b"\n")
    assert out1.encode() == b1


def test_plot_data_shape_and_support_clamp(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--kind", "cdf", "--n", "3", "--t", "2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["x", "exact", "order1", "order2", "order3"]
    assert len(rows) == 1 + 221  # x in [-3, 8] step 0.05
    # below the powered support edge the exact column is clamped to zero
    assert float(rows[1][1]) == 0.0
    assert 0.999 < float(rows[-1][1]) <= 1.0


def test_plot_data_is_thin_orchestration(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--kind", "pdf", "--n", "200", "--t", "2",
                           "--x-grid", "0.7")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    base = solve_bn(200, 2.0)
    pn = powered_constants(base, 2.0, Scheme.SQUARE_OPTIMAL)
    ref = exact.exact_powered_pdf(200, 2.0, 0.7, pn, MaxwellParams(2.0))
    assert float(rows[1][1]) == pytest.approx(ref, rel=1e-11)


def test_rate_csv(capsys):
    code, out, _ = run_cli(capsys, "rate", "--t", "2", "--n-grid", "1e4,1e7,1e10")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][0] == "n"
    slopes = {row[4] for row in rows[1:]}
    assert len(slopes) == 1
    assert -4.4 <= float(slopes.pop()) <= -3.6


def test_compare_schemes_csv(capsys):
    code, out, _ = run_cli(capsys, "compare-schemes", "--n-grid", "1e3,1e4,1e6")
    assert code == 0
    rows = parse_csv(out)
    for row in rows[1:]:
        assert float(row[1]) < float(row[2])
        assert row[4] == "1000"


def test_compare_schemes_zero_optimal_error_has_empty_ratio(capsys):
    # far above the mode both order-2 errors are exactly 0: no ratio
    code, out, err = run_cli(capsys, "compare-schemes", "--x", "50")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert rows[0] == ["n", "optimal_err2", "alternative_err2", "ratio", "crossover_n"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert row[1:] == ["0", "0", "", "1000"]


@pytest.mark.parametrize("sigma", ["1e-100", "1", "1e100"])
def test_square_constants_scale_as_sigma_squared(capsys, sigma):
    # sigma^4 leaves the float range at both ends; c_n and d_n must not
    code, out, _ = run_cli(capsys, "constants", "--n", "1000", "--sigma", sigma, "--t", "2")
    assert code == 0
    row = dict(zip(*parse_csv(out)))
    s2 = float(sigma) ** 2
    assert float(row["c_n"]) / s2 == pytest.approx(2.12387295894, rel=1e-11)
    assert float(row["d_n"]) / s2 == pytest.approx(16.2694467554, rel=1e-11)


def test_compare_hall_csv(capsys):
    code, out, _ = run_cli(capsys, "compare-hall", "--n-grid", "1e4,1e6")
    assert code == 0
    rows = parse_csv(out)
    for row in rows[1:]:
        assert float(row[4]) < abs(float(row[1]))  # powered error beats raw gap


def test_adjudicate_report(capsys):
    code, out, _ = run_cli(capsys, "adjudicate", "--n-grid", "1e5,1e7,1e9",
                           "--x-grid", "-1,-0.5,0,0.5,1,1.5,2,2.5,3")
    assert code == 0
    assert "winner: consistent" in out


def test_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bn", "--n", "100")
    path = tmp_path / "bn.csv"
    assert main(["bn", "--n", "100", "--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


_ECHO_10_400 = "'100000000000...0000000000000'"  # str(10**400) as errors._echo shows it

# a grid with a bad part: its first bad part, named by its reader's own rule,
# then the grid as typed; errors._echo shortens a long part or grid
BAD_GRID_PARTS = {
    "0,inf": "expected a finite number, got 'inf' in '0,inf'",
    "0,abc": "expected a finite number, got 'abc' in '0,abc'",
    "abc": "expected a finite number, got 'abc' in 'abc'",
    "1e4,1e400": "expected a finite number, got '1e400' in '1e4,1e400'",
    str(10**400): f"expected a finite number, got {_ECHO_10_400} in {_ECHO_10_400}",
    "1e4,10000.5": "expected an integer, got '10000.5' in '1e4,10000.5'",
    "1e4,1e-99999999": "expected an integer, got '1e-99999999' in '1e4,1e-99999999'",
}


@pytest.mark.parametrize("argv, option", [
    (["plot-data", "--n", "500", "--x-grid", "0,inf"], "--x-grid"),
    (["adjudicate", "--x-grid", "0,abc"], "--x-grid"),
    (["rate", "--n-grid", "abc"], "--n-grid"),
    (["rate", "--n-grid", "1e4,1e400"], "--n-grid"),
    (["table", "--n-grid", str(10**400)], "--n-grid"),
    # a grid with no values
    (["table", "--n-grid", ""], "--n-grid"),
    (["rate", "--n-grid", ","], "--n-grid"),
    (["plot-data", "--n", "500", "--x-grid", ""], "--x-grid"),
    (["adjudicate", "--x-grid", ","], "--x-grid"),
    # every real option is read as the grids' parts are
    (["table", "--x", "1e400"], "--x"),
    (["bn", "--n", "25", "--sigma", "nan"], "--sigma"),
    (["rate", "--t", "inf"], "--t"),
    # every integer option is read as an --n-grid part is
    (["bn", "--n", "2.5"], "--n"),
    (["bn", "--n", "25.5e0"], "--n"),
    (["bn", "--n", "nan"], "--n"),
    (["plot-data", "--n", "1e400"], "--n"),
    (["simulate", "--n", "100", "--reps", "1.5"], "--reps"),
    (["simulate", "--n", "100", "--seed", "1e400"], "--seed"),
    (["rate", "--n-grid", "1e4,10000.5"], "--n-grid"),
    # a huge exponent costs nothing (Fraction would form 10**99999999)
    (["bn", "--n", "1e-99999999"], "--n"),
    (["rate", "--n-grid", "1e4,1e-99999999"], "--n-grid"),
])
def test_bad_option_values_are_usage_errors(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith(f"maxext {argv[0]}: error: argument {option}: ")
    if argv[-1] in BAD_GRID_PARTS:
        assert last == f"maxext {argv[0]}: error: argument {option}: {BAD_GRID_PARTS[argv[-1]]}"
    else:
        assert last.endswith(f", got {argv[-1]!r}")  # the value as typed
    assert "Traceback" not in err and "Fraction(" not in err
    if not option.endswith("-grid"):
        integral = option in ("--n", "--reps", "--seed") and math.isfinite(float(argv[-1]))
        assert last.endswith(f"expected {'an integer' if integral else 'a finite number'}, "
                             f"got {argv[-1]!r}")


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "bn.csv"
    code, out, err = run_cli(capsys, "bn", "--n", "100", "--output", str(path))
    assert code == 1 and out == ""
    assert err.startswith("maxext bn: error: [Errno ") and len(err.splitlines()) == 1


def test_unwritable_output_fails_before_the_work(capsys, monkeypatch, tmp_path):
    def never(cfg):
        raise AssertionError("simulate ran before --output was checked")

    # cli imports it from montecarlo when simulate runs
    monkeypatch.setattr(montecarlo, "simulate_powered_maxima", never)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "simulate", "--n", "10000", "--reps", "10000",
                             "--output", str(path))
    assert code == 1 and out == ""
    assert err.startswith("maxext simulate: error: [Errno ") and len(err.splitlines()) == 1


def test_failed_call_leaves_output_as_it_was(capsys, tmp_path):
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"old,bytes\r\n")
    for path in (kept, absent):
        code, out, err = run_cli(capsys, "bn", "--n", "2", "--output", str(path))
        assert code == 2 and out == "" and err.startswith("maxext bn: ")
    assert kept.read_bytes() == b"old,bytes\r\n"
    assert not absent.exists()


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch, tmp_path):
    def interrupted(cfg):
        raise KeyboardInterrupt

    # cli imports it from montecarlo when simulate runs
    monkeypatch.setattr(montecarlo, "simulate_powered_maxima", interrupted)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"old,bytes\r\n")
    for output in ((), ("--output", str(kept)), ("--output", str(absent))):
        code, out, err = run_cli(capsys, "simulate", "--n", "10000", "--reps", "20000",
                                 *output)
        assert (code, out, err) == (130, "", "maxext simulate: interrupted\n")
    assert kept.read_bytes() == b"old,bytes\r\n"
    assert not absent.exists()


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    def out_of_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(montecarlo, "simulate_powered_maxima", out_of_memory)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_bytes(b"old,bytes\r\n")
    for output in ((), ("--output", str(kept)), ("--output", str(absent))):
        code, out, err = run_cli(capsys, "simulate", "--n", "3", "--reps", str(10**12), *output)
        assert (code, out, err) == (2, "", "maxext simulate: out of memory\n")
    assert kept.read_bytes() == b"old,bytes\r\n"
    assert not absent.exists()


def test_output_replaces_a_longer_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bn", "--n", "100")
    path = tmp_path / "bn.csv"
    path.write_text("x" * 10_000)
    assert main(["bn", "--n", "100", "--output", str(path)]) == 0
    assert path.read_text() == out


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
@pytest.mark.parametrize("scheme", ["auto", "square-alternative"])
def test_plot_data_far_below_mode(capsys, kind, scheme):
    code, out, err = run_cli(capsys, "plot-data", "--kind", kind, "--scheme", scheme,
                             "--n", "500", "--x-grid", "-900,-895,-890")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [row[0] for row in rows[1:]] == ["-900", "-895", "-890"]
    assert all(value == "0" for row in rows[1:] for value in row[1:])


def test_compare_hall_underflowing_leading_term_is_domain_error(capsys):
    for x in ("-7", "-800"):
        code, out, err = run_cli(capsys, "compare-hall", "--x", x)
        assert code == 2 and out == ""
        assert err.startswith("maxext compare-hall: leading error term underflows")


@pytest.mark.parametrize("argv, dest, value", [
    (["table", "--x", "-1e-3"], "x", -1e-3),
    (["table", "--x", "-.5"], "x", -0.5),
    (["rate", "--x", "-2.5e0"], "x", -2.5),
    (["plot-data", "--n", "500", "--x-grid", "-1,0,1"], "x_grid", [-1.0, 0.0, 1.0]),
    (["adjudicate", "--x-grid", "-.5,1"], "x_grid", [-0.5, 1.0]),
    (["table", "--n-grid", "25,50"], "n_grid", [25, 50]),
])
def test_negative_values_parse(argv, dest, value):
    # argparse alone reads -1e-3 and -1,0,1 as options ("expected one argument")
    assert getattr(cli.build_parser().parse_args(argv), dest) == value


def test_default_grids_are_the_former_ranges(capsys, monkeypatch):
    # table's n grids: --n-start to --n-end by --n-step, by kind
    seen = []
    monkeypatch.setattr(exact, "error_table", lambda kind, t, x, sigma, ns, convention:
                        seen.append(list(ns)) or [])
    for kind in ("cdf", "pdf"):
        assert run_cli(capsys, "table", "--kind", kind)[0] == 0
    assert seen == [list(range(25, 1000 + 1, 25)), list(range(375, 15000 + 1, 375))]

    # the x grids: --x-min + k --x-step, for k up to round((max - min) / step)
    def x_range(x_min, x_max, x_step):
        return [x_min + k * x_step for k in range(int(round((x_max - x_min) / x_step)) + 1)]

    parsers = subcommands()
    assert parsers["adjudicate"].get_default("x_grid") == x_range(-1.0, 3.0, 0.25)
    assert parsers["plot-data"].get_default("x_grid") == x_range(-3.0, 8.0, 0.05)


@pytest.mark.parametrize("argv", [
    [name, *extra, option, "1"]
    for name, extra, options in [("table", [], ("--n-start", "--n-end", "--n-step")),
                                 ("adjudicate", [], ("--x-min", "--x-max", "--x-step")),
                                 ("plot-data", ["--n", "500"], ("--x-min", "--x-max", "--x-step"))]
    for option in options
], ids=" ".join)
def test_range_options_are_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.endswith(f"maxext: error: unrecognized arguments: {argv[-2]} 1\n")


@pytest.mark.parametrize("argv", [
    ["bn", "--n", "1000", "--sigma", "1e-300"],
    ["bn", "--n", "1000", "--sigma", "1e160"],
    ["constants", "--n", "1000", "--sigma", "1e154"],
    ["rate", "--t", "2", "--sigma", "1e-100"],  # err1 * b_n^4 underflows to 0
    ["rate", "--t", "2", "--sigma", "1e100"],  # err1 * b_n^4 overflows
])
def test_extreme_sigma_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"maxext {argv[0]}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "1000000000000000000000000000000", "--sigma", "1", "--t", "300"],
    ["constants", "--n", "1000", "--sigma", "1e100", "--t", "3.5"],
    ["simulate", "--n", "100", "--reps", "3", "--t", "700"],
    ["rate", "--kind", "pdf", "--t", "700", "--sigma", "0.2078", "--n-grid", "3,3000"],
])
def test_out_of_range_powered_constants_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"maxext {argv[0]}: powered constants out of range")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["rate", "--t", "2", "--x", "50"], "first-order error is 0 at n = 10000"),
    (["adjudicate", "--n-grid", "1e6,1e6,1e6"], "need 2 or more distinct sample sizes"),
    (["adjudicate", "--x-grid", "750,750.5,751"], "Lambda'(x) underflows to 0 at x = 750.0"),
])
def test_undefined_fit_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"maxext {argv[0]}: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["bn", "--n", "2"],
    ["simulate", "--n", "2"],
    ["rate", "--n-grid", "2,10000,100000000"],
    ["compare-hall", "--n-grid", "2"],
])
def test_n_below_three_exits_2_with_the_solvers_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"maxext {argv[0]}: no root with b > sigma exists for n = 2; need n >= 3\n"


def test_a_coefficient_zero_at_every_grid_x_exits_2(capsys):
    # at t = 2.5, x = -2 the consistent coefficient is exactly 0, so its
    # deviation relative to its sup norm is undefined
    code, out, err = run_cli(capsys, "adjudicate", "--t", "2.5", "--x-grid", "-2")
    assert code == 2 and out == ""
    assert err == ("maxext adjudicate: the consistent coefficient is 0 at every grid x; "
                   "its relative deviation is undefined\n")


def test_sample_size_beyond_float_range_is_a_usage_error(capsys):
    # as an --n-grid part is; the library's DomainError for such an n, where
    # F^n = exp(n log F) cannot be formed, is tested in test_exact.py
    code, out, err = run_cli(capsys, "plot-data", "--n", str(10**400))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == ("maxext plot-data: error: argument --n: "
                                    f"expected a finite number, got {_ECHO_10_400}")


def test_n_grid_is_read_exactly(capsys):
    # 1e300 is 10**300, not the float nearest to it
    code, out, _ = run_cli(capsys, "rate", "--t", "1", "--n-grid", "1e10,1e200,1e300")
    assert code == 0
    assert [row[0] for row in parse_csv(out)[1:]] == [str(10**10), str(10**200), str(10**300)]


def test_non_integral_n_grid_point_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "rate", "--n-grid", "1e4,1e8,10000.5")
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == ("maxext rate: error: argument --n-grid: expected "
                                    "an integer, got '10000.5' in '1e4,1e8,10000.5'")


@pytest.mark.parametrize("typed, written_out", [
    (["bn", "--n", "1e3"], ["bn", "--n", "1000"]),
    (["simulate", "--n", "1e3", "--reps", "1e1", "--seed", "7"],
     ["simulate", "--n", "1000", "--reps", "10", "--seed", "7"]),
    (["constants", "--n", "2.5e1"], ["constants", "--n", "25"]),
    (["bn", "--n", "0e-99999999"], ["bn", "--n", "0"]),  # both exit 2
])
def test_integer_options_are_read_exactly(capsys, typed, written_out):
    # as an --n-grid part is: 1e3 is 1000, and the handler receives an int
    assert run_cli(capsys, *typed) == run_cli(capsys, *written_out)
    args = vars(cli.build_parser().parse_args(typed))
    assert all(type(args[name]) is int for name in ("n", "reps", "seed") if name in args)


_SWEEP_COMMANDS = [  # (argv, takes --t)
    (["bn", "--n", "1000"], False),
    (["constants", "--n", "1000"], True),
    (["table", "--kind", "cdf"], True),
    (["table", "--kind", "pdf"], True),
    (["rate", "--kind", "cdf"], True),
    (["rate", "--kind", "pdf"], True),
    (["compare-schemes"], False),
    (["compare-hall"], False),
    (["adjudicate"], True),
    (["plot-data", "--kind", "cdf", "--n", "500"], True),
    (["plot-data", "--kind", "pdf", "--n", "500"], True),
]
_SIGMA_FREE = {"table", "compare-schemes", "compare-hall", "adjudicate", "plot-data"}


def _sweep_argvs():
    # both ends of the solve_bn domain in sigma, and beyond it
    for argv, takes_t in _SWEEP_COMMANDS:
        for sigma in ("1.5e-154", "1e-100", "1e100", "1e152", "1e153"):
            for t in ("1", "2", "3") if takes_t else (None,):
                yield argv + ["--sigma", sigma] + (["--t", t] if t else [])


@pytest.mark.parametrize("argv", list(_sweep_argvs()), ids=" ".join)
def test_extreme_sigma_sweep_prints_finite_values_or_exits_2(capsys, monkeypatch, argv):
    if argv[0] in _SIGMA_FREE:
        # no --sigma here, but the library still takes sigma: the sweep sets
        # the handler's fixed sigma instead
        i = argv.index("--sigma")
        sigma, argv = float(argv[i + 1]), argv[:i] + argv[i + 2:]
        monkeypatch.setattr(cli, "_SIGMA_GOLDEN", sigma)
        monkeypatch.setattr(cli, "_SIGMA_UNIT", sigma)
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails here
    assert code in (0, 2), err
    assert re.search(r"\b(?:inf|nan)\b", out, re.IGNORECASE) is None, out
    if argv[0] == "rate":  # every rate field is nonzero unless it underflowed
        assert all("0" not in row for row in parse_csv(out)[1:]), out


def _far_x_argvs():
    # up to far above the mode, where exp(-x), y^(1/t) and the Maxwell
    # density's z * z leave the float range
    for x in ("50", "800", "1e40", "1e100", "1e200", "1e300"):
        for t in ("0.1", "0.5", "1", "2", "3"):
            for kind in ("cdf", "pdf"):
                yield ["table", "--kind", kind, "--t", t, "--x", x]
                yield ["rate", "--kind", kind, "--t", t, "--x", x]
                yield ["plot-data", "--kind", kind, "--n", "500", "--t", t, "--x-grid", x]
            if t != "2":
                yield ["adjudicate", "--t", t, "--x-grid", x]
        yield ["compare-schemes", "--x", x]
        yield ["compare-hall", "--x", x]


@pytest.mark.parametrize("argv", list(_far_x_argvs()), ids=" ".join)
def test_extreme_x_sweep_prints_finite_values_or_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails here
    assert code in (0, 2), err
    assert re.search(r"\b(?:inf|nan)\b", out, re.IGNORECASE) is None, out
    assert "must be finite" not in err, err


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _readme_calls():
    # the README's CLI calls, imported from the benchmark as its CI step does,
    # so that the two lists cannot drift apart
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import CLI_COMMANDS
    finally:
        sys.path.remove(str(BENCH))
    return CLI_COMMANDS


README_CALLS = _readme_calls()


@pytest.mark.parametrize("name, argv", README_CALLS, ids=[name for name, _ in README_CALLS])
def test_readme_call_prints_its_expected_bytes(capsys, name, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (BENCH / "expected" / f"{name}.out").read_bytes()


def _readme_examples():
    """The argv of every `maxext ...` line in README.md's sh blocks, comments dropped."""
    text = (BENCH.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("maxext ")]


def test_readme_examples_parse(capsys):
    # parsed, not run, so an option removed from the CLI cannot linger in the docs
    examples = _readme_examples()
    assert len(examples) >= len(README_CALLS)
    bad = []
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            bad.append(argv)
    assert bad == [], capsys.readouterr().err


def _row_formatters(tree):
    """(line, function) of every `_fmt` use or `",".join` outside `_csv` in one module."""
    found = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        if scope == "_csv":
            continue
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == "_fmt")
                    or (isinstance(node, ast.Attribute) and node.attr == "join"
                        and isinstance(node.value, ast.Constant) and node.value.value == ",")):
                found.append((node.lineno, scope))
    return found


def test_the_row_scan_flags_formatting_outside_the_writer():
    tree = ast.parse("def _csv(h, rows):\n    return [h, ','.join(map(_fmt, rows))]\n"
                     "def _cmd_a(args):\n    return ','.join([_fmt(1)])\n"
                     "def _cmd_b(args):\n    return '\\n'.join(_csv('a', []))\n")
    assert _row_formatters(tree) == [(4, "_cmd_a"), (4, "_cmd_a")]


def test_only_the_row_writer_formats_cli_rows():
    assert _row_formatters(ast.parse(pathlib.Path(cli.__file__).read_text())) == []
