"""CLI behaviour: CSV contracts, exit codes, and thin-orchestration checks."""
import csv
import io
import math
import re

import pytest

from maxext import exact
from maxext.cli import main
from maxext.maxwell import MaxwellParams
from maxext.norming import Scheme, powered_constants, solve_bn


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


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


def test_domain_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "bn", "--n", "2")
    assert code == 2 and "n" in err
    code, out, err = run_cli(capsys, "table", "--t", "1", "--convention", "tabulated",
                             "--n-start", "25", "--n-end", "50", "--n-step", "25")
    assert code == 2
    code, out, err = run_cli(capsys, "constants", "--n", "50", "--t", "2",
                             "--scheme", "general-power")
    assert code == 2
    for seed in ("-1", str(2**128)):
        code, out, err = run_cli(capsys, "simulate", "--n", "10", "--reps", "2", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"maxext simulate: seed must be in [0, 2**128), got {seed}\n"


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "table", "--help")[0] == 0


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
    code, out, _ = run_cli(capsys, "plot-data", "--kind", "cdf", "--n", "3",
                           "--sigma", "1", "--t", "2")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["x", "exact", "order1", "order2", "order3"]
    assert len(rows) == 1 + 221  # x in [-3, 8] step 0.05
    # below the powered support edge the exact column is clamped to zero
    assert float(rows[1][1]) == 0.0
    assert 0.999 < float(rows[-1][1]) <= 1.0


def test_plot_data_is_thin_orchestration(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "--kind", "pdf", "--n", "200",
                           "--sigma", "2", "--t", "2", "--x-min", "0.7",
                           "--x-max", "0.7", "--x-step", "0.05")
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
                           "--x-step", "0.5")
    assert code == 0
    assert "winner: consistent" in out


def test_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bn", "--n", "100")
    path = tmp_path / "bn.csv"
    assert main(["bn", "--n", "100", "--output", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


@pytest.mark.parametrize("argv, option", [
    (["plot-data", "--n", "500", "--x-step", "0"], "--x-step"),
    (["plot-data", "--n", "500", "--x-step", "-0.1"], "--x-step"),
    (["adjudicate", "--x-step", "0"], "--x-step"),
    (["plot-data", "--n", "500", "--x-max", "inf"], "--x-max"),
    (["rate", "--n-grid", "abc"], "--n-grid"),
    (["rate", "--n-grid", "1e4,1e400"], "--n-grid"),
])
def test_bad_option_values_are_usage_errors(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith(f"maxext {argv[0]}: error: argument {option}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["cdf", "pdf"])
@pytest.mark.parametrize("scheme", ["auto", "square-alternative"])
def test_plot_data_far_below_mode(capsys, kind, scheme):
    code, out, err = run_cli(capsys, "plot-data", "--kind", kind, "--scheme", scheme,
                             "--n", "500", "--x-min", "-900", "--x-max", "-890",
                             "--x-step", "5")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [row[0] for row in rows[1:]] == ["-900", "-895", "-890"]
    assert all(value == "0" for row in rows[1:] for value in row[1:])


def test_compare_hall_underflowing_leading_term_is_domain_error(capsys):
    for x in ("-7", "-800"):
        code, out, err = run_cli(capsys, "compare-hall", "--x", x)
        assert code == 2 and out == ""
        assert err.startswith("maxext compare-hall: leading error term underflows")


@pytest.mark.parametrize("argv", [
    ["plot-data", "--n", "500", "--x-min=-1e300", "--x-max", "1e300", "--x-step", "1e-300"],
    ["plot-data", "--n", "500", "--x-min=-1e12", "--x-max", "1e12", "--x-step", "1e-3"],
    ["adjudicate", "--x-min=-1e300", "--x-max", "1e300", "--x-step", "1e-300"],
    ["adjudicate", "--x-min", "0", "--x-max", "1", "--x-step", "9.9e-7"],
])
def test_oversized_x_grid_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (f"maxext {argv[0]}: error: --x-min, --x-max and --x-step "
                   "give more than 1000000 x steps\n")


@pytest.mark.parametrize("argv", [
    ["bn", "--n", "1000", "--sigma", "1e-300"],
    ["bn", "--n", "1000", "--sigma", "1e160"],
    ["constants", "--n", "1000", "--sigma", "1e154"],
    ["simulate", "--n", "100", "--reps", "3", "--sigma", "1e-300"],
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
    ["simulate", "--n", "100", "--reps", "3", "--sigma", "1e-150", "--t", "300"],
])
def test_out_of_range_powered_constants_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"maxext {argv[0]}: powered constants out of range")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["rate", "--t", "2", "--x", "50"], "first-order error is 0 at n = 10000"),
    (["adjudicate", "--n-grid", "1e6,1e6,1e6"], "need 2 or more distinct sample sizes"),
    (["adjudicate", "--x-min", "750", "--x-max", "751", "--x-step", "0.5"],
     "Lambda'(x) underflows to 0 at x = 750.0"),
])
def test_undefined_fit_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"maxext {argv[0]}: {message}") and len(err.splitlines()) == 1


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


def _sweep_argvs():
    # both ends of the solve_bn domain in sigma, and beyond it
    for argv, takes_t in _SWEEP_COMMANDS:
        for sigma in ("1.5e-154", "1e-100", "1e100", "1e152", "1e153"):
            for t in ("1", "2", "3") if takes_t else (None,):
                yield argv + ["--sigma", sigma] + (["--t", t] if t else [])


@pytest.mark.parametrize("argv", list(_sweep_argvs()), ids=" ".join)
def test_extreme_sigma_sweep_prints_finite_values_or_exits_2(capsys, argv):
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
                yield ["plot-data", "--kind", kind, "--n", "500", "--t", t,
                       "--x-min", x, "--x-max", x]
            if t != "2":
                yield ["adjudicate", "--t", t, "--x-min", x, "--x-max", x]
        yield ["compare-schemes", "--x", x]
        yield ["compare-hall", "--x", x]


@pytest.mark.parametrize("argv", list(_far_x_argvs()), ids=" ".join)
def test_extreme_x_sweep_prints_finite_values_or_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)  # an escaping exception fails here
    assert code in (0, 2), err
    assert re.search(r"\b(?:inf|nan)\b", out, re.IGNORECASE) is None, out
    assert "must be finite" not in err, err
