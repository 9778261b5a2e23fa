"""CLI fuzz: random argv over every subcommand's options never ends in a traceback.

Each call sets a random subset of one subcommand's options, each to a valid
value or to an awkward one (0, negative, NaN, inf, 1e400, empty, not a
number). Every option meets every awkward value at least once, next to
random values of the others. Whatever the mix, `cli.main` must return 0, 1
(usage error) or 2 (domain error), let no exception escape and print no
traceback. The options are read from the parser itself, so a new option
needs a pool of valid values below before this test passes.

Those calls write `--opt=value`, which only argparse reads. The plain
reader, `cli._read_plain`, meets space-separated argvs: valid and awkward
values, values that start with a minus, repeated and undeclared options,
help and odd token counts. For each it must return None or exactly the
namespace of `cli.build_parser().parse_args`.
"""
import argparse
import random

import pytest

from maxext import cli

AWKWARD = ["0", "-1", "nan", "inf", "-inf", "1e400", "-1e400", "", "abc"]

# valid values per option, small enough that every call takes milliseconds
# (simulate's default reps is 10**4, so its n stays small)
VALID = {
    "n": ["3", "10", "50"],
    "sigma": ["1", "2", "0.5", "1e-3"],
    "t": ["1", "2", "3", "0.5"],
    "x": ["0.7", "-1", "5"],
    "n_grid": ["1e4,1e6,1e8", "1e3,1e6", "1e10,1e200,1e300"],
    "x_grid": ["-1,0,1", "0.7", "-3,2.5,8"],
    "reps": ["1", "5", "50"],
    "seed": ["0", "7", str(2**128 - 1)],
}
RANDOM_CASES = 10  # per subcommand, on top of one per (option, awkward value)


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _argvs(name, subparser, rng, paths):
    """(option, value) pools of the subcommand, then its argvs as lists of strings."""
    pools = {}
    for action in subparser._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if action.dest == "output":  # written to: only the test's own paths
            valid, awkward = ["", paths[0]], paths[1:]
        else:
            valid = list(action.choices or VALID[action.dest])
            awkward = AWKWARD
        pools[action.option_strings[0]] = (action.required, valid, awkward)

    def argv(fixed=None):
        out = [name]
        for option, (required, valid, awkward) in pools.items():
            if fixed and option == fixed[0]:
                value = fixed[1]
            elif rng.random() < (0.9 if required else 0.5):
                value = rng.choice(awkward if rng.random() < 0.2 else valid)
            else:
                continue
            out.append(f"{option}={value}")
        return out

    for option, (_, _, awkward) in pools.items():
        for value in awkward:
            yield argv((option, value))
    for _ in range(RANDOM_CASES):
        yield argv()


@pytest.mark.parametrize("name", list(_subcommands()))
def test_random_argv_exits_0_1_or_2_without_traceback(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    # a file, a directory and a path under a missing directory
    paths = [str(tmp_path / "out.csv"), str(tmp_path), str(tmp_path / "missing" / "out.csv")]
    rng = random.Random(f"maxext-cli-fuzz-{name}")
    failures = []
    for argv in _argvs(name, _subcommands()[name], rng, paths):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure sought
            failures.append(f"{argv}: {type(exc).__name__}: {exc}")
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            failures.append(f"{argv}: exit {code}: {err[-300:]}")
    assert not failures, "\n".join(failures)


# values that start with a minus: argparse reads the first four as values
# (negative numbers) and the others as options
DASHED = ["-1", "-.5", "-1e-3", "-1,0,1", "-", "-x", "--", "-h", "--help", "- 1", "-1=2",
          "-.", "--n"]
# option tokens that no subcommand reads as one of its own options
UNDECLARED = ["-h", "--help", "--bogus", "--n-g", "--x-", "-n", "--", "--n=3", "--sigma"]
OUTPUTS = ["out.csv", "", "-1.csv", "a b"]
PLAIN_CASES = 20_000
# edge cases each worth one argv, not left to chance
PLAIN_FIXED = [
    [], ["-h"], ["bn"], ["bn", "-h"], ["bn", "--n"], ["bn", "--sigma", "2"], ["bn", "--n=3"],
    ["bn", "--n", "3", "--n", "1e3"], ["bn", "--n", "2.5", "--n", "3"],
    ["bn", "--n", "3", "--n", "2.5"], ["table", "--x", "-1e-3"], ["table", "--x", "-"],
    ["table", "--x", "- 1"], ["table", "--x", "--"],
    ["table", "--kind", "pdf", "--kind", "cdf"], ["table", "--kind", "CDF"],
    ["plot-data", "--n", "500", "--x-grid", "-1,0,1"], ["plot-data", "--n", "500", "--x", "1"],
    ["adjudicate", "--x", "1"], ["simulate", "--n", "3", "--output", "-1.csv"],
]


def _plain_pools():
    """{subcommand: {option: valid values}}, read from the parser itself."""
    return {name: {action.option_strings[0]: list(action.choices or VALID.get(action.dest, OUTPUTS))
                   for action in subparser._actions
                   if action.option_strings and not isinstance(action, argparse._HelpAction)}
            for name, subparser in _subcommands().items()}


def _space_separated_argvs(rng, count):
    pools = _plain_pools()
    names = list(pools)
    for _ in range(count):
        name = rng.choice(names if rng.random() < 0.95 else ["nope", "-h", "--help", ""])
        options = pools.get(name, {})
        argv = [name]
        if "--n" in options and rng.random() < 0.9:  # the required option, most of the time
            argv += ["--n", rng.choice(options["--n"])]
        for _ in range(rng.randrange(4)):
            declared = options and rng.random() < 0.92
            option = rng.choice(list(options)) if declared else rng.choice(UNDECLARED)
            r = rng.random()
            pool = options[option] if declared and r < 0.75 else AWKWARD if r < 0.9 else DASHED
            argv += [option, rng.choice(pool)]
        if rng.random() < 0.1:  # an option given twice
            argv += argv[-2:] if len(argv) > 2 else []
        if rng.random() < 0.05:  # an odd token count
            argv.pop(rng.randrange(len(argv)))
        yield argv


def test_plain_reader_builds_the_parsers_namespace_or_none(capsys):
    parser = cli.build_parser()
    rng = random.Random("maxext-cli-plain-reader")
    accepted, failures = 0, []
    for argv in [*PLAIN_FIXED, *_space_separated_argvs(rng, PLAIN_CASES)]:
        plain = cli._read_plain(argv)
        if plain is None:
            continue
        accepted += 1
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit as exc:
            expected = f"exit {exc.code}: {capsys.readouterr().err}"
        if vars(plain) != expected:
            failures.append(f"{argv}: {vars(plain)} != {expected}")
    assert not failures, "\n".join(failures[:20])
    assert accepted > PLAIN_CASES // 20  # the check reached the reader's namespaces
