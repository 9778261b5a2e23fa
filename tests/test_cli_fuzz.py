"""CLI fuzz: random argv over every subcommand's options never ends in a traceback.

Each call sets a random subset of one subcommand's options, each to a valid
value or to an awkward one (0, negative, NaN, inf, 1e400, empty, not a
number). Every option meets every awkward value at least once, next to
random values of the others. Whatever the mix, `cli.main` must return 0, 1
(usage error) or 2 (domain error), let no exception escape and print no
traceback. The options are read from the parser itself, so a new option
needs a pool of valid values below before this test passes.
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
