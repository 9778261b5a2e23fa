"""Import contract: the analytic layers and CLI paths load no numpy, and nothing loads scipy.

`maxext` is a lazy namespace: `import maxext` loads no submodule, and each
CLI subcommand loads only the modules it runs, so no analytic call loads
`maxext.montecarlo`, and `bn` and `constants` (whose `auto` scheme rule is
`norming.default_scheme`) load neither it nor `maxext.exact`. `simulate` roots
its rows in `montecarlo` itself, so a Monte-Carlo run loads no `maxext.maxwell`.

numpy is needed only for sampling and ks_distance, and is imported on first
use. scipy is not a dependency: maxext runs where it cannot be imported, and
`maxwell.tail_remainder` sums its own quadrature. The line fits of `rate`
and `adjudicate` are solved in exact integer arithmetic and need neither.
The records are NamedTuples, so no call loads `dataclasses` (nor the
`inspect` it imports), nor `fractions`; `decimal` loads only to read an
integer option or `--n-grid` part typed with a point or an exponent, and
`argparse` only for an argv the CLI's plain reader leaves to it (help, a
usage error, `--opt=value`).
Each check runs in a fresh interpreter, because this test process has both
packages loaded already.
"""
import os
import pathlib
import subprocess
import sys

import maxext

SCRIPT = r'''
import contextlib
import io
import sys

import maxext
from maxext import cli, maxwell


def loaded(names=("numpy", "scipy")):
    return sorted({name.split(".")[0] for name in sys.modules} & set(names))


LAZY = ("dataclasses", "inspect", "fractions", "decimal")
assert loaded() == loaded(LAZY) == [], (loaded(), loaded(LAZY))
# the README's ten analytic calls, and integers typed without a point or an exponent
for argv in (["table", "--kind", "cdf"], ["table", "--kind", "pdf"],
             ["table", "--t", "1", "--convention", "asymptotic"],
             ["bn", "--n", "25", "--sigma", "2"],
             ["constants", "--n", "25", "--sigma", "2", "--t", "2"], ["rate", "--t", "2"],
             ["compare-schemes"], ["compare-hall"], ["adjudicate"],
             ["plot-data", "--kind", "cdf", "--n", "500"],
             ["rate", "--n-grid", "10000,100000000"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert loaded() == loaded(LAZY) == [], (argv, loaded(), loaded(LAZY))
    assert "maxext.montecarlo" not in sys.modules, argv
# an integer typed with an exponent is read exactly, through decimal
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["bn", "--n", "1e3"]) == 0
assert loaded(LAZY) == ["decimal"], loaded(LAZY)
# a plain argv is read from the option table; argparse loads only to print
# usage, help or a usage error
assert "argparse" not in sys.modules
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["table", "--bogus"]) == 1
assert "argparse" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["rate", "--t", "1", "--n-grid", "1e4,1e300"]) == 0
assert out.getvalue().splitlines()[2].startswith(str(10**300) + ","), out.getvalue()
from maxext.montecarlo import SimulationConfig, simulate_powered_maxima

assert loaded() == [] and loaded(("dataclasses", "inspect")) == [], (loaded(), loaded(LAZY))
simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
assert loaded() == ["numpy"], loaded()
# a call split over two workers, whatever this host's CPU count, starts one plain
# thread beside the caller and loads no thread pool
import threading

from maxext import montecarlo

montecarlo._cpus = lambda: 2
start, started = threading.Thread.start, []
threading.Thread.start = lambda self: started.append(self) or start(self)
simulate_powered_maxima(SimulationConfig(n=2**10, t=1.0, sigma=1.0, reps=2**7, seed=1))
threading.Thread.start = start
assert len(started) == 1 and "concurrent.futures" not in sys.modules, started
maxwell.tail_remainder(10.0, maxwell.MaxwellParams(1.0))
assert loaded() == ["numpy"], loaded()
print("ok")
'''


def _run_fresh(script):
    src = str(pathlib.Path(maxext.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_numpy_and_scipy_load_only_on_demand():
    _run_fresh(SCRIPT)


NO_SCIPY_SCRIPT = r'''
import contextlib
import io
import sys

sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np

from maxext import cli, maxwell
from maxext.montecarlo import SimulationConfig, ks_distance, simulate_powered_maxima
from maxext.special import gumbel_cdf

p = maxwell.MaxwellParams(2.0)
for x in (0.5, 3.0, 30.0, 3000.0):
    maxwell.pdf(x, p), maxwell.cdf(x, p), maxwell.survival(x, p)
    maxwell.tail_expansion(x, p), maxwell.tail_remainder(x, p)
rng = np.random.default_rng(1)
maxwell.sample(rng, p), maxwell.sample(rng, p, 4)
# the README's ten analytic calls
for argv in (["table", "--kind", "cdf"], ["table", "--kind", "pdf"],
             ["table", "--t", "1", "--convention", "asymptotic"],
             ["bn", "--n", "25", "--sigma", "2"],
             ["constants", "--n", "25", "--sigma", "2", "--t", "2"], ["rate", "--t", "2"],
             ["compare-schemes"], ["compare-hall"], ["adjudicate"],
             ["plot-data", "--kind", "cdf", "--n", "500"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
sample = simulate_powered_maxima(SimulationConfig(n=50, t=1.0, sigma=1.0, reps=20, seed=7))
assert 0.0 < ks_distance(sample, gumbel_cdf) < 1.0
assert sys.modules["scipy"] is None
print("ok")
'''


def test_maxext_runs_where_scipy_cannot_be_imported():
    _run_fresh(NO_SCIPY_SCRIPT)


LAZY_SCRIPT = r'''
import contextlib
import io
import sys

import maxext


def loaded():
    return sorted(name for name in sys.modules if name.startswith("maxext."))


assert loaded() == [], loaded()
try:
    maxext.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name did not raise AttributeError")
assert loaded() == [], loaded()
from maxext import cli

for argv in (["bn", "--n", "25"], ["constants", "--n", "25"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert loaded() == ["maxext.cli", "maxext.errors", "maxext.norming"], (argv, loaded())
assert maxext.exact is sys.modules["maxext.exact"]
assert maxext.exact_powered_cdf is maxext.exact.exact_powered_cdf
assert "maxext.montecarlo" not in sys.modules
print("ok")
'''


def test_import_maxext_loads_no_submodule_and_bn_only_what_it_runs():
    _run_fresh(LAZY_SCRIPT)


def test_lazy_names_are_the_home_modules_objects():
    for name in maxext.__all__[:-1]:  # the last is __version__
        value = getattr(maxext, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    star = {}
    exec("from maxext import *", star)
    assert set(maxext.__all__) <= set(star)
    assert set(maxext.__all__) | {"exact", "montecarlo", "cli"} <= set(dir(maxext))


def test_the_public_names_are_pinned():
    # each name here is a promise; one added or removed is a deliberate API change
    assert sorted(maxext.__all__) == [
        "ConfigurationError", "DiagnosticsError", "DomainError", "ErrorRow",
        "MaxextError", "MaxwellParams", "NoRootError", "NormingBase", "PoweredNorming",
        "Scheme", "SimulationConfig", "__version__", "adjudicate_density_coeffs",
        "cdf_approx", "compare_schemes", "erfc", "error_table", "exact_powered_cdf",
        "exact_powered_pdf", "gumbel_cdf", "gumbel_pdf", "hall_base", "hall_rate_check",
        "ks_distance", "pdf_approx", "powered_constants", "rate_diagnostic",
        "simulate_powered_maxima", "solve_bn",
    ]


SERIAL_SCRIPT = r'''
import sys

from maxext.montecarlo import SimulationConfig, simulate_powered_maxima

simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
# the rows are rooted in montecarlo itself: the Maxwell layer is never loaded
assert "maxext.maxwell" not in sys.modules
before = set(sys.modules)
# below the thread thresholds on n and on draws per worker: the rep loop
# runs in the calling thread
simulate_powered_maxima(SimulationConfig(n=500, t=2.0, sigma=1.0, reps=200, seed=7,
                                         scheme="square-optimal"))
simulate_powered_maxima(SimulationConfig(n=2**12, t=1.0, sigma=1.0, reps=2, seed=7))
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
assert "concurrent.futures" not in sys.modules
print("ok")
'''


def test_serial_simulate_imports_nothing_new():
    _run_fresh(SERIAL_SCRIPT)
