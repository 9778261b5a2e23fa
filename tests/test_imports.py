"""Import contract: the analytic layers and CLI paths load neither numpy nor scipy.

`maxext` is a lazy namespace: `import maxext` loads no submodule, and each
CLI subcommand loads only the modules it runs, so no analytic call loads
`maxext.montecarlo`, and `bn` and `constants` (whose `auto` scheme rule is
`norming.default_scheme`) load neither it nor `maxext.exact`.

numpy is needed only for sampling and ks_distance, and scipy only for
`maxwell.tail_remainder`; each is imported on first use. The line fits of
`rate` and `adjudicate` are solved in exact integer arithmetic and need
neither. The records are NamedTuples, so no call loads `dataclasses` (nor
the `inspect` it imports), and `fractions` loads only to read a typed
`--n-grid` exactly: the default grids are ints.
The check runs in a fresh interpreter, because this test process has both
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


LAZY = ("dataclasses", "inspect", "fractions")
assert loaded() == loaded(LAZY) == [], (loaded(), loaded(LAZY))
for argv in (["table", "--kind", "cdf"], ["bn", "--n", "25"], ["constants", "--n", "25"],
             ["rate", "--t", "2"], ["compare-schemes"], ["compare-hall"], ["adjudicate"],
             ["plot-data", "--n", "500"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert loaded() == loaded(LAZY) == [], (argv, loaded(), loaded(LAZY))
    assert "maxext.montecarlo" not in sys.modules, argv
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["rate", "--t", "1", "--n-grid", "1e4,1e300"]) == 0
assert out.getvalue().splitlines()[2].startswith(str(10**300) + ","), out.getvalue()
assert loaded(LAZY) == ["fractions"], loaded(LAZY)
from maxext.montecarlo import SimulationConfig, simulate_powered_maxima

assert loaded() == [] and loaded(("dataclasses", "inspect")) == [], (loaded(), loaded(LAZY))
simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
assert loaded() == ["numpy"], loaded()
maxwell.tail_remainder(10.0, maxwell.MaxwellParams(1.0))
assert loaded() == ["numpy", "scipy"], loaded()
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


SERIAL_SCRIPT = r'''
import sys

from maxext.montecarlo import SimulationConfig, simulate_powered_maxima

simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
before = set(sys.modules)
# below the thread thresholds on n and on draws per worker: the rep loop
# runs in the calling thread
simulate_powered_maxima(SimulationConfig(n=1000, t=2.0, sigma=1.0, reps=200, seed=7,
                                         scheme="square-optimal"))
simulate_powered_maxima(SimulationConfig(n=2**12, t=1.0, sigma=1.0, reps=2, seed=7))
assert set(sys.modules) == before, sorted(set(sys.modules) - before)
assert "concurrent.futures" not in sys.modules
print("ok")
'''


def test_serial_simulate_imports_nothing_new():
    _run_fresh(SERIAL_SCRIPT)
