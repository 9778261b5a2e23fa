"""Import contract: the analytic layers and CLI paths load neither numpy nor scipy.

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
from maxext.montecarlo import SimulationConfig, simulate_powered_maxima


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
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["rate", "--t", "1", "--n-grid", "1e4,1e300"]) == 0
assert out.getvalue().splitlines()[2].startswith(str(10**300) + ","), out.getvalue()
assert loaded(LAZY) == ["fractions"], loaded(LAZY)
simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
assert loaded() == ["numpy"], loaded()
maxwell.tail_remainder(10.0, maxwell.MaxwellParams(1.0))
assert loaded() == ["numpy", "scipy"], loaded()
print("ok")
'''


def test_numpy_and_scipy_load_only_on_demand():
    src = str(pathlib.Path(maxext.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


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
    src = str(pathlib.Path(maxext.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SERIAL_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
