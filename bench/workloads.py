"""The benchmark's four workloads.

Each workload is a closed loop run by one process: operation i + 1 starts
when operation i has finished. Operation i is a pure function of the
benchmark seed and i, so a traced replay of the first k operations repeats
exactly the work an untraced run did.

Layer predictions (which layer metric should move which end-to-end metric):

* cli-cold: cli.spawn_s and cli.import_*_s move op_p50_ref and
  op_tail_ref here, and setup_s on every workload; cli.compute_s moves
  them only slightly.
* analytic-sweep: the self times of special, maxwell (survival),
  norming.solve_bn, expansions and exact move op_*_ref and work_per_ref.
  solve_bn is called again for the same n by different tasks, so a cache
  would show here.
* mc-large-n: maxwell.sample self time and variates move op_*_ref and
  work_per_ref (Maxwell variates per reference time).
* mc-many-reps: montecarlo.simulate self time (substreams and the rep loop)
  and montecarlo.ks_distance move op_*_ref and work_per_ref.

The analytic layers should not move the mc-* workloads, which call
solve_bn once per operation; the sampling layers should not move
analytic-sweep; import changes should move only cli-cold and setup_s.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

# Calls go through the module attributes, so that a tracer that replaces
# them sees the benchmark's own calls into each layer.
from maxext import cli, exact, expansions, maxwell, montecarlo, norming, special

from metrics import timed

HERE = os.path.dirname(os.path.abspath(__file__))
POWERS = (1.0, 2.0, 3.0)


def _numpy_maxima(n: int, reps: int) -> list:
    root = np.random.Philox(key=12345)
    return [np.random.Generator(root.jumped(i)).chisquare(3.0, size=n).max() for i in range(reps)]


@dataclass(frozen=True)
class _Point:
    x: float
    weight: float


def _point_term(p: _Point) -> float:
    z = p.x
    sf = math.erfc(z / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * z * math.exp(-0.5 * z * z)
    return math.exp(200.0 * math.log1p(-sf)) * p.weight


def _scalar_reference() -> float:
    return sum(_point_term(_Point(1.0 + i * 1e-3, 1.0 / (1.0 + i))) for i in range(6_000))


class Workload:
    """Operations, output checks and work accounting of one workload."""

    name = ""
    cycle = 1        # operations after which the mix of inputs repeats
    op_unit = ""     # what one operation is, for the named report

    def setup(self, root: str, seed: int) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict, i: int):
        raise NotImplementedError

    def run_traced(self, inputs: dict, i: int, tracer):
        """(wall seconds, result) of operation i with every layer traced."""
        with tracer:
            return timed(self.run, inputs, i)

    def check(self, inputs: dict, i: int, result) -> str | None:
        """None if the result is correct, else what is wrong with it."""
        raise NotImplementedError

    def work(self, inputs: dict, result, op_s: float) -> tuple[float, float]:
        """(units of work, seconds spent on them) for the work rate."""
        return 1.0, op_s

    def reference(self, inputs: dict) -> float:
        """Seconds of a fixed reference computation that uses nothing from maxext.

        Timed next to each operation, it measures how fast the shared
        machine runs at that moment; operation times are reported as
        multiples of it, which removes most of the drift in machine speed
        between runs, provided the reference does the same kind of work as
        the operation.
        """
        raise NotImplementedError

    def named(self, op_p50, op_tail, work_per_s) -> dict:
        """The generic metrics under this workload's own names, with units."""
        return {}


# --------------------------------------------------------------- cli-cold

# The README's example invocations; simulate is shrunk and plot-data writes
# to stdout so that every call's output can be compared byte for byte.
CLI_COMMANDS = (
    ("table-cdf", ["table", "--kind", "cdf"]),
    ("table-pdf", ["table", "--kind", "pdf"]),
    ("table-t1-asymptotic", ["table", "--t", "1", "--convention", "asymptotic"]),
    ("bn", ["bn", "--n", "25", "--sigma", "2"]),
    ("constants", ["constants", "--n", "25", "--sigma", "2", "--t", "2"]),
    ("rate", ["rate", "--t", "2"]),
    ("compare-schemes", ["compare-schemes"]),
    ("compare-hall", ["compare-hall"]),
    ("adjudicate", ["adjudicate"]),
    ("simulate", ["simulate", "--n", "1000", "--t", "2", "--reps", "200", "--seed", "7"]),
    ("plot-data", ["plot-data", "--kind", "cdf", "--n", "500"]),
)
EXPECTED_DIR = os.path.join(HERE, "expected")


def child_env(root: str) -> dict:
    """Environment for a fresh interpreter that imports maxext from the checkout."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: str, env: dict, argv, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "maxext", *argv], cwd=root, env=env,
                          capture_output=True, timeout=120, check=False)


class CliCold(Workload):
    name = "cli-cold"
    cycle = len(CLI_COMMANDS)
    op_unit = "CLI call in a fresh interpreter"

    def setup(self, root, seed):
        order = list(CLI_COMMANDS)
        random.Random(seed).shuffle(order)
        expected = {}
        for name, _ in CLI_COMMANDS:
            with open(os.path.join(EXPECTED_DIR, name + ".out"), "rb") as fh:
                expected[name] = fh.read()
        return {"root": root, "env": child_env(root), "order": order, "expected": expected}

    def run(self, inputs, i):
        name, argv = inputs["order"][i % self.cycle]
        return {"name": name, "proc": run_cli(inputs["root"], inputs["env"], argv)}

    def reference(self, inputs):
        # A fresh interpreter importing numpy: start-up and import work like a
        # CLI call's, which CPU-bound work does not track.
        return timed(subprocess.run, [sys.executable, "-c", "import numpy"],
                      cwd=inputs["root"], capture_output=True, timeout=120, check=True)[0]

    def run_traced(self, inputs, i, tracer):
        # A CLI call is traced by its interpreter's import timer; its compute
        # is traced by calling cli.main in this process under the tracer.
        name, argv = inputs["order"][i % self.cycle]
        wall, proc = timed(run_cli, inputs["root"], inputs["env"], argv, ("-X", "importtime"))
        buf = io.StringIO()
        with tracer, contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return wall, {"name": name, "proc": proc, "in_process": (code, buf.getvalue())}

    def check(self, inputs, i, result):
        name, proc = result["name"], result["proc"]
        expected = inputs["expected"][name]
        if proc.returncode != 0:
            return f"{name}: exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
        if proc.stdout != expected:
            return f"{name}: stdout differs from bench/expected/{name}.out"
        if "in_process" in result:
            code, text = result["in_process"]
            if code != 0 or text.encode() != expected:
                return f"{name}: in-process cli.main output differs (exit {code})"
        return None

    def named(self, op_p50, op_tail, work_per_s):
        return {"cli_call_p50_s": (op_p50, "s"), "cli_call_tail_s": (op_tail, "s")}


# --------------------------------------------------------- analytic-sweep

SIGMA = 2.0
X0 = 0.7
GOLDEN = (
    ("cdf", range(25, 1001, 25), "table1_cdf_errors.csv"),
    ("pdf", range(375, 15001, 375), "table2_pdf_errors.csv"),
)
GOLDEN_TOL = 1e-8
RATE_GRID = (10**4, 10**6, 10**8, 10**10, 10**12)
SCHEME_GRID = (10**3, 10**4, 10**5, 10**6, 10**8, 10**10)
HALL_GRID = (10**3, 10**4, 10**6, 10**8, 10**10)
ADJ_X = tuple(-1.0 + 0.25 * k for k in range(17))
ADJ_GRID = (10**6, 10**8, 10**10)
SWEEP_NS = (25, 500, 10**4, 10**6, 10**8, 10**10)
SWEEP_X = tuple(-3.0 + 0.125 * k for k in range(89))
SWEEP_JITTER = 0.05
ORACLE_RTOL = 1e-9


def _load_golden(path):
    with open(path, newline="") as fh:
        return [(int(r["n"]), float(r["err1"]), float(r["err2"]), float(r["err3"]))
                for r in csv.DictReader(fh)]


def _rows(rows):
    return [(r.n, r.err1, r.err2, r.err3) for r in rows]


def _oracle(kind, n, t, xs, pn, sigma):
    """Exact powered law from scipy's Maxwell distribution, vectorized."""
    from scipy.stats import maxwell as scipy_maxwell

    y = pn.c_n * np.asarray(xs) + pn.d_n
    inside = y > 0.0  # below the support edge both laws are zero
    y = np.where(inside, y, 1.0)
    delta = y ** (1.0 / t)
    sf = scipy_maxwell.sf(delta, scale=sigma)
    if kind == "cdf":
        law = np.exp(n * np.log1p(-sf))
    else:
        law = (n * pn.c_n / t * y ** (1.0 / t - 1.0) * np.exp((n - 1) * np.log1p(-sf))
               * scipy_maxwell.pdf(delta, scale=sigma))
    return np.where(inside, law, 0.0)


class AnalyticSweep(Workload):
    name = "analytic-sweep"
    op_unit = "pass over the paper's analytic work"
    evals_per_pass = (4 * len(SWEEP_NS) * len(POWERS) * 2 * len(SWEEP_X)
                      + 4 * sum(len(g) for _, g, _ in GOLDEN) * (1 + len(POWERS)))

    def setup(self, root, seed):
        rng = random.Random(seed)
        xs = tuple(x + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER) for x in SWEEP_X)
        golden = [_load_golden(os.path.join(root, "tests", "data", f)) for _, _, f in GOLDEN]
        return {"xs": xs, "golden": golden, "reference": None, "oracle": None}

    def reference(self, inputs):
        # Small objects and scalar function calls, like the analytic layers.
        return timed(_scalar_reference)[0]

    def run(self, inputs, i):
        xs = inputs["xs"]
        out = {
            "golden": [_rows(exact.error_table(kind, 2.0, X0, SIGMA, grid))
                       for kind, grid, _ in GOLDEN],
            "asymptotic": [_rows(exact.error_table(kind, t, X0, SIGMA, grid,
                                                   convention="asymptotic"))
                           for t in POWERS for kind, grid, _ in GOLDEN],
            "rate": [exact.rate_diagnostic("cdf", t, X0, SIGMA, RATE_GRID) for t in POWERS],
            "schemes": exact.compare_schemes(X0, 1.0, SCHEME_GRID),
            "hall": exact.hall_rate_check(X0, 1.0, HALL_GRID),
            "adjudicate": exact.adjudicate_density_coeffs(1.0, ADJ_X, 1.0, ADJ_GRID),
        }
        p = maxwell.MaxwellParams(SIGMA)
        sweeps = []
        for n in SWEEP_NS:
            for t in POWERS:
                scheme = exact.default_scheme(t)
                base = norming.solve_bn(n, SIGMA)
                pn = norming.powered_constants(base, t, scheme)
                for kind, law, approx in (
                        ("cdf", exact.exact_powered_cdf, expansions.cdf_approx),
                        ("pdf", exact.exact_powered_pdf, expansions.pdf_approx)):
                    values = [(law(n, t, x, pn, p, below_support="zero"),
                               approx(1, t, x, base, scheme), approx(2, t, x, base, scheme),
                               approx(3, t, x, base, scheme)) for x in xs]
                    sweeps.append((kind, n, t, pn, values))
        out["sweeps"] = sweeps
        return out

    def check(self, inputs, i, result):
        for (kind, _, _), rows, golden in zip(GOLDEN, result["golden"], inputs["golden"]):
            if [r[0] for r in rows] != [g[0] for g in golden]:
                return f"golden {kind} table: n column differs"
            worst = max(abs(a - b) for r, g in zip(rows, golden) for a, b in zip(r[1:], g[1:]))
            if not worst <= GOLDEN_TOL:
                return f"golden {kind} table deviates by {worst:.3g} > {GOLDEN_TOL:g}"
        if inputs["oracle"] is None:
            inputs["oracle"] = [_oracle(kind, n, t, inputs["xs"], pn, SIGMA)
                                for kind, n, t, pn, _ in result["sweeps"]]
        for (kind, n, t, _, values), oracle in zip(result["sweeps"], inputs["oracle"]):
            got = np.array(values)
            if not np.isfinite(got).all():
                return f"{kind} sweep n={n} t={t:g}: non-finite value"
            if not np.allclose(got[:, 0], oracle, rtol=ORACLE_RTOL, atol=0.0):
                worst = float(np.max(np.abs(got[:, 0] - oracle)
                                     / np.maximum(np.abs(oracle), 1e-300)))
                return f"{kind} sweep n={n} t={t:g}: exact law off scipy's by {worst:.3g}"
        comparable = {k: v for k, v in result.items() if k != "sweeps"}
        comparable["sweeps"] = [(kind, n, t, values)
                                for kind, n, t, _, values in result["sweeps"]]
        if inputs["reference"] is None:
            inputs["reference"] = comparable
        elif comparable != inputs["reference"]:
            return "pass output differs from the first pass of this run"
        return None

    def work(self, inputs, result, op_s):
        return float(self.evals_per_pass), op_s

    def named(self, op_p50, op_tail, work_per_s):
        return {"sweep_evals_per_s": (work_per_s, "1/s"),
                "sweep_pass_p50_ms": (op_p50 * 1e3, "ms"),
                "sweep_pass_tail_ms": (op_tail * 1e3, "ms")}


# ---------------------------------------------------------------- mc-*

# A correct sampler fails one KS test against the exact law with this
# probability; a run makes at most a few hundred tests, so it fails a run of
# correct code by chance about once in ten thousand.
KS_ALPHA = 1e-6
PIT_BINS = 64


class MonteCarlo(Workload):
    cycle = len(POWERS)
    op_unit = "simulate_powered_maxima plus ks_distance"

    def __init__(self, name: str, n: int, reps: int):
        self.name, self.n, self.reps = name, n, reps

    def setup(self, root, seed):
        # Counts of the exact cdf at every sample of the operations checked
        # so far, in equal bins of [0, 1].
        return {"seed": int(seed) % 2**64, "pit": np.zeros(PIT_BINS), "checked": set()}

    def config(self, inputs, i) -> montecarlo.SimulationConfig:
        t = POWERS[i % self.cycle]
        return montecarlo.SimulationConfig(n=self.n, t=t, sigma=1.0, reps=self.reps,
                                           seed=inputs["seed"] * 2**20 + i,
                                           scheme=exact.default_scheme(t))

    def reference(self, inputs):
        # A tenth of the operation's sampling done by numpy alone: one jumped
        # Philox substream and n chi-square(3) draws per repetition.
        return timed(_numpy_maxima, self.n, self.reps // 10)[0]

    def run(self, inputs, i):
        cfg = self.config(inputs, i)
        simulate_s, values = timed(montecarlo.simulate_powered_maxima, cfg)
        ks = montecarlo.ks_distance(values, special.gumbel_cdf)
        return {"cfg": cfg, "values": values, "ks": ks, "simulate_s": simulate_s}

    def check(self, inputs, i, result):
        from scipy.stats import chisquare, kstest, kstwo

        cfg, values = result["cfg"], result["values"]
        if values.shape != (cfg.reps,) or not np.isfinite(values).all():
            return f"op {i}: expected {cfg.reps} finite values"
        gumbel = kstest(values, lambda x: np.exp(-np.exp(-x))).statistic
        if not abs(result["ks"] - gumbel) <= 1e-12:
            return f"op {i}: ks_distance {result['ks']!r} != scipy's {gumbel!r}"
        pn = norming.powered_constants(norming.solve_bn(cfg.n, cfg.sigma), cfg.t, cfg.scheme)
        p = maxwell.MaxwellParams(cfg.sigma)
        # Under the exact law the cdf values of the samples are uniform. One
        # operation's are tested by KS; those of all operations of the run
        # are pooled in a histogram, which catches a bias too small for one
        # operation's samples to show.
        pit = np.array([exact.exact_powered_cdf(cfg.n, cfg.t, float(v), pn, p) for v in values])
        d = kstest(pit, "uniform").statistic
        pvalue = float(kstwo.sf(d, pit.size))
        if not pvalue >= KS_ALPHA:
            return (f"op {i}: t={cfg.t:g}: KS distance {d:.4g} to the exact law "
                    f"has p = {pvalue:.3g} < {KS_ALPHA:g}")
        if i not in inputs["checked"]:
            inputs["checked"].add(i)
            bins = np.minimum((pit * PIT_BINS).astype(int), PIT_BINS - 1)
            inputs["pit"] += np.bincount(bins, minlength=PIT_BINS)
        pvalue = float(chisquare(inputs["pit"]).pvalue)
        if not pvalue >= KS_ALPHA:
            return (f"op {i}: the exact-law cdf values of the run's {int(inputs['pit'].sum())} "
                    f"samples are not uniform: chi-square p = {pvalue:.3g} < {KS_ALPHA:g}")
        return None

    def work(self, inputs, result, op_s):
        return float(self.n * self.reps), result["simulate_s"]

    def named(self, op_p50, op_tail, work_per_s):
        return {"mc_variates_per_s": (work_per_s, "1/s"),
                "mc_reps_per_s": (work_per_s / self.n, "1/s"),
                "mc_verify_p50_s": (op_p50, "s"),
                "mc_verify_tail_s": (op_tail, "s")}


WORKLOADS = {w.name: w for w in (
    CliCold(),
    AnalyticSweep(),
    MonteCarlo("mc-large-n", n=10_000, reps=250),
    MonteCarlo("mc-many-reps", n=50, reps=5_000),
)}
