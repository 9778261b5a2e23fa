"""Run one workload of the maxext benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0

Workloads: cli-cold, analytic-sweep, mc-large-n, mc-many-reps (see
workloads.py for what each runs and why). With --trace 0 the run measures
the end-to-end metrics with tracing off; with --trace 1 it measures the
per-layer metrics instead, from spans recorded around every call into the
package's layers. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The line before it, starting with
"details:", records the environment, the seed, the sample counts, the
failed ratio and the workload's metrics under their own names, in seconds
(cli_call_p50_s, sweep_pass_p50_ms, mc_verify_p50_s, ...). Each run also
writes that record, and for a traced run its spans, to bench/out/.

The end-to-end metrics are the same for every workload. setup_s is the
median time a fresh interpreter takes to import maxext and build the
workload's inputs. Operation times are divided by the time of a fixed
reference computation run next to each operation (Workload.reference), so
op_p50_ref and op_tail_ref are multiples of it and work_per_ref is work
units per reference time: on a shared machine whose speed drifts between
runs, these ratios stay steady where seconds do not. The tail is the
highest percentile with at least ten operations beyond it.

The benchmark's own tests run with `PYTHONPATH=src python -m pytest -q bench`.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from metrics import Tally, environment, import_seconds, median, peak_rss_mb, tail, timed
from spans import NAME, START, END, PARENT, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

PROBES = 7                # fresh interpreters per run for setup and spawn times
UNTRACED_SHARE = 0.25     # share of --seconds a traced run spends untraced
SPAN_CAP = 100_000        # a traced run stops replaying cycles beyond this many spans

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "work_per_ref": "1/ref",
}
PER_LAYER = {
    "cli.spawn_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_maxext_s": "s",
    "cli.compute_s": "s",
    "special.calls": "count",
    "special.self_s": "s",
    "maxwell.survival.calls": "count",
    "maxwell.self_s": "s",
    "norming.solve_bn.calls": "count",
    "norming.solve_bn.self_s": "s",
    "expansions.calls": "count",
    "expansions.self_s": "s",
    "exact.calls": "count",
    "exact.self_s": "s",
    "maxwell.sample.calls": "count",
    "maxwell.sample.variates": "count",
    "maxwell.sample.self_s": "s",
    "montecarlo.simulate.self_s": "s",
    "montecarlo.substreams": "count",
    "montecarlo.ks_distance.self_s": "s",
    "montecarlo.ks_distance.reference_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import maxext and build the workload's inputs, print the time."""
    start = time.perf_counter()
    import maxext  # noqa: F401  (the import is what is being timed)
    import workloads

    workloads.WORKLOADS[workload].setup(ROOT, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_probe(workload: str, seed: int, flags=()) -> tuple[float, str]:
    proc = subprocess.run(
        [sys.executable, *flags, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"], proc.stderr


def run_op(wl, inputs, i, tally, tracer=None):
    """Run operation i, time the reference right after it, then check the result.

    Returns (operation seconds, reference seconds, (work units, work
    seconds)), or None if the operation raised. A raising operation and a
    failed check each count as one failed operation.
    """
    try:
        if tracer is None:
            op_s, result = timed(wl.run, inputs, i)
        else:
            op_s, result = wl.run_traced(inputs, i, tracer)
    except Exception as exc:  # a raising operation is a counted failure
        tally.add(f"op {i}: {type(exc).__name__}: {exc}")
        return None
    ref_s = wl.reference(inputs)
    try:
        error = wl.check(inputs, i, result)
    except Exception as exc:  # so is a check that cannot complete
        error = f"op {i}: check raised {type(exc).__name__}: {exc}"
    tally.add(error)
    return op_s, ref_s, wl.work(inputs, result, op_s)


def end_to_end(wl, inputs, args, tally, details):
    run_op(wl, inputs, 0, tally)  # warm-up: lazy set-up and caches, not timed
    before = wl.reference(inputs)
    setups, times, refs, rel = [], [], [], []
    units = work_s = work_ref = 0.0
    start = time.perf_counter()
    probing = 0.0  # time spent in set-up probes, which does not count as measuring
    i = 0
    while (elapsed := time.perf_counter() - start - probing) < args.seconds:
        # Set-up probes are spread over the run, between operations, so that
        # their median does not hang on the machine's speed in one moment.
        if len(setups) < PROBES and elapsed >= len(setups) * args.seconds / PROBES:
            probe_s, (setup_s, _) = timed(run_probe, wl.name, args.seed)
            setups.append(setup_s)
            before = wl.reference(inputs)
            probing += probe_s
            continue
        done = run_op(wl, inputs, i, tally)
        i += 1
        if done is None:
            before = wl.reference(inputs)
        else:
            op_s, after, (op_units, op_work_s) = done
            ref, before = 0.5 * (before + after), after
            times.append(op_s)
            refs.append(ref)
            rel.append(op_s / ref)
            units += op_units
            work_s += op_work_s
            work_ref += op_work_s / ref
    if not times:
        raise RuntimeError("no operation completed")
    tail_rel, percentile, count = tail(rel)
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ref": median(rel),
        "op_tail_ref": tail_rel,
        "work_per_ref": units / work_ref,
    }
    details["samples"] = {"setup_probes": len(setups), "ops": count}
    details["op_tail_percentile"] = percentile
    details["reference_p50_s"] = median(refs)
    details["named"] = {k: {"value": v, "unit": u} for k, (v, u) in
                        wl.named(median(times), tail(times)[0], units / work_s).items()}
    return values, {"op_times": times, "reference_times": refs}


def per_layer(wl, inputs, args, tally, details):
    spawn = [timed(subprocess.run, [sys.executable, "-c", "pass"], check=True)[0]
             for _ in range(PROBES)]
    imports = [run_probe(wl.name, args.seed, ("-X", "importtime"))[1] for _ in range(PROBES)]
    run_op(wl, inputs, 0, tally)  # warm-up, as in the untraced run

    # Operation times over the reference time next to them, keyed by index:
    # whole cycles untraced, then as many of the same cycles traced.
    untraced: dict[int, float] = {}
    start = time.perf_counter()
    i = 0
    while i == 0 or i % wl.cycle or time.perf_counter() - start < args.seconds * UNTRACED_SHARE:
        done = run_op(wl, inputs, i, tally)
        if done is not None:
            untraced[i] = done[0] / done[1]
        i += 1

    tracer = Tracer()
    traced: dict[int, float] = {}
    k = 0
    while k < i and (k % wl.cycle or len(tracer.spans) < SPAN_CAP):
        done = run_op(wl, inputs, k, tally, tracer)
        if done is not None:
            traced[k] = done[0] / done[1]
        k += 1
    both = [j for j in traced if j in untraced]
    values = {
        "cli.spawn_s": median(spawn),
        "cli.import_numpy_s": median(import_seconds(e, "numpy") for e in imports),
        "cli.import_scipy_s": median(import_seconds(e, "scipy") for e in imports),
        "cli.import_maxext_s": median(import_seconds(e, "maxext") for e in imports),
        **layer_metrics(tracer.spans, tracer.counts, k),
        "trace.overhead_ratio": (sum(traced[j] for j in both)
                                 / sum(untraced[j] for j in both)),
    }
    details["samples"] = {"spawn_probes": len(spawn), "import_probes": len(imports),
                          "untraced_ops": len(untraced), "traced_ops": k,
                          "spans": len(tracer.spans)}
    return values, tracer.spans


def spans_record(spans) -> dict:
    """Spans as rows of name index, start and end in microseconds from the
    first span, and parent row (-1 for none)."""
    if not spans:
        return {"span_names": [], "spans": []}
    names = sorted({s[NAME] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = spans[0][START]
    return {"span_names": names, "spans": [
        [index[s[NAME]], round((s[START] - t0) * 1e6, 3), round((s[END] - t0) * 1e6, 3),
         s[PARENT]] for s in spans]}


def write_record(args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maxext", "__init__.py")):
        print(f"bench: no maxext package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import maxext
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(maxext.__file__))) != SRC:
        print(f"bench: imported maxext from {maxext.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = wl.setup(ROOT, args.seed)
    tally = Tally()
    details = {"workload": wl.name, "operation": wl.op_unit, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "env": environment(ROOT)}
    if args.trace:
        values, spans = per_layer(wl, inputs, args, tally, details)
        units, raw = PER_LAYER, spans_record(spans)
    else:
        values, raw = end_to_end(wl, inputs, args, tally, details)
        units = END_TO_END
    details["samples"]["attempted"] = tally.attempted
    details["failed_ratio"] = tally.ratio
    details["failures"] = tally.errors
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    write_record(args, {"details": details, "metrics": metrics, **raw})
    print("details: " + json.dumps(details))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
