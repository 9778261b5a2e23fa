"""Tests of the benchmark's own logic: span arithmetic, the tail rule,
failure counting, import-time parsing and the tracer's wrapping.

Run from the root of a checkout with `PYTHONPATH=src python -m pytest -q bench`.
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from metrics import Tally, import_seconds, tail  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ["exact.error_table", 0.0, 10.0, -1],
        ["norming.solve_bn", 1.0, 4.0, 0],
        ["special.erfc", 2.0, 3.0, 1],
        ["maxwell.survival", 5.0, 7.0, 0],
        ["special.erfc", 5.5, 6.0, 3],
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 3 - 1, 1, 2 - 0.5, 0.5])


def test_self_time_clips_and_merges_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 2.0, 6.0, 0],
        ["c", 4.0, 8.0, 0],    # overlaps b: the union 2..8 is covered once
        ["d", 9.0, 12.0, 0],   # runs past the parent's end: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_layer_metrics_are_per_operation():
    spans = [
        ["montecarlo.ks_distance", 0.0, 4.0, -1],
        ["special.gumbel_cdf", 1.0, 2.0, 0],
        ["special.gumbel_cdf", 2.0, 3.0, 0],
        ["montecarlo.simulate_powered_maxima", 4.0, 10.0, -1],
        ["norming.solve_bn", 4.0, 5.0, 3],
        ["maxwell.sample", 5.0, 9.0, 3],
    ]
    m = layer_metrics(spans, {"maxwell.sample.variates": 100, "montecarlo.substreams": 4}, ops=2)
    assert m["special.calls"] == 1.0
    assert m["special.self_s"] == pytest.approx(1.0)
    assert m["montecarlo.ks_distance.self_s"] == pytest.approx(1.0)
    assert m["montecarlo.ks_distance.reference_calls"] == 1.0
    assert m["montecarlo.simulate.self_s"] == pytest.approx(0.5)
    assert m["maxwell.sample.self_s"] == pytest.approx(2.0)
    assert m["maxwell.sample.variates"] == 50.0
    assert m["montecarlo.substreams"] == 2.0
    assert m["norming.solve_bn.calls"] == 0.5
    assert m["cli.compute_s"] == 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 101)) == (90, 90.0, 100)
    value, percentile, count = tail([5.0] * 20 + [1.0])
    assert (value, count) == (5.0, 21) and percentile == pytest.approx(100 * 11 / 21)
    # with ten samples or fewer no percentile qualifies: the maximum stands in
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail([])


class _Flaky:
    """Operation 1 raises, 2 fails its check, 3 has a check that raises."""

    def run(self, inputs, i):
        if i == 1:
            raise ArithmeticError("boom")
        return i

    def check(self, inputs, i, result):
        if i == 3:
            raise KeyError("check")
        return "wrong" if i == 2 else None

    def work(self, inputs, result, op_s):
        return 1.0, op_s

    def reference(self, inputs):
        return 1.0


def test_failures_are_counted_once_per_operation():
    tally = Tally()
    done = [run.run_op(_Flaky(), {}, i, tally) for i in range(5)]
    assert tally.attempted == 5
    assert tally.failed == 3
    assert tally.ratio == pytest.approx(0.6)
    assert done[1] is None and done[0] is not None and done[2] is not None
    assert len(tally.errors) == 3 and "ArithmeticError" in tally.errors[0]


def test_import_seconds_sums_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.ma",
        "import time:       400 |        450 |     scipy",
        "import time:        10 |        460 |   scipy.special",
        "import time:        40 |        800 | maxext",
        "import time:         5 |          5 | json",
    ])
    assert import_seconds(stderr, "numpy") == pytest.approx(300e-6 + 50e-6)
    assert import_seconds(stderr, "scipy") == pytest.approx(460e-6)
    assert import_seconds(stderr, "maxext") == pytest.approx(800e-6)
    assert import_seconds(stderr, "matplotlib") == 0.0


def test_tracer_wraps_reexported_names_and_restores_them():
    from maxext import expansions, maxwell, norming, special
    from maxext.norming import Scheme

    original = special.gumbel_cdf
    assert expansions.gumbel_cdf is original
    tracer = Tracer()
    with tracer:
        assert expansions.gumbel_cdf is special.gumbel_cdf is not original
        base = norming.solve_bn(100, 1.0)
        expansions.cdf_approx(2, 2.0, 0.5, base, Scheme.SQUARE_OPTIMAL)
        maxwell.survival(3.0, maxwell.MaxwellParams(1.0))
    assert special.gumbel_cdf is original and expansions.gumbel_cdf is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "norming.solve_bn"
    approx = names.index("expansions.cdf_approx")
    children = [s[0] for s in tracer.spans if s[3] == approx]
    assert "special.gumbel_cdf" in children and "norming.validate_scheme" in children
    assert "special.erfc" in names[names.index("maxwell.survival"):]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
