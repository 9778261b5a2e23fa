"""Simulation determinism, substream independence, and KS machinery."""
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from maxext import maxwell, montecarlo
from maxext.errors import ConfigurationError, DomainError
from maxext.maxwell import MaxwellParams, sample
from maxext.montecarlo import (
    SimulationConfig,
    ks_distance,
    simulate_powered_maxima,
    substream,
)
from maxext.norming import Scheme, powered_constants, solve_bn
from maxext.special import gumbel_cdf


def _gumbel_quantile(u):
    return -math.log(-math.log(u))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=2, t=1.0, sigma=1.0, reps=10, seed=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, t=1.0, sigma=1.0, reps=0, seed=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, t=1.0, sigma=-1.0, reps=10, seed=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, t=2.0, sigma=1.0, reps=10, seed=0,
                         scheme=Scheme.GENERAL_POWER)
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=10, t=1.0, sigma=1.0, reps=10, seed=0,
                         scheme=Scheme.SQUARE_OPTIMAL)


def test_config_accepts_numpy_integers():
    cfg = SimulationConfig(n=np.int64(10), t=1.0, sigma=1.0, reps=np.int32(4),
                           seed=np.uint64(2**64 - 1))
    assert (cfg.n, cfg.reps, cfg.seed) == (10, 4, 2**64 - 1)
    assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.seed))
    assert np.array_equal(simulate_powered_maxima(cfg), simulate_powered_maxima(
        SimulationConfig(n=10, t=1.0, sigma=1.0, reps=4, seed=2**64 - 1)))


@pytest.mark.parametrize("field, value", [
    ("n", "100"), ("n", True), ("reps", 2.5), ("reps", True),
    ("seed", False), ("seed", -1), ("seed", 2**128),
])
def test_config_rejects_bad_integer_fields(field, value):
    kwargs = dict(n=10, t=1.0, sigma=1.0, reps=10, seed=0)
    kwargs[field] = value
    with pytest.raises(ConfigurationError, match=field):
        SimulationConfig(**kwargs)


@pytest.mark.parametrize("field, value", [("n", 100.0), ("reps", np.float64(4.0)), ("seed", 1.0)])
def test_config_accepts_integral_floats_as_ints(field, value):
    kwargs = dict(n=10, t=1.0, sigma=1.0, reps=10, seed=0)
    cfg = SimulationConfig(**{**kwargs, field: value})
    assert cfg == SimulationConfig(**{**kwargs, field: int(value)})
    assert type(getattr(cfg, field)) is int


@pytest.mark.parametrize("sigma", ["1", True, None, 1j,
                                   pytest.param(10**400, id="10**400")])
def test_config_rejects_non_real_sigma(sigma):
    with pytest.raises(ConfigurationError, match="sigma"):
        SimulationConfig(n=10, t=1.0, sigma=sigma, reps=1, seed=0)


@pytest.mark.parametrize("field, value", [("n", -10**400), ("reps", -10**400),
                                          ("seed", 10**400), ("seed", -10**400)],
                         ids=["n", "reps", "seed-above", "seed-below"])
def test_config_range_messages_stay_short(field, value):
    kwargs = dict(n=10, t=1.0, sigma=1.0, reps=1, seed=0)
    with pytest.raises(ConfigurationError, match=field) as info:
        SimulationConfig(**{**kwargs, field: value})
    assert len(str(info.value)) < 100


def test_config_seed_bounds_inclusive():
    SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=0)
    SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=2**128 - 1)


def _jumped_oracle(cfg):
    # the substream rule as numpy states it: one jumped copy of the root per rep
    base = solve_bn(cfg.n, cfg.sigma)
    pn = powered_constants(base, cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    root = np.random.Philox(key=cfg.seed)
    out = np.empty(cfg.reps)
    for i in range(cfg.reps):
        m = sample(np.random.Generator(root.jumped(i)), p, size=cfg.n).max()
        out[i] = (m**cfg.t - pn.d_n) / pn.c_n
    return out


@pytest.mark.parametrize("n, reps, t, scheme, seed", [
    (3, 1, 1.0, Scheme.GENERAL_POWER, 0),
    (3, 1, 2.0, Scheme.SQUARE_OPTIMAL, 2**128 - 1),
    (3, 1, 3.0, Scheme.GENERAL_POWER, 2**128 - 1),
    (3, 9, 2.0, Scheme.SQUARE_ALTERNATIVE, 0),
    (50, 300, 1.0, Scheme.GENERAL_POWER, 2**63 + 5),
    (1000, 20, 3.0, Scheme.GENERAL_POWER, 2**128 - 1),
    # blocks of 65 rows: 65 + 65 + 20
    (1000, 150, 1.0, Scheme.GENERAL_POWER, 11),
    (10_000, 13, 2.0, Scheme.SQUARE_OPTIMAL, 2**64 + 3),
    # one row per block
    (2**16, 2, 3.0, Scheme.GENERAL_POWER, 0),
    (70_000, 3, 2.0, Scheme.SQUARE_ALTERNATIVE, 2**128 - 1),
])
def test_simulate_matches_jumped_oracle(n, reps, t, scheme, seed):
    cfg = SimulationConfig(n=n, t=t, sigma=1.0, reps=reps, seed=seed, scheme=scheme)
    assert np.array_equal(simulate_powered_maxima(cfg), _jumped_oracle(cfg))


@pytest.mark.parametrize("sigma", [1.7, 1e-3])
@pytest.mark.parametrize("n, reps, t, scheme, seed", [
    (3, 9, 2.0, Scheme.SQUARE_ALTERNATIVE, 2**128 - 1),
    (50, 300, 2.0, Scheme.SQUARE_OPTIMAL, 7),
    (50, 300, 2.5, Scheme.GENERAL_POWER, 2**64 + 3),
    (1000, 20, 3.0, Scheme.GENERAL_POWER, 0),
    (1000, 150, 2.0, Scheme.SQUARE_OPTIMAL, 2**128 - 1),
    (10_000, 13, 2.5, Scheme.GENERAL_POWER, 5),
    (2**16, 2, 1.0, Scheme.GENERAL_POWER, 2**63 + 5),
    (70_000, 3, 3.0, Scheme.GENERAL_POWER, 7),
])
def test_simulate_matches_jumped_oracle_sigma(n, reps, t, scheme, seed, sigma):
    # sigma scales each root after the maximum is taken; the oracle scales every draw
    cfg = SimulationConfig(n=n, t=t, sigma=sigma, reps=reps, seed=seed, scheme=scheme)
    assert np.array_equal(simulate_powered_maxima(cfg), _jumped_oracle(cfg))


@pytest.fixture
def force_workers(monkeypatch):
    """Split reps over k threads from n = 3 up, whatever this host's CPU count."""
    def force(k):
        monkeypatch.setattr(montecarlo, "_cpus", lambda: k)
        monkeypatch.setattr(montecarlo, "_THREAD_MIN_N", 3)
        monkeypatch.setattr(montecarlo, "_THREAD_MIN_DRAWS", 1)
    return force


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("sigma", [1.0, 1.7])
@pytest.mark.parametrize("n, reps, t, scheme, seed", [
    # fewer reps than workers
    (3, 1, 3.0, Scheme.GENERAL_POWER, 2**128 - 1),
    (50, 2, 2.0, Scheme.SQUARE_OPTIMAL, 7),
    # 299 reps split unevenly over 2, 3 and 7 workers
    (50, 299, 2.5, Scheme.GENERAL_POWER, 2**64 + 3),
    # ranges that span several of their worker's blocks
    (1000, 150, 1.0, Scheme.GENERAL_POWER, 11),
    (10_000, 13, 2.0, Scheme.SQUARE_OPTIMAL, 2**64 + 3),
    # one row per block
    (70_000, 3, 2.0, Scheme.SQUARE_ALTERNATIVE, 2**128 - 1),
])
def test_simulate_matches_jumped_oracle_any_workers(force_workers, n, reps, t, scheme,
                                                    seed, sigma, workers):
    force_workers(workers)
    cfg = SimulationConfig(n=n, t=t, sigma=sigma, reps=reps, seed=seed, scheme=scheme)
    assert np.array_equal(simulate_powered_maxima(cfg), _jumped_oracle(cfg))


@pytest.mark.parametrize("n, reps, cpus, ranges", [
    # below either threshold, or on one CPU, every rep runs in the calling thread
    (2**10 - 1, 300, 7, [(0, 300)]),
    (2**10, 10, 1, [(0, 10)]),
    (2**10, 2, 7, [(0, 2)]),
    (2**10, 10, 3, [(0, 10)]),
    (2**12, 2, 7, [(0, 2)]),
    (2**10, 2**7 - 1, 7, [(0, 127)]),
    # never more workers than reps
    (2**16, 2, 7, [(0, 1), (1, 2)]),
    (2**15, 10, 3, [(0, 3), (3, 6), (6, 10)]),
    # never fewer than 2**16 draws per worker
    (2**10, 2**7, 7, [(0, 64), (64, 128)]),
    (2**14, 12, 7, [(0, 4), (4, 8), (8, 12)]),
])
def test_reps_split_into_one_range_per_worker(monkeypatch, n, reps, cpus, ranges):
    calls = []
    range_maxima = montecarlo._range_maxima

    def spy(seed, lo, hi, *args):
        calls.append(((lo, hi), threading.current_thread() is threading.main_thread()))
        return range_maxima(seed, lo, hi, *args)

    monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_range_maxima", spy)
    simulate_powered_maxima(SimulationConfig(n=n, t=1.0, sigma=1.0, reps=reps, seed=5))
    assert sorted(r for r, _ in calls) == ranges
    assert all(main is (len(ranges) == 1) for _, main in calls)


def test_worker_error_reaches_caller(monkeypatch, capsys, force_workers):
    # the first block to be rooted, in whichever worker gets there first, fails
    force_workers(3)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    lock = threading.Lock()
    calls = []
    row_maxima = maxwell.row_maxima

    def failing(block, p):
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            raise RuntimeError("worker failed")
        return row_maxima(block, p)

    monkeypatch.setattr(maxwell, "row_maxima", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="worker failed"):
        simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=150, seed=1))
    assert [th for th in threading.enumerate() if th not in before] == []
    assert hooked == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("t, scheme", [
    (3, Scheme.GENERAL_POWER),
    (2, Scheme.SQUARE_OPTIMAL),
    (np.float64(2.5), Scheme.GENERAL_POWER),
])
def test_config_stores_float_t_and_sigma(t, scheme):
    cfg = SimulationConfig(n=50, t=t, sigma=np.float32(1.5), reps=40, seed=3, scheme=scheme)
    assert type(cfg.t) is float and cfg.t == t
    assert type(cfg.sigma) is float and cfg.sigma == 1.5
    assert np.array_equal(simulate_powered_maxima(cfg), _jumped_oracle(cfg))


def test_simulate_peak_memory_is_one_block():
    # the draws live in one reused block (at most 2**16 float64s), never in
    # a (reps, n) matrix, which here would take 20 MB
    cfg = SimulationConfig(n=10_000, t=1.0, sigma=1.0, reps=250, seed=1)
    simulate_powered_maxima(SimulationConfig(n=10, t=1.0, sigma=1.0, reps=2, seed=1))
    tracemalloc.start()
    try:
        simulate_powered_maxima(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_simulate_peak_memory_is_one_block_across_workers(monkeypatch):
    # four workers share the one block's budget, 2 rows of 2**13 draws each
    # (512 KiB in all); a full block per worker would take 2 MiB
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 4)
    cfg = SimulationConfig(n=2**13, t=1.0, sigma=1.0, reps=250, seed=1)
    simulate_powered_maxima(SimulationConfig(n=2**10, t=1.0, sigma=1.0, reps=2**8, seed=1))
    tracemalloc.start()
    try:
        simulate_powered_maxima(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_draws_a_large_rep_in_chunks_within_budget(monkeypatch, workers):
    # n beyond a worker's share of the block: each rep is drawn a share at a
    # time into one row, with the bits of one draw of all n; a row of n would
    # take 1.5 MiB per worker
    monkeypatch.setattr(montecarlo, "_cpus", lambda: workers)
    n, reps = 3 * 2**16 + 5, 2
    cfg = SimulationConfig(n=n, t=2.5, sigma=1.7, reps=reps, seed=2**64 + 3)
    simulate_powered_maxima(cfg)
    tracemalloc.start()
    try:
        got = simulate_powered_maxima(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    pn = powered_constants(solve_bn(n, cfg.sigma), cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    ref = [(sample(substream(cfg.seed, i), p, size=n).max() ** cfg.t - pn.d_n) / pn.c_n
           for i in range(reps)]
    assert got.tolist() == ref


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**128 - 1])
@pytest.mark.parametrize("rep", [0, 1, 7, 2**64 + 3])
def test_substream_is_jumped_root(seed, rep):
    oracle = np.random.Generator(np.random.Philox(key=seed).jumped(rep))
    rng = substream(seed, rep)
    assert np.array_equal(rng.random(7), oracle.random(7))
    assert np.array_equal(rng.chisquare(3.0, size=5), oracle.chisquare(3.0, size=5))
    assert rng.integers(2**32, size=3).tolist() == oracle.integers(2**32, size=3).tolist()


def test_single_rep_finite():
    cfg = SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=3)
    out = simulate_powered_maxima(cfg)
    assert out.shape == (1,)
    assert math.isfinite(out[0])


def test_deterministic_given_config():
    cfg = SimulationConfig(n=50, t=2.0, sigma=1.5, reps=64, seed=99,
                           scheme=Scheme.SQUARE_OPTIMAL)
    a = simulate_powered_maxima(cfg)
    b = simulate_powered_maxima(cfg)
    assert np.array_equal(a, b)


def test_partition_independence():
    # recomputing any rep through the documented substream rule reproduces the
    # serial run, so splitting reps across workers changes nothing
    cfg = SimulationConfig(n=40, t=1.0, sigma=2.0, reps=32, seed=123)
    serial = simulate_powered_maxima(cfg)
    base = solve_bn(cfg.n, cfg.sigma)
    pn = powered_constants(base, cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    for i in (0, 7, 13, 31):
        rng = substream(cfg.seed, i)
        m = sample(rng, p, size=cfg.n).max()
        assert (m**cfg.t - pn.d_n) / pn.c_n == serial[i]


def test_sigma_scale_equivariance_matched_seeds():
    # the sampler scales by sigma after the draws, so matched seeds give
    # (numerically) identical normalized outputs when sigma doubles
    cfg1 = SimulationConfig(n=100, t=1.0, sigma=1.0, reps=200, seed=2718)
    cfg2 = SimulationConfig(n=100, t=1.0, sigma=2.0, reps=200, seed=2718)
    out1 = simulate_powered_maxima(cfg1)
    out2 = simulate_powered_maxima(cfg2)
    assert np.allclose(out1, out2, rtol=1e-10, atol=1e-10)


def test_ks_distance_inverse_transform_grid():
    n = 500
    samples = [_gumbel_quantile((i + 0.5) / n) for i in range(n)]
    assert ks_distance(samples, gumbel_cdf) <= 1.0 / n


def test_ks_distance_random_gumbel():
    rng = np.random.default_rng(314)
    u = rng.uniform(size=10_000)
    samples = [-math.log(-math.log(v)) for v in u]
    assert ks_distance(samples, gumbel_cdf) <= 0.02


def test_ks_distance_degenerate():
    assert ks_distance([0.5] * 200, gumbel_cdf) >= 0.5
    with pytest.raises(DomainError):
        ks_distance([], gumbel_cdf)
    with pytest.raises(DomainError):
        ks_distance([float("nan")] * 10, gumbel_cdf)


@pytest.mark.parametrize("value", [math.nan, 2.0, -1e-300, "0.5", "a", None, True, 1j,
                                   [0.5, 0.5]])
def test_ks_distance_rejects_a_reference_outside_the_unit_interval(value):
    with pytest.raises(DomainError, match="reference cdf"):
        ks_distance([0.1, 0.5, 2.0], lambda x: value)


@pytest.mark.parametrize("samples", [
    0.5, np.float64(0.5), np.array(0.5), [[0.1, 0.2]], np.zeros((2, 2)), iter([0.5]),
    [0.1, "x"], ["0.5"], np.array(["0.5"]), [True, False], np.array([True]), [None], [1j],
    [10**400], [[0.1], [0.2, 0.3]], [0.1, math.nan],
], ids=["scalar", "float64-scalar", "0-d-array", "2-d-list", "2-d-array", "iterator",
        "str-element", "str-list", "str-array", "bools", "bool-array", "None", "complex",
        "int-beyond-float", "ragged", "nan"])
def test_ks_distance_checks_its_sample(samples):
    with pytest.raises(DomainError, match="sample"):
        ks_distance(samples, gumbel_cdf)


def test_ks_distance_takes_any_real_sequence_as_its_floats():
    want = ks_distance([0.5, 1.0, 2.0], gumbel_cdf)
    for samples in ([0.5, 1, 2.0], (0.5, 1.0, 2.0), np.array([0.5, 1.0, 2.0], dtype=np.float32),
                    [np.float64(0.5), np.int64(1), Fraction(2)]):
        assert ks_distance(samples, gumbel_cdf) == want


def test_ks_distance_takes_a_float64_array_without_a_per_value_check(monkeypatch):
    # simulate_powered_maxima's output, which the mc workloads time
    def no_check(*args):
        raise AssertionError("a float64 sample went through errors._real")

    want = ks_distance([0.5, 1.0, 2.0], gumbel_cdf)
    monkeypatch.setattr(montecarlo, "_real", no_check)
    assert ks_distance(np.array([0.5, 1.0, 2.0]), gumbel_cdf) == want


def test_ks_distance_takes_ints_and_lets_the_reference_raise():
    assert ks_distance([0.5, 1.5], lambda x: int(x >= 1.0)) == 0.5

    def failing(x):
        raise KeyError(x)

    with pytest.raises(KeyError):
        ks_distance([0.5], failing)


def test_ks_decreases_with_n_general_power():
    ks = []
    for n in (100, 10_000):
        cfg = SimulationConfig(n=n, t=1.0, sigma=1.0, reps=4000, seed=1234)
        ks.append(ks_distance(simulate_powered_maxima(cfg), gumbel_cdf))
    assert ks[1] < ks[0]


def test_ks_decreases_with_n_cubed():
    # t in {1, 2} is exercised at full size by the acceptance suite; this
    # covers the remaining power index of the convergence invariant
    ks = []
    for n in (100, 1000, 10_000):
        cfg = SimulationConfig(n=n, t=3.0, sigma=1.0, reps=10_000, seed=205)
        ks.append(ks_distance(simulate_powered_maxima(cfg), gumbel_cdf))
    assert ks[0] > ks[1] > ks[2]
