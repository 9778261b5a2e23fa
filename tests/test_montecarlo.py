"""Simulation determinism, substream independence, and KS machinery."""
import math
import signal
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstwo

from maxext import montecarlo
from maxext.errors import ConfigurationError, DomainError
from maxext.exact import exact_powered_cdf
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
    # a bad field is a DomainError, as everywhere; only a scheme that does
    # not fit t is a ConfigurationError
    with pytest.raises(DomainError):
        SimulationConfig(n=2, t=1.0, sigma=1.0, reps=10, seed=0)
    with pytest.raises(DomainError):
        SimulationConfig(n=10, t=1.0, sigma=1.0, reps=0, seed=0)
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError, match=field):
        SimulationConfig(**kwargs)


@pytest.mark.parametrize("field, value", [("n", 100.0), ("reps", np.float64(4.0)), ("seed", 1.0)])
def test_config_accepts_integral_floats_as_ints(field, value):
    kwargs = dict(n=10, t=1.0, sigma=1.0, reps=10, seed=0)
    cfg = SimulationConfig(**{**kwargs, field: value})
    assert cfg == SimulationConfig(**{**kwargs, field: int(value)})
    assert type(getattr(cfg, field)) is int


@pytest.mark.parametrize("sigma", ["1", True, None, 1j, math.nan,
                                   pytest.param(10**400, id="10**400")])
def test_config_rejects_non_real_sigma(sigma):
    with pytest.raises(DomainError, match="sigma"):
        SimulationConfig(n=10, t=1.0, sigma=sigma, reps=1, seed=0)


@pytest.mark.parametrize("field, value", [("n", -10**400), ("reps", -10**400),
                                          ("seed", 10**400), ("seed", -10**400)],
                         ids=["n", "reps", "seed-above", "seed-below"])
def test_config_range_messages_stay_short(field, value):
    kwargs = dict(n=10, t=1.0, sigma=1.0, reps=1, seed=0)
    with pytest.raises(DomainError, match=field) as info:
        SimulationConfig(**{**kwargs, field: value})
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("n, t, sigma, message", [
    (10, 1.0, 1e-160, "sigma^2 must be a normal finite float, got sigma = 1e-160"),
    (10, 1.0, 1e160, "sigma^2 must be a normal finite float, got sigma = 1e+160"),
    (100, 700.0, 1.0, "powered constants out of range at b_n = 3.342481841609628, t = 700.0: "
                      "c_n = inf, d_n = inf; need 2.2250738585072014e-308 <= c_n and both finite"),
], ids=["sigma-1e-160", "sigma-1e160", "n-100-t-700"])
def test_config_that_cannot_run_is_refused_when_built(n, t, sigma, message):
    # the DomainError a run of such a config would raise, raised by the config itself
    with pytest.raises(DomainError) as info:
        SimulationConfig(n=n, t=t, sigma=sigma, reps=1, seed=0)
    assert str(info.value) == message


def test_config_seed_bounds_inclusive():
    SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=0)
    SimulationConfig(n=10, t=1.0, sigma=1.0, reps=1, seed=2**128 - 1)


@pytest.mark.parametrize("sigma", [0.7, 1.0, 2.5, 1e-3])
@pytest.mark.parametrize("n", [3, 50, 10_000])
def test_sample_max_is_max_of_sample(n, sigma):
    # chi-square(3) is twice Gamma(3/2) on the same stream, and the root is
    # taken after the maximum: same bits as the maximum of `sample`
    p = MaxwellParams(sigma)
    seeds = (0, 7, 2**64 + 3)
    gamma = np.array([np.random.default_rng(s).standard_gamma(1.5, size=n) for s in seeds])
    got = montecarlo._row_maxima(gamma, sigma).tolist()
    assert got == [sample(np.random.default_rng(s), p, size=n).max() for s in seeds]
    assert all(type(m) is float for m in got)


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


@pytest.mark.parametrize("n, reps, cpus, workers", [
    # below either threshold, or on one CPU, the calling thread is the one worker
    (2**9 - 1, 300, 7, 1),
    (2**9, 10, 1, 1),
    (2**9, 2, 7, 1),
    (2**9, 10, 3, 1),
    (2**12, 2, 7, 1),
    (2**9, 2**7 - 1, 7, 1),
    # never more workers than reps
    (2**16, 2, 7, 2),
    (2**15, 10, 3, 3),
    # never fewer than 2**15 draws per worker
    (2**9, 2**7, 7, 2),
    (2**13, 12, 7, 3),
])
def test_workers_share_the_reps(monkeypatch, n, reps, cpus, workers):
    lock = threading.Lock()
    runs, drawn = [], []
    draw_chunks, counter = montecarlo._draw_chunks, montecarlo._counter

    def spy_draw_chunks(*args):
        with lock:
            runs.append(threading.current_thread() is threading.main_thread())
        return draw_chunks(*args)

    def spy_counter(rep):
        with lock:
            drawn.append(rep)
        return counter(rep)

    monkeypatch.setattr(montecarlo, "_cpus", lambda: cpus)
    monkeypatch.setattr(montecarlo, "_draw_chunks", spy_draw_chunks)
    monkeypatch.setattr(montecarlo, "_counter", spy_counter)
    simulate_powered_maxima(SimulationConfig(n=n, t=1.0, sigma=1.0, reps=reps, seed=5))
    assert sorted(runs) == [False] * (workers - 1) + [True]  # the caller draws too
    assert sorted(drawn) == list(range(reps))  # every rep drawn exactly once


def test_worker_error_reaches_caller(monkeypatch, capsys, force_workers):
    # the first block to be rooted, in whichever worker gets there first, fails
    force_workers(3)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    lock = threading.Lock()
    calls = []
    row_maxima = montecarlo._row_maxima

    def failing(block, sigma):
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if first:
            raise RuntimeError("worker failed")
        return row_maxima(block, sigma)

    monkeypatch.setattr(montecarlo, "_row_maxima", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="worker failed"):
        simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=150, seed=1))
    assert [th for th in threading.enumerate() if th not in before] == []
    assert hooked == []
    assert capsys.readouterr().err == ""


def test_caller_error_waits_for_the_drawing_worker(monkeypatch, capsys, force_workers):
    # the calling thread's rooting fails while the other worker is inside its own
    force_workers(2)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    drawing, raised, row_maxima = threading.Event(), threading.Event(), montecarlo._row_maxima

    def failing_on_main(block, sigma):
        if threading.current_thread() is threading.main_thread():
            assert drawing.wait(10)
            raised.set()
            raise RuntimeError("caller failed")
        drawing.set()
        raised.wait(10)
        return row_maxima(block, sigma)

    monkeypatch.setattr(montecarlo, "_row_maxima", failing_on_main)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="caller failed"):
        simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=150, seed=1))
    assert raised.is_set()
    assert [th for th in threading.enumerate() if th not in before] == []
    assert hooked == []
    assert capsys.readouterr().err == ""


def _rooted_chunks(monkeypatch, first):
    """The last rep of each chunk rooted, in the order they finish.

    The first rooting to start calls first() before it roots its chunk.
    """
    lock, last, started, finished = threading.Lock(), threading.local(), [], []
    counter, row_maxima = montecarlo._counter, montecarlo._row_maxima

    def spy_counter(rep):
        last.rep = rep
        return counter(rep)

    def spy_row_maxima(block, sigma):
        with lock:
            started.append(None)
            is_first = len(started) == 1
        if is_first:
            first()
        out = row_maxima(block, sigma)
        with lock:
            finished.append(last.rep)
        return out

    monkeypatch.setattr(montecarlo, "_counter", spy_counter)
    monkeypatch.setattr(montecarlo, "_row_maxima", spy_row_maxima)
    return finished


def test_simulate_matches_jumped_oracle_when_chunks_finish_out_of_order(monkeypatch,
                                                                        force_workers):
    # 150 reps in chunks of 32 (two workers share 2**16 draws at n = 1000):
    # the first chunk to be rooted is held back while the other worker roots the rest
    force_workers(2)
    finished = _rooted_chunks(monkeypatch, lambda: time.sleep(0.2))
    cfg = SimulationConfig(n=1000, t=2.5, sigma=1.7, reps=150, seed=2**64 + 3)
    got = simulate_powered_maxima(cfg)
    assert sorted(finished) == [31, 63, 95, 127, 149] != finished
    assert np.array_equal(got, _jumped_oracle(cfg))


def test_worker_error_stops_the_queue(monkeypatch, force_workers):
    # 5 chunks of 32 as above; after the first fails, the other worker ends the
    # chunk in hand and takes no other
    force_workers(2)

    def fail():
        raise RuntimeError("worker failed")

    finished = _rooted_chunks(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="worker failed"):
        simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=150, seed=1))
    assert len(finished) < 4


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_caller_interrupt_stops_the_queue(monkeypatch, force_workers):
    # a signal to the caller raises there, while it waits on a worker or starts
    # one; 2000 reps make 63 chunks of 32
    force_workers(2)
    main = threading.main_thread().ident

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGUSR1, interrupt)
    try:
        finished = _rooted_chunks(monkeypatch,
                                  lambda: signal.pthread_kill(main, signal.SIGUSR1))
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=2000, seed=1))
    finally:
        signal.signal(signal.SIGUSR1, previous)
    for th in set(threading.enumerate()) - before:  # idle, if any: none is drawing
        th.join(10)
        assert not th.is_alive()
    assert len(finished) < 63


def test_interrupt_inside_thread_start_waits_for_the_unrecorded_worker(monkeypatch,
                                                                      force_workers):
    # Thread.start raises once its worker has taken a chunk, so the caller never
    # records (nor joins) that thread; the call must still wait for the chunk
    force_workers(2)
    lock, taken, inside = threading.Lock(), threading.Event(), []
    start, row_maxima = threading.Thread.start, montecarlo._row_maxima

    def interrupted_start(self):
        start(self)
        monkeypatch.setattr(threading.Thread, "start", start)
        taken.wait(10)
        raise KeyboardInterrupt

    def slow_row_maxima(block, sigma):
        with lock:
            inside.append(None)
        taken.set()
        time.sleep(0.1)  # the caller, unless it waits, raises well within this
        out = row_maxima(block, sigma)
        with lock:
            inside.pop()
        return out

    monkeypatch.setattr(threading.Thread, "start", interrupted_start)
    monkeypatch.setattr(montecarlo, "_row_maxima", slow_row_maxima)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        simulate_powered_maxima(SimulationConfig(n=1000, t=1.0, sigma=1.0, reps=150, seed=1))
    with lock:
        assert inside == []  # no worker is drawing once the call has raised
    for th in set(threading.enumerate()) - before:
        th.join(10)
        assert not th.is_alive()


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


def test_a_maximum_whose_power_overflows_is_domain_error():
    # b_3^570 is finite, so the constants exist, but a sampled maximum far
    # enough above b_3 overflows at that power
    cfg = SimulationConfig(n=3, t=570.0, sigma=1.0, reps=2000, seed=0)
    with pytest.raises(DomainError, match=r"^a sampled maximum to the power t = 570\.0 overflows"):
        simulate_powered_maxima(cfg)


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


def test_ks_distance_finds_nan_in_a_float64_array():
    # a float64 array skips the per-value check, so the NaN is found after the sort
    with pytest.raises(DomainError, match="^ks_distance: NaN in sample$"):
        ks_distance(np.array([np.nan, 1.0]), gumbel_cdf)


def test_ks_distance_rejects_a_ragged_reference():
    # sequences of different lengths make no array: numpy raises ValueError
    with pytest.raises(DomainError, match="reference cdf"):
        ks_distance([0.1, 0.5, 2.0], lambda x: [0.5] * (1 + (x > 1.0)))


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


# simulate against the exact finite-n law F(c_n y + d_n)^n, not the Gumbel
# limit, whose bias at these n is larger than the KS noise. For a fixed
# (n, seed) the KS distance is the same at every t and sigma (the
# normalization is monotone and sigma is a pure scale), so the cases vary n
# and the seed. Each group holds a family-wise level FAMILY_ALPHA (Bonferroni).
FAMILY_ALPHA = 1e-3
NULL_CASES = [(n, reps, seed) for n, reps in ((3, 10**4), (100, 10**4), (10**4, 200))
              for seed in (1, 2, 3)]
# sampled at n, tested against the law at law_n under the same constants
WRONG_N_CASES = [(3, 4, 2000), (10, 11, 10**4), (100, 110, 5000)]


def _exact_law_p_value(n, reps, seed, law_n):
    cfg = SimulationConfig(n=n, t=1.0, sigma=1.0, reps=reps, seed=seed)
    pn = powered_constants(solve_bn(n, 1.0), cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    d = ks_distance(simulate_powered_maxima(cfg),
                    lambda y: exact_powered_cdf(law_n, cfg.t, y, pn, p, below_support="zero"))
    return kstwo.sf(d, reps)


@pytest.mark.parametrize("n, reps, seed", NULL_CASES)
def test_simulate_follows_the_exact_finite_n_law(n, reps, seed):
    assert _exact_law_p_value(n, reps, seed, n) > FAMILY_ALPHA / len(NULL_CASES)


@pytest.mark.parametrize("n, law_n, reps", WRONG_N_CASES)
def test_exact_law_check_rejects_a_wrong_n(n, law_n, reps):
    assert _exact_law_p_value(n, reps, 1, law_n) < FAMILY_ALPHA / len(WRONG_N_CASES)
