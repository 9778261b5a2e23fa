"""Monte-Carlo verification that normalized powered maxima converge to Gumbel.

Reproducibility contract: rep i draws from the Philox substream
``Philox(key=seed).jumped(i)``, which is ``Philox(key=seed)`` with its 256-bit
counter set to i * 2**128, i.e. counter words ``(0, 0, i, 0)`` for i < 2**64.
Any partitioning of reps across workers therefore produces exactly the serial
results, and identical configs produce bit-identical output on the same build.

`simulate_powered_maxima` keeps its per-rep work to "reposition, then draw
into a row". It repositions a generator to each substream by assigning a
fresh state whose fields are Python lists (numpy's state setter reads lists
faster than arrays) rather than jumping a fresh one, and draws the rep's n
variates as Gamma(3/2) into one row of a reused block. numpy draws
chi-square(3) as twice Gamma(3/2), so these are the draws `maxwell.sample`
would make from the same stream. Once per block, `maxwell.row_maxima` roots
each row's largest draw, which gives the bits of the largest Maxwell
variate; the power and the norming are then applied to each maximum as a
Python float, because numpy's array power does not round like the scalar
power for t != 1 (numpy 2.4). The bytes are those of
``sample(substream(seed, i), p, n).max()`` for each rep i.

From n = ``_THREAD_MIN_N`` up, the reps are split into contiguous ranges, one
per CPU the process may run on (never more than reps, and never so many that
a range holds fewer than ``_THREAD_MIN_DRAWS`` draws), and each range runs
that loop in its own thread with its own generator and block; numpy releases
the GIL while it draws. The blocks share the budget of ``_BLOCK_SIZE``
float64s: each holds ``_BLOCK_SIZE // (n * workers)`` rows of n draws. Where
that is less than one row, each rep is drawn into one row of
``_BLOCK_SIZE // workers`` draws, refilled until it has all n, and its
running maximum is kept; numpy's draws continue the stream from one call to
the next, so the bits are those of one call of size n. Since a
rep's draws depend only on its counter, and the caller joins the ranges in
rep order before it applies the power and the norming, the output bytes are
the same for any number of threads. Below either threshold, and on one CPU,
the loop runs once over all reps in the calling thread.

numpy is imported inside the functions that use it, once per call, so
importing this module (and the CLI's analytic subcommands) does not load it.

`SimulationConfig` is a NamedTuple that checks and converts its fields
whenever one is built, `_replace` included; its range messages shorten a
huge value with reprlib, as errors._real and errors._integer do.
"""
from __future__ import annotations

import os
import reprlib
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import maxwell
from .errors import ConfigurationError, DomainError, _integer, _real
from .maxwell import MaxwellParams
from .norming import Scheme, powered_constants, solve_bn, validate_scheme

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimulationConfig", "simulate_powered_maxima", "ks_distance", "substream"]


class SimulationConfig(NamedTuple("SimulationConfig", [
        ("n", int), ("t", float), ("sigma", float), ("reps", int), ("seed", int),
        ("scheme", Scheme)])):
    """Inputs of one simulation run; fully determines its output.

    n, reps and seed are stored as ints, t and sigma as floats, and scheme as
    a Scheme member.
    """

    __slots__ = ()

    def __new__(cls, n: int, t: float, sigma: float, reps: int, seed: int,
                scheme: Scheme = Scheme.GENERAL_POWER):
        try:
            n, reps, seed = _integer(n, "n"), _integer(reps, "reps"), _integer(seed, "seed")
            sigma = _real(sigma, "sigma", positive=True)
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None
        if n < 3:
            raise ConfigurationError(f"sample size n must be >= 3, got {reprlib.repr(n)}")
        if reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {reprlib.repr(reps)}")
        if not 0 <= seed < 2**128:
            raise ConfigurationError(f"seed must be in [0, 2**128), got {reprlib.repr(seed)}")
        t, scheme = validate_scheme(t, scheme)
        return super().__new__(cls, n, t, sigma, reps, seed, scheme)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


# Largest number of float64 draws held at once by `simulate_powered_maxima`
# (512 KiB), summed over its threads, for every n.
_BLOCK_SIZE = 2**16

# Smallest n at which `simulate_powered_maxima` splits reps across threads.
# Below it each rep's repositioning, which holds the GIL, outweighs its draws:
# on 2 cores (best of 7 runs of 2e6 draws), 2 threads ran 0.64x as fast as
# one at n = 50 and 0.61x at n = 200, but 1.38x at n = 500 and 1.4-2.1x from
# n = 1024 to 10**4.
_THREAD_MIN_N = 2**10

# Fewest draws each thread of `simulate_powered_maxima` must make: fewer
# workers are used where n * reps would give one of them less. Starting and
# joining the threads costs about 0.2 ms warm: on 2 cores (median of 31
# alternating calls at n = 1024, 4096 and 16384), 2 threads ran 0.73-0.90x as
# fast as one at 16384 and 32768 draws each, 0.86-1.38x at 49152, and
# 1.05-1.52x from 65536 to 131072. The first threaded call in a process also
# imports concurrent.futures, about 5 ms.
_THREAD_MIN_DRAWS = 2**16


def _counter(rep: int) -> list[int]:
    """Philox counter words of substream `rep`: the counter ``rep * 2**128``."""
    return [0, 0, rep & (2**64 - 1), rep >> 64]


def substream(seed: int, rep: int) -> np.random.Generator:
    """The documented substream rule: rep i uses Philox(key=seed) jumped i times."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed, counter=_counter(rep)))


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _range_maxima(seed: int, lo: int, hi: int, n: int, budget: int,
                  p: MaxwellParams) -> list[float]:
    """Largest Maxwell variate of each rep in [lo, hi), in rep order.

    Uses its own generator and a block of at most `budget` float64s, so
    ranges can run in parallel threads.
    """
    import numpy as np

    bits = np.random.Philox(key=seed)
    gamma = np.random.Generator(bits).standard_gamma
    # A fresh state also carries an empty output buffer, so assigning it
    # before each rep starts that rep exactly where substream(seed, i) would.
    # Lists, not arrays: the state setter reads them about twice as fast.
    state = bits.state
    words = state["state"]
    words["key"] = words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    rows = budget // n
    if rows == 0:  # n > budget: one row of budget draws, refilled until the rep has n
        row, tops = np.empty(budget), []
        for i in range(lo, hi):
            words["counter"] = _counter(i)
            bits.state = state
            top = 0.0
            for start in range(0, n, budget):
                part = row[: min(budget, n - start)]
                gamma(1.5, out=part)  # continues the stream where the last part stopped
                top = max(top, part.max())
            tops.append(top)
        return maxwell.row_maxima(np.array(tops)[:, None], p).tolist()
    block = np.empty((min(rows, hi - lo), n))
    block_rows = list(block)  # row views, made once for all blocks
    out = []
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        for i, row in zip(range(start, stop), block_rows):
            words["counter"] = _counter(i)
            bits.state = state
            gamma(1.5, out=row)
        out.extend(maxwell.row_maxima(block[: stop - start], p).tolist())
    return out


def simulate_powered_maxima(cfg: SimulationConfig) -> np.ndarray:
    """reps values of (M_n^t - d_n) / c_n, one per substream, in rep order."""
    import numpy as np

    base = solve_bn(cfg.n, cfg.sigma)
    pn = powered_constants(base, cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    n, reps, t, d, c = cfg.n, cfg.reps, cfg.t, pn.d_n, pn.c_n
    workers = 1
    if n >= _THREAD_MIN_N:
        workers = max(1, min(_cpus(), reps, n * reps // _THREAD_MIN_DRAWS))
    budget = _BLOCK_SIZE // workers
    if workers == 1:
        maxima = _range_maxima(cfg.seed, 0, reps, n, budget, p)
    else:
        from concurrent.futures import ThreadPoolExecutor

        bounds = [reps * k // workers for k in range(workers + 1)]
        # leaving the block joins every thread; map raises a worker's error here
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(lambda lo, hi: _range_maxima(cfg.seed, lo, hi, n, budget, p),
                                  bounds[:-1], bounds[1:]))
        maxima = [m for part in parts for m in part]
    return np.array([(m ** t - d) / c for m in maxima])


def ks_distance(samples: Sequence[float], reference: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov distance to a reference cdf.

    DomainError unless the sample is one-dimensional, nonempty and free of
    NaN, each of its values a real that errors._real accepts, and unless every
    value of the reference is a float in [0, 1]. A float64 array, as
    simulate_powered_maxima returns, passes the first check in O(1).
    """
    import numpy as np

    if not (isinstance(samples, np.ndarray) and samples.dtype == np.float64):
        samples = np.asarray(samples, dtype=object)  # keeps each value's own type
        if samples.ndim == 1:
            samples = np.array([_real(v, "ks_distance sample") for v in samples.tolist()],
                               dtype=float)
    if samples.ndim != 1:
        raise DomainError("ks_distance: the sample must be one-dimensional")
    xs = np.sort(samples)
    if xs.size == 0:
        raise DomainError("ks_distance: empty sample")
    if np.isnan(xs).any():
        raise DomainError("ks_distance: NaN in sample")
    values = list(map(reference, xs.tolist()))  # the reference's own errors propagate
    try:  # a str, None, bool or sequence gives another dtype or shape; NaN fails both bounds
        ref = np.array(values)
        ok = ref.dtype.kind in "fiu" and ref.shape == xs.shape and 0 <= ref.min() <= ref.max() <= 1
    except ValueError:  # ragged sequences
        ok = False
    if not ok:
        raise DomainError("ks_distance: the reference cdf must return floats in [0, 1]")
    grid = np.arange(xs.size + 1) / xs.size
    return float(max((grid[1:] - ref).max(), (ref - grid[:-1]).max()))
