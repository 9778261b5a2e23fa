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
chi-square(3) as twice Gamma(3/2) (``chisquare(3)`` is ``2.0 *
standard_gamma(1.5)``), so these are the draws `maxwell.sample` would make
from the same stream, and a Maxwell variate is sigma * sqrt(2 g). Once per
block, `_row_maxima` roots each row's largest draw: doubling is exact, sqrt is
correctly rounded and the multiplication by sigma rounds monotonically, so
sigma * sqrt(2 max g) has exactly the bits of the largest of the n variates,
and one root per row replaces two passes over all n draws. The power and the
norming are then applied to each maximum as a Python float, because numpy's
array power does not round like the scalar power for t != 1 (numpy 2.4). The
bytes are those of ``maxwell.sample(substream(seed, i), p, n).max()`` for each
rep i.

A chunk of reps fills one block, ``_BLOCK_SIZE // (n * workers)`` rows. Where
n exceeds a worker's share ``_BLOCK_SIZE // workers``, a chunk is one rep,
drawn into one row of that share, refilled until it has all n, the row
keeping the running maximum; numpy's draws continue the stream from one call
to the next, so the bits are those of one call of size n. From n =
``_THREAD_MIN_N`` up there is one worker per CPU the process may run on (never
more than reps, nor so many that one makes fewer than ``_THREAD_MIN_DRAWS``
draws): the calling thread, and one plain thread for each further one. Each
builds its own generator and block, then takes chunks from one shared, locked
queue until none is left or a worker has raised or the caller was interrupted;
numpy releases the GIL while it draws. The call returns or raises only once no
thread is inside a chunk. It counts the threads that take chunks, since an
interrupt inside `Thread.start` can leave one started but unrecorded, and then
raises the first error a thread stored, unless its own draws raised first.
A chunk's maxima land at their reps' indices, so the bytes are the same for
any number of threads and any order of finishing.
Below either threshold, or on one CPU, the calling thread is the one worker.

numpy is imported inside the functions that use it, once per call, so
importing this module (and the CLI's analytic subcommands) does not load it.

`SimulationConfig` checks reps and seed, and the rest through solve_bn and
powered_constants, whenever one is built, `_replace` included. A bad field is
a DomainError (n < 3 a NoRootError); only a scheme that does not fit t is a
ConfigurationError.
"""
from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DomainError, _domain_error, _integer, _real
from .norming import Scheme, powered_constants, solve_bn

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimulationConfig", "simulate_powered_maxima", "ks_distance", "substream"]


class SimulationConfig(NamedTuple("SimulationConfig", [
        ("n", int), ("t", float), ("sigma", float), ("reps", int), ("seed", int),
        ("scheme", Scheme)])):
    """Inputs of one simulation run; fully determines its output.

    Built through its run's powered_constants(solve_bn(n, sigma), t, scheme), so a
    config that could not run is refused; reps and seed are stored as ints.
    """

    __slots__ = ()

    def __new__(cls, n: int, t: float, sigma: float, reps: int, seed: int,
                scheme: Scheme = Scheme.GENERAL_POWER):
        reps, seed = _integer(reps, "reps"), _integer(seed, "seed")
        if reps < 1:
            raise _domain_error("reps", ">= 1", reps)
        if not 0 <= seed < 2**128:
            raise _domain_error("seed", "in [0, 2**128)", seed)
        base = solve_bn(n, sigma)
        pn = powered_constants(base, t, scheme)
        return super().__new__(cls, base.n, pn.t, base.sigma, reps, seed, pn.scheme)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


# Largest number of float64 draws held at once by `simulate_powered_maxima`
# (512 KiB), summed over its threads, for every n.
_BLOCK_SIZE = 2**16

# Smallest n at which `simulate_powered_maxima` splits reps across threads; below it
# each rep's repositioning, which holds the GIL, outweighs its draws. Two workers
# took 1.80x the serial time at n = 128 and 1.01-1.05x from 256 to 448, but 0.62-0.84x
# at 512 and 0.67-0.77x from 640 to 1000 (2 cores, medians of 8-20 alternating rounds).
_THREAD_MIN_N = 2**9

# Fewest draws each thread of `simulate_powered_maxima` must make: fewer workers
# are used where n * reps would give one of them less. At n = 384 to 4096, two
# workers took 1.20-1.66x the serial time at 2**14 draws each, 0.88-1.14x from 20480
# to 24576 and 0.62-0.81x from 2**15 to 2**17 (2 cores, medians of 8-15 rounds).
_THREAD_MIN_DRAWS = 2**15


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


def _row_maxima(block: np.ndarray, sigma: float) -> np.ndarray:
    """Per row of a block of Gamma(3/2) draws, the largest Maxwell variate."""
    # ``** 0.5`` runs numpy's sqrt loop: the bits of np.sqrt, without importing numpy here
    return sigma * (2.0 * block.max(axis=1)) ** 0.5


def _draw_chunks(seed: int, n: int, rows: int, width: int, sigma: float,
                 take: Callable[[], int | None], maxima: list[float]) -> None:
    """Write the largest Maxwell variate of rep i to maxima[i], a chunk at a time.

    A chunk is reps [start, start + rows) for each start `take` returns until
    None. The generator and the rows-by-`width` block are built once per worker.
    """
    import numpy as np

    bits = np.random.Philox(key=seed)
    gamma = np.random.Generator(bits).standard_gamma
    # A fresh state also carries an empty output buffer, so assigning it before
    # each rep starts that rep exactly where substream(seed, i) would.
    state = bits.state
    words = state["state"]
    words["key"] = words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    block = np.empty((min(rows, len(maxima)), width))
    block_rows = list(block)  # row views, made once for all chunks
    while (start := take()) is not None:
        stop = min(start + rows, len(maxima))
        for i, row in zip(range(start, stop), block_rows):
            words["counter"] = _counter(i)
            bits.state = state
            gamma(1.5, out=row)
        for done in range(width, n, width):  # n > width: the chunk's one rep, refilled to n
            top = row.max()
            gamma(1.5, out=row[: n - done])  # continues the stream where the last part stopped
            row[0] = max(row[0], top)  # carries the maximum; no stale draw exceeds top
        maxima[start:stop] = _row_maxima(block[: stop - start], sigma).tolist()


def simulate_powered_maxima(cfg: SimulationConfig) -> np.ndarray:
    """reps values of (M_n^t - d_n) / c_n, one per substream, in rep order."""
    import numpy as np

    pn = powered_constants(solve_bn(cfg.n, cfg.sigma), cfg.t, cfg.scheme)
    n, reps, t, d, c = cfg.n, cfg.reps, cfg.t, pn.d_n, pn.c_n
    workers = (max(1, min(_cpus(), reps, n * reps // _THREAD_MIN_DRAWS))
               if n >= _THREAD_MIN_N else 1)
    budget = _BLOCK_SIZE // workers
    rows = max(1, budget // n)  # n > budget: a chunk is one rep, drawn budget at a time
    maxima, starts = [0.0] * reps, iter(range(0, reps, rows))
    args = (cfg.seed, n, rows, min(n, budget), cfg.sigma)
    lock = threading.Condition()
    # working: extra threads that may take a chunk. The caller is not counted: an
    # interrupt inside its own count would leave the wait below hanging for ever.
    halted, working, errors = False, 0, []

    def take() -> int | None:
        with lock:
            return None if halted else next(starts, None)

    def work() -> None:  # an extra thread's body
        nonlocal halted, working
        with lock:
            if halted:
                return
            working += 1
        try:
            _draw_chunks(*args, take, maxima)
        except BaseException as error:
            with lock:
                halted = True  # no chunk starts after a thread's error
                errors.append(error)
        finally:
            with lock:
                working -= 1
                lock.notify_all()

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        _draw_chunks(*args, take, maxima)
    finally:
        with lock:  # nor after the caller's error or an interrupt; each thread ends its chunk
            halted = True
            lock.wait_for(lambda: not working)  # also a thread whose start() was interrupted
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    try:
        return np.array([(m ** t - d) / c for m in maxima])
    except OverflowError:  # float ** float raises instead of returning inf
        raise DomainError(
            f"a sampled maximum to the power t = {t} overflows; use a smaller t") from None


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
