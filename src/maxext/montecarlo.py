"""Monte-Carlo verification that normalized powered maxima converge to Gumbel.

Reproducibility contract: rep i draws from the Philox substream
``Philox(key=seed).jumped(i)``, which is ``Philox(key=seed)`` with its 256-bit
counter set to i * 2**128, i.e. counter words ``(0, 0, i, 0)`` for i < 2**64.
Any partitioning of reps across workers therefore produces exactly the serial
results, and identical configs produce bit-identical output on the same build.

`simulate_powered_maxima` keeps its per-rep work to "reposition, then draw
into a row". It repositions one generator to each substream by assigning a
fresh state whose fields are Python lists (numpy's state setter reads lists
faster than arrays) rather than jumping a fresh one, and draws the rep's n
variates as Gamma(3/2) into one row of a reused block of at most
``_BLOCK_SIZE`` float64s. numpy draws chi-square(3) as twice Gamma(3/2),
so these are the draws `maxwell.sample` would make from the same stream.
Once per block, `maxwell.row_maxima` roots each row's largest draw, which
gives the bits of the largest Maxwell variate; the power and the norming are
then applied to each maximum as a Python float, because numpy's array power
does not round like the scalar power for t != 1 (numpy 2.4). The bytes are
those of ``sample(substream(seed, i), p, n).max()`` for each rep i.

numpy is imported inside `substream`, `simulate_powered_maxima` and
`ks_distance`, once per call, so importing this module (and the CLI's
analytic subcommands) does not load it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import maxwell
from .errors import ConfigurationError, DomainError
from .maxwell import MaxwellParams, _check_sigma
from .norming import Scheme, powered_constants, solve_bn, validate_scheme

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimulationConfig", "simulate_powered_maxima", "ks_distance", "substream"]


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one simulation run; fully determines its output.

    n, reps and seed are stored as ints, t and sigma as floats, and scheme as
    a Scheme member.
    """

    n: int
    t: float
    sigma: float
    reps: int
    seed: int
    scheme: Scheme = Scheme.GENERAL_POWER

    def __post_init__(self):
        for name in ("n", "reps", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 3:
            raise ConfigurationError(f"sample size n must be >= 3, got {self.n}")
        if self.reps < 1:
            raise ConfigurationError(f"reps must be >= 1, got {self.reps}")
        if not 0 <= self.seed < 2**128:
            raise ConfigurationError(f"seed must be in [0, 2**128), got {self.seed}")
        try:
            object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None
        t, scheme = validate_scheme(self.t, self.scheme)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "scheme", scheme)


# Largest number of float64 draws held at once by `simulate_powered_maxima`
# (512 KiB); a block always holds at least one whole rep.
_BLOCK_SIZE = 2**16


def _counter(rep: int) -> list[int]:
    """Philox counter words of substream `rep`: the counter ``rep * 2**128``."""
    return [0, 0, rep & (2**64 - 1), rep >> 64]


def substream(seed: int, rep: int) -> np.random.Generator:
    """The documented substream rule: rep i uses Philox(key=seed) jumped i times."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed, counter=_counter(rep)))


def simulate_powered_maxima(cfg: SimulationConfig) -> np.ndarray:
    """reps values of (M_n^t - d_n) / c_n, one per substream, in rep order."""
    import numpy as np

    base = solve_bn(cfg.n, cfg.sigma)
    pn = powered_constants(base, cfg.t, cfg.scheme)
    p = MaxwellParams(cfg.sigma)
    bits = np.random.Philox(key=cfg.seed)
    gamma = np.random.Generator(bits).standard_gamma
    # A fresh state also carries an empty output buffer, so assigning it
    # before each rep starts that rep exactly where substream(seed, i) would.
    # Lists, not arrays: the state setter reads them about twice as fast.
    state = bits.state
    words = state["state"]
    words["key"] = words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    n, reps, t, d, c = cfg.n, cfg.reps, cfg.t, pn.d_n, pn.c_n
    rows = max(1, _BLOCK_SIZE // n)
    block = np.empty((min(rows, reps), n))
    block_rows = list(block)  # row views, made once for all blocks
    out = []
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        for i, row in zip(range(lo, hi), block_rows):
            words["counter"] = _counter(i)
            bits.state = state
            gamma(1.5, out=row)
        maxima = maxwell.row_maxima(block[: hi - lo], p).tolist()
        out.extend([(m ** t - d) / c for m in maxima])
    return np.array(out)


def ks_distance(samples: Sequence[float], reference: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov distance to a reference cdf."""
    import numpy as np

    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise DomainError("ks_distance: empty sample")
    if np.isnan(xs).any():
        raise DomainError("ks_distance: NaN in sample")
    ref = np.fromiter(map(reference, xs.tolist()), dtype=float, count=xs.size)
    grid = np.arange(xs.size + 1) / xs.size
    return float(max((grid[1:] - ref).max(), (ref - grid[:-1]).max()))
