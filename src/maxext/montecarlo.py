"""Monte-Carlo verification that normalized powered maxima converge to Gumbel.

Reproducibility contract: rep i draws from the Philox substream
``Philox(key=seed).jumped(i)``, which is ``Philox(key=seed)`` with its 256-bit
counter set to i * 2**128, i.e. counter words ``(0, 0, i, 0)`` for i < 2**64.
Any partitioning of reps across workers therefore produces exactly the serial
results, and identical configs produce bit-identical output on the same build.
`simulate_powered_maxima` reaches each substream by repositioning one
generator to that counter rather than jumping a fresh one; the bytes are the
same either way. Each rep keeps only the maximum of its n draws
(`maxwell.sample_max`, which roots the largest chi-square draw instead of
every draw: the same bits, since the root is monotone) and applies the
power and the norming to that one Python float; numpy's array power over
all reps does not round like the scalar power for t != 1 (numpy 2.4).

numpy is imported inside `substream`, `simulate_powered_maxima` and
`ks_distance`, once per call, so importing this module (and the CLI's
analytic subcommands) does not load it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import maxwell
from .errors import ConfigurationError, DomainError
from .maxwell import MaxwellParams
from .norming import Scheme, powered_constants, solve_bn, validate_scheme

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SimulationConfig", "simulate_powered_maxima", "ks_distance", "substream"]


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one simulation run; fully determines its output."""

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
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "scheme", validate_scheme(self.t, self.scheme)[1])


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
    rng = np.random.Generator(bits)
    # A fresh state also carries an empty output buffer, so assigning it
    # before each rep starts that rep exactly where substream(seed, i) would.
    start = bits.state
    counter = start["state"]["counter"]
    n, t, d, c = cfg.n, cfg.t, pn.d_n, pn.c_n
    out = []
    for i in range(cfg.reps):
        counter[:] = _counter(i)
        bits.state = start
        out.append((maxwell.sample_max(rng, p, n) ** t - d) / c)
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
