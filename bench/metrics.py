"""Summary statistics, failure accounting and run environment for the benchmark."""
from __future__ import annotations

import os
import platform
import re
import resource
import statistics
import sys
import time

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). The value is the eleventh
    largest sample, which has exactly ten samples above it in rank; its
    percentile is 100 (n - 10) / n. With ten samples or fewer no percentile
    qualifies, so the largest sample is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(samples) -> float:
    return statistics.median(samples)


def timed(fn, *args, **kwargs):
    """(wall seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


class Tally:
    """Attempted and failed operations; an operation fails at most once."""

    def __init__(self, keep: int = 5):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._keep = keep

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < self._keep:
                self.errors.append(error)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_seconds(stderr: str, package: str) -> float:
    """Cumulative import time of `package` and its submodules from -X importtime.

    The output lists each module after the modules it imported, indented by
    nesting depth. Only the outermost entries of the package are summed, so
    a submodule imported inside the package's own import is not counted
    twice; modules of other packages that the package pulls in are included.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    kept: list[int] = []
    for i, (depth, _, name) in enumerate(entries):
        if name != package and not name.startswith(package + "."):
            continue
        first = i
        while first > 0 and entries[first - 1][0] > depth:
            first -= 1
        kept = [j for j in kept if j < first]
        kept.append(i)
    return sum(entries[j][1] for j in kept) * 1e-6


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str:
    """HEAD of a git checkout at `root`, read from its files; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "executable": os.path.basename(sys.executable),
    }
