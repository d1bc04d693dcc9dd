"""The machine's speed, measured by fixed reference kernels between timed
calls, so that solve times can be put at a fixed reference speed.

On a shared host the speed of one vCPU drifts by tens of percent over
seconds to minutes, and a wall-clock solve time moves with it.  The kernels
below never call zecap and never change, so the ratio of a call's time to
the kernels' time around it cancels the machine's drift and keeps every
change of zecap.  `slowdown()` is the kernels' time over their nominal time
(what they took on the machine the constants were measured on); a solve
time divided by it is in seconds at that nominal speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3  # each kernel's time is its median over this many calls


def python_kernel() -> int:
    """Interpreter-bound work: integer arithmetic, branches, dict updates
    and a list comprehension, the bytecodes zecap's Python loops spend
    their time in."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(30000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        total += (i * 7) % 13
        if total & 1:
            total ^= key
    kept = [x for x in range(10000) if x % 3]
    return total + len(kept)


_EDGES = frozenset(frozenset(pair)
                   for pair in (("00", "01"), ("00", "11"), ("01", "11")))
_WORDS = [format(i * 37 % 4096, "012b") for i in range(100)]


def _distinguishable(x: str, y: str) -> bool:
    for i in range(len(x) - 1):
        a, b = x[i:i + 2], y[i:i + 2]
        if a != b and frozenset((a, b)) in _EDGES:
            return True
    return False


def strings_kernel() -> int:
    """Small-object work of the kinds zecap's construct and verify loops
    do: a call per word pair, string slices, frozenset lookups, and a
    filtered, sorted list of new strings."""
    hits = 0
    for i, x in enumerate(_WORDS):
        for y in _WORDS[i + 1:]:
            hits += _distinguishable(x, y)
    out = sorted(w[::-1] + "0" for w in _WORDS * 10 if "111" not in w)
    return hits + len(out)


_RNG = np.random.default_rng(0)
_EMAT = _RNG.random((4, 4)) < 0.5
_CODES = _RNG.integers(0, 4, size=(2048, 1))
_F = (_RNG.random((256, 256)) < 0.5).astype(np.float32)


def array_kernel() -> int:
    """numpy work of the kinds exact_M does: gathers into a dense boolean
    matrix, or-accumulation, row sums and a float32 product.  The 4 MiB
    matrix does not fit in a core's own cache, so the kernel, like exact_M,
    feels the memory traffic of other tenants."""
    adj = np.zeros((2048, 2048), dtype=bool)
    for i in range(_CODES.shape[1]):
        col = _CODES[:, i]
        adj |= _EMAT[col[:, None], col[None, :]]
    common = (_F @ _F.T).astype(np.int64)
    return int(adj.sum(axis=1).max()) + int(common[0, 0])


KERNELS = {"python": python_kernel, "strings": strings_kernel,
           "array": array_kernel}
# median seconds per call on the reference machine (perfbench/NOTES.md)
NOMINAL_S = {"python": 14.0e-3, "strings": 15.5e-3, "array": 43.0e-3}


def kernel_time(name: str) -> float:
    kernel = KERNELS[name]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowdown(kernels: tuple[str, ...]) -> float:
    """Mean over the kernels of their time now over their nominal time:
    1.0 at the reference speed, 1.3 when the machine runs 30% slower."""
    return statistics.fmean(kernel_time(k) / NOMINAL_S[k] for k in kernels)
