"""Analytic capacity values: roots of characteristic equations
sum_l x^l = 1 for ministring length multisets (with optional geometric
tails), Perron growth rates of walk digraphs from their spectral radii,
and empirical rate series from exact counts.

All rates are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Digraph, SpecError

DEFAULT_TOL = 1e-12
MAX_BISECT_ITERS = 200
_TAIL_GUARD = 1 - 1e-12


class NoRootError(SpecError):
    """The characteristic equation has no root in (0,1)."""


class ConvergenceError(RuntimeError):
    """Iteration cap reached before the requested tolerance."""


@dataclass(frozen=True)
class CharacteristicEquation:
    """E(x) = sum of x^l over `head` lengths plus, if present, the closed
    geometric tail x^start + x^(start+step) + ... = x^start / (1 - x^step).
    E is strictly increasing on (0,1) with E(0)=0, so E(x)=1 has at most one
    root there."""

    head: tuple[int, ...]
    tail: Optional[tuple[int, int]] = None  # (start, step)

    def __post_init__(self):
        if any(l < 1 for l in self.head):
            raise SpecError("all head lengths must be >= 1")
        if self.tail is not None:
            start, step = self.tail
            if start < 1 or step < 1:
                raise SpecError("tail start and step must be >= 1")
        if not self.head and self.tail is None:
            raise SpecError("equation needs at least one term")

    def value(self, x: float) -> float:
        total = sum(x**l for l in self.head)
        if self.tail is not None:
            start, step = self.tail
            x = min(x, _TAIL_GUARD)
            total += x**start / (1.0 - x**step)
        return total

    def has_root(self) -> bool:
        """E(1-) > 1 guarantees a root; a tail always diverges at 1."""
        return self.tail is not None or len(self.head) >= 2


@dataclass
class CapacityValue:
    root: float
    rate_bits: float
    residual: float
    iterations: int

    def to_record(self) -> dict:
        return {
            "root": self.root,
            "rate_bits": self.rate_bits,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def solve_characteristic(eq: CharacteristicEquation,
                         tol: float = DEFAULT_TOL) -> CapacityValue:
    """Unique root of E(x) = 1 in (0,1) by bracketed bisection; the rate is
    log2(1/root)."""
    if not (math.isfinite(tol) and tol > 0):
        raise SpecError(f"tolerance must be a finite positive number, "
                        f"not {tol}")
    if not eq.has_root():
        raise NoRootError(f"E(1-) <= 1 for head {eq.head}; no root in (0,1)")
    lo, hi = 0.0, 1.0
    x = 0.5
    iters = 0
    while iters < MAX_BISECT_ITERS:
        iters += 1
        x = 0.5 * (lo + hi)
        v = eq.value(x)
        if abs(v - 1.0) <= tol:
            break
        if v < 1.0:
            lo = x
        else:
            hi = x
    else:
        raise ConvergenceError(f"no convergence to tol={tol} within "
                               f"{MAX_BISECT_ITERS} bisections")
    return CapacityValue(root=x, rate_bits=math.log2(1.0 / x),
                         residual=abs(eq.value(x) - 1.0), iterations=iters)


def beta_sequence(k_max: int) -> list[CapacityValue]:
    """Rates for the truncated odd-run equations with head lengths
    {1, 2, 4, ..., 2k+2}, k = 0..k_max; strictly increasing in k and bounded
    by the full geometric-tail rate."""
    if k_max < 0:
        raise SpecError("k_max must be >= 0")
    out = []
    for k in range(k_max + 1):
        head = (1,) + tuple(range(2, 2 * k + 3, 2))
        out.append(solve_characteristic(CharacteristicEquation(head)))
    return out


def perron_growth(P: Digraph) -> CapacityValue:
    """log2 of the spectral radius of P's adjacency matrix, from all its
    eigenvalues; this is the exponential growth rate of |V^n(P)|.

    Acyclic digraphs return rate 0 with root 1: removing every vertex of
    out-degree 0, round by round, leaves none of them (a loop is a cycle).
    `residual` is ||A x - lambda x|| of the dominant pair."""
    mat = P.arc_matrix()
    out = mat.sum(axis=1)
    alive = np.ones(P.k, dtype=bool)
    sinks = out == 0
    while sinks.any():
        alive &= ~sinks
        out -= mat[:, sinks].sum(axis=1)
        sinks = alive & (out == 0)
    if not alive.any():
        return CapacityValue(root=1.0, rate_bits=0.0, residual=0.0,
                             iterations=0)
    mat = mat.astype(float)
    vals, vecs = np.linalg.eig(mat)
    i = int(np.argmax(np.abs(vals)))
    residual = float(np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i]))
    lam = float(np.abs(vals[i]))
    return CapacityValue(root=1.0 / lam, rate_bits=math.log2(lam),
                         residual=residual, iterations=0)


def empirical_rates(counts: Sequence[int]
                    ) -> tuple[list[float], list[float]]:
    """(naive, ratio) rate series for exact counts a_1, a_2, ...: naive is
    (1/n) log2 a_n, ratio is log2(a_{n+1}/a_n).  Ratio rates converge
    geometrically to the dominant growth rate."""
    if len(counts) < 2:
        raise SpecError("need at least two counts")
    if any(c <= 0 for c in counts):
        raise SpecError("counts must be strictly positive")
    naive = [math.log2(c) / (i + 1) for i, c in enumerate(counts)]
    ratio = [math.log2(b) - math.log2(a)
             for a, b in zip(counts, counts[1:])]
    return naive, ratio
