"""Exact combinatorial oracles: maximum pairwise-distinguishable codes
M(G,n), maximum cliques of power graphs restricted to walk sets, and
maximum symmetric cliques of digraph powers.

Every adjacency matrix here is one coordinatewise power,
`model.power_adjacency`, of a small arc matrix over an array of walks:
M(G,n) takes G's edge matrix over the pair codes of all 2^n words,
`omega_power_markov` takes it over the walks of P, and `omega_s` takes the
AND of the loop-free D power with its transpose.  One pipeline solves them
all: dominance reduction, packing of rows into Python-int bitsets, a greedy
seed, and a branch-and-bound maximum-clique search with greedy-coloring
upper bounds.  Results are deterministic: vertices are always processed in
a fixed order and, in deterministic mode, the returned witness is the
lexicographically smallest maximum clique among the vertices the reduction
keeps.  That need not be the smallest of the whole graph: for channel 00-11
at n=3 the witness is {000, 111}, while {000, 011} is smaller.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    Code,
    ChannelGraph,
    Digraph,
    PAIR_LETTERS,
    ResourceCapExceeded,
    SpecError,
    all_words,
    distinguishable,
    enumerate_walks,
    pair_codes,
    power_adjacency,
)

DEFAULT_EXACT_M_CAP = 14          # max block length for exact_M
DEFAULT_UNIVERSE_CAP = 2**20      # max vertex count for generic clique search


@dataclass
class SearchResult:
    size: int
    witness: list
    nodes_explored: int
    elapsed: float
    deterministic: bool = True

    def to_record(self, problem: str, n: int) -> dict:
        return {
            "problem": problem,
            "n": n,
            "size": self.size,
            "witness": sorted(self.witness),
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": int(self.elapsed * 1000),
            "deterministic": self.deterministic,
        }


def _color_classes(adj: list[int], P: int) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring of bitset P: the vertices class by class
    and the color of each, so colors are nondecreasing."""
    order: list[int] = []
    colors: list[int] = []
    uncolored = P
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        while q:
            v = (q & -q).bit_length() - 1
            bit = 1 << v
            q &= ~adj[v]
            q &= ~bit
            uncolored &= ~bit
            order.append(v)
            colors.append(color)
    return order, colors


class _CliqueKernel:
    """Tomita-style branch and bound on bitset adjacency rows."""

    def __init__(self, adj: list[int], seed: Sequence[int]):
        self.adj = adj
        self.nodes = 0
        self.best = len(seed)
        self.best_set: list[int] = list(seed)

    def expand(self, R: list[int], P: int) -> None:
        self.nodes += 1
        adj = self.adj
        order, colors = _color_classes(adj, P)
        depth = len(R)
        for i in range(len(order) - 1, -1, -1):
            if depth + colors[i] <= self.best:
                return
            v = order[i]
            new_P = P & adj[v]
            R.append(v)
            if new_P:
                self.expand(R, new_P)
            elif len(R) > self.best:
                self.best = len(R)
                self.best_set = list(R)
            R.pop()
            P &= ~(1 << v)


def _greedy_clique(adj: list[int], P: int) -> list[int]:
    """First-fit clique inside bitset P, lowest vertex first."""
    clique: list[int] = []
    while P:
        v = (P & -P).bit_length() - 1
        clique.append(v)
        P &= adj[v]
    return clique


def _has_clique_of_size(adj: list[int], P: int, need: int,
                        kernel_nodes: list[int]) -> bool:
    """Decision variant: does the graph induced on bitset P contain a clique
    of `need` vertices?  Greedy lower bound first, then the coloring bound."""
    if need <= 0:
        return True
    if P.bit_count() < need:
        return False
    if len(_greedy_clique(adj, P)) >= need:
        return True
    order, colors = _color_classes(adj, P)
    if colors[-1] < need:
        return False
    kernel_nodes[0] += 1
    rest = P
    for i in range(len(order) - 1, -1, -1):
        if colors[i] < need:
            return False
        v = order[i]
        if _has_clique_of_size(adj, rest & adj[v], need - 1, kernel_nodes):
            return True
        rest &= ~(1 << v)
    return False


def _lex_min_witness(adj: list[int], n: int, size: int,
                     nodes: list[int]) -> list[int]:
    """Lexicographically smallest clique of the known maximum size, built by
    confirming one vertex at a time with decision searches."""
    chosen: list[int] = []
    P = (1 << n) - 1
    need = size
    v = 0
    while need > 0:
        while True:
            bit = 1 << v
            if P & bit and _has_clique_of_size(adj, P & adj[v], need - 1,
                                               nodes):
                break
            v += 1
        chosen.append(v)
        P &= adj[v]
        need -= 1
        v += 1
    return chosen


def max_clique_bitset(adj: list[int], n: int,
                      seed: Sequence[int] = (),
                      lex_min: bool = True) -> SearchResult:
    """Exact maximum clique for adjacency bitset rows adj[0..n-1].

    `seed` is a known clique used as the initial incumbent; `lex_min`
    additionally replaces the witness by the lexicographically smallest
    maximum clique (deterministic mode)."""
    if n > DEFAULT_UNIVERSE_CAP:
        raise ResourceCapExceeded(f"universe {n} exceeds cap")
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    t0 = time.perf_counter()
    if n == 0:
        return SearchResult(0, [], 0, time.perf_counter() - t0)
    kern = _CliqueKernel(adj, seed)
    kern.expand([], (1 << n) - 1)
    if kern.best == 0:
        # every graph with a vertex has a 1-clique; seed was empty
        kern.best, kern.best_set = 1, [0]
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min:
        witness = _lex_min_witness(adj, n, kern.best, nodes)
    return SearchResult(kern.best, sorted(witness), nodes[0],
                        time.perf_counter() - t0)


def _rows_to_bitsets(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def dominated_vertex_mask(adj: np.ndarray) -> np.ndarray:
    """Keep-mask after iterated removal of dominated vertices.

    u is dominated by v when they are non-adjacent and N(u) is a subset of
    N(v); any clique through u then maps to one through v, so u can be
    dropped without changing the clique number.  Twins (equal neighborhoods)
    keep their smallest index for determinism."""
    n = adj.shape[0]
    keep = np.ones(n, dtype=bool)
    while True:
        idx = np.flatnonzero(keep)
        a = adj[np.ix_(idx, idx)]
        f = a.astype(np.float32)
        common = (f @ f.T).astype(np.int64)
        deg = a.sum(axis=1)
        dom = (~a) & (common == deg[:, None])     # dom[u,v]: v covers u
        np.fill_diagonal(dom, False)
        strict = dom & ~dom.T
        twins = dom & dom.T
        lower = np.tril(np.ones_like(dom), k=-1)  # twin with smaller index
        remove = strict.any(axis=1) | (twins & lower).any(axis=1)
        if not remove.any():
            return keep
        keep[idx[remove]] = False


def _solve_clique(mat: np.ndarray, lex_min: bool, t0: float
                  ) -> SearchResult:
    """The search pipeline for a boolean adjacency matrix: dominance
    reduction, bitset packing, greedy seed, branch and bound.  The witness
    holds row indices of `mat`; `elapsed` counts from t0."""
    idx = np.flatnonzero(dominated_vertex_mask(mat))
    adj = _rows_to_bitsets(mat[np.ix_(idx, idx)])
    m = len(idx)
    res = max_clique_bitset(adj, m, seed=_greedy_clique(adj, (1 << m) - 1),
                            lex_min=lex_min)
    res.witness = [int(idx[v]) for v in res.witness]
    res.elapsed = time.perf_counter() - t0
    return res


def max_clique(universe: Sequence, predicate: Callable, *,
               lex_min: bool = True,
               cap: int = DEFAULT_UNIVERSE_CAP) -> SearchResult:
    """Maximum clique for an explicit vertex universe and a symmetric pair
    predicate; witness holds universe elements."""
    m = len(universe)
    if m > cap:
        raise ResourceCapExceeded(f"universe {m} exceeds cap {cap}")
    t0 = time.perf_counter()
    mat = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            if predicate(universe[i], universe[j]):
                mat[i, j] = mat[j, i] = True
    res = _solve_clique(mat, lex_min, t0)
    res.witness = [universe[i] for i in res.witness]
    return res


def distinguishability_matrix(G: ChannelGraph, n: int) -> np.ndarray:
    """Boolean adjacency of the distinguishability graph on all 2^n
    length-n words (word w <-> vertex int(w, 2)): G's power on their pair
    codes."""
    codes = pair_codes(list(all_words(n)), n)
    return power_adjacency(G.arc_matrix(), codes, codes)


def greedy_code(G: ChannelGraph, n: int, order: Sequence[str] | None = None
                ) -> Code:
    """Maximal pairwise-distinguishable code by greedy scan; lexicographic
    order unless an explicit word order is given."""
    words = list(order) if order is not None else list(all_words(n))
    arc = G.arc_matrix()
    codes = pair_codes(words, n)
    kept: list[int] = []
    for i in range(len(words)):
        if power_adjacency(arc, codes[i:i + 1], codes[kept]).all():
            kept.append(i)
    return Code(n, {words[i] for i in kept}, provenance="greedy")


def exact_M(G: ChannelGraph, n: int, *, cap: int = DEFAULT_EXACT_M_CAP,
            lex_min: bool = True) -> SearchResult:
    """M(G,n): the largest set of length-n words that are pairwise
    distinguishable for G, with a witness code."""
    if n < 1:
        raise SpecError("n must be >= 1")
    if n > cap:
        raise ResourceCapExceeded(f"n={n} exceeds exact_M cap {cap}")
    t0 = time.perf_counter()
    if n == 1:
        # no coordinate pair exists, so no two words are distinguishable
        return SearchResult(1, ["0"], 0, time.perf_counter() - t0)
    res = _solve_clique(distinguishability_matrix(G, n), lex_min, t0)
    res.witness = [format(v, f"0{n}b") for v in res.witness]
    return res


def naive_exact_M(G: ChannelGraph, n: int) -> int:
    """Independent oracle: plain recursive maximum-clique search with only
    the trivial |R|+|P| bound, no coloring, no ordering, no greedy seed."""
    words = list(all_words(n))
    adj = [0] * len(words)
    for i, x in enumerate(words):
        for j in range(i + 1, len(words)):
            if distinguishable(x, words[j], G):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best = [0]

    def grow(size: int, P: int) -> None:
        if P == 0:
            if size > best[0]:
                best[0] = size
            return
        while P:
            if size + P.bit_count() <= best[0]:
                return
            v = (P & -P).bit_length() - 1
            grow(size + 1, P & adj[v])
            P &= ~(1 << v)
        if size > best[0]:
            best[0] = size

    grow(0, (1 << len(words)) - 1)
    return max(best[0], 1)


def _walk_universe(P: Digraph, m: int, cap: int) -> np.ndarray:
    """V^m(P) in lexicographic order, one walk per row."""
    walks = enumerate_walks(P, m, cap=cap)
    if len(walks) > cap:
        raise ResourceCapExceeded(f"walk universe {len(walks)} exceeds cap")
    return np.array(walks, dtype=np.intp).reshape(len(walks), m)


def omega_power_markov(G: ChannelGraph, P: Digraph, m: int, *,
                       cap: int = DEFAULT_UNIVERSE_CAP,
                       lex_min: bool = True) -> SearchResult:
    """omega of the graph the m-th power of G induces on the walk set
    V^m(P); P's vertices index the pair alphabet."""
    if P.k != 4:
        raise SpecError("omega_power_markov expects a digraph on the 4 "
                        "pair letters")
    t0 = time.perf_counter()
    walks = _walk_universe(P, m, cap)
    res = _solve_clique(power_adjacency(G.arc_matrix(), walks, walks),
                        lex_min, t0)
    res.witness = ["".join(PAIR_LETTERS[v] for v in walks[i])
                   for i in res.witness]
    return res


def omega_s(D: Digraph, P: Digraph, n: int, *,
            cap: int = DEFAULT_UNIVERSE_CAP,
            lex_min: bool = True) -> SearchResult:
    """Largest symmetric clique of the n-th power of digraph D restricted to
    V^n(P): every ordered pair of distinct members must have a coordinate
    arc in each direction.  Loop arcs of D are ignored."""
    if D.k != P.k:
        raise SpecError(f"vertex-count mismatch: D has {D.k}, P has {P.k}")
    t0 = time.perf_counter()
    walks = _walk_universe(P, n, cap)
    forward = power_adjacency(D.without_loops().arc_matrix(), walks, walks)
    # symmetric clique == clique in the AND of the two oriented relations
    res = _solve_clique(forward & forward.T, lex_min, t0)
    res.witness = ["".join(str(v) for v in walks[i]) for i in res.witness]
    return res
