"""Exact combinatorial oracles: maximum pairwise-distinguishable codes
M(G,n), maximum cliques of power graphs restricted to walk sets, and
maximum symmetric cliques of digraph powers.

All three are one problem on one route, `_omega(arc, P, m)`: enumerate the
walks V^m(P), build `distinguishability_matrix(arc, walks)` (the
coordinatewise power `model.power_adjacency` of a small arc matrix, ANDed
with its transpose only when the arc matrix is directed), and solve.
`exact_M` is G's edge matrix over the pair-shift walks of length n-1, which
spell the 2^n words in order; `omega_power_markov` is G's edge matrix over
the walks of P; `omega_s` is the loop-free arc matrix of D.  Every search
has one vertex cap, `model.MAX_VERTICES`, checked before anything of that
size is allocated: by `Digraph.arc_matrix`, by `enumerate_walks` on each
layer, by `greedy_code` on its word list and by `max_clique` (the entry
point for an explicit universe and pair predicate) before its predicate.

One pipeline solves them all: dominance reduction, packing of rows into
Python-int bitsets, and a branch-and-bound maximum-clique search with
greedy-coloring upper bounds that seeds itself with the greedy clique of
the lowest vertices.  The reduction works on rows packed into uint64
words, in rounds that retest only the non-adjacent pairs still alive, so
its cost follows the non-edges rather than N^2.
Results are deterministic: vertices are always processed in a fixed order
and, in deterministic mode, the returned witness is the lexicographically
smallest maximum clique among the vertices the reduction keeps; when they
form a clique, that is all of them and no lex-min search runs.  That need
not be the smallest of the whole graph: for channel 00-11 at n=3 the
witness is {000, 111}, while {000, 011} is smaller.  The result's
`deterministic` flag records which mode chose the witness.
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
    SpecError,
    all_words,
    check_vertex_cap,
    enumerate_walks,
    pair_codes,
    pair_shift_digraph,
    power_adjacency,
)


@dataclass
class SearchResult:
    size: int
    witness: list
    nodes_explored: int
    elapsed: float
    deterministic: bool

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


def max_clique_bitset(adj: list[int], n: int, lex_min: bool = True
                      ) -> SearchResult:
    """Exact maximum clique for adjacency bitset rows adj[0..n-1].

    The greedy clique of the lowest vertices is the initial incumbent;
    `lex_min` additionally replaces the witness by the lexicographically
    smallest maximum clique (deterministic mode)."""
    check_vertex_cap(n, "clique universe")
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    t0 = time.perf_counter()
    if n == 0:
        return SearchResult(0, [], 0, time.perf_counter() - t0, lex_min)
    kern = _CliqueKernel(adj, _greedy_clique(adj, (1 << n) - 1))
    kern.expand([], (1 << n) - 1)
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min and kern.best < n:
        # a clique of all n vertices is the only maximum clique
        witness = _lex_min_witness(adj, n, kern.best, nodes)
    return SearchResult(kern.best, sorted(witness), nodes[0],
                        time.perf_counter() - t0, lex_min)


def _rows_to_bitsets(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _advance(blocks: np.ndarray, s: np.ndarray, t: np.ndarray,
             ptr: np.ndarray, todo: np.ndarray) -> None:
    """Move ptr[i], for each i in todo, to the first block at or after it
    where row s[i] has a bit that row t[i] lacks, or to the block count
    when row s[i] is a subset of row t[i].  Pairs go 2^16 at a time."""
    for c0 in range(0, len(todo), 2**16):
        live = todo[c0:c0 + 2**16]
        while len(live):
            p = ptr[live]
            hit = (blocks[s[live], p] & ~blocks[t[live], p]).any(axis=1)
            live = live[~hit]
            ptr[live] += 1
            live = live[ptr[live] < blocks.shape[1]]


def dominated_vertex_mask(adj: np.ndarray) -> np.ndarray:
    """Keep-mask after iterated removal of dominated vertices, for a
    symmetric loop-free boolean adjacency matrix.

    u is dominated by v when they are non-adjacent and N(u) is a subset of
    N(v); any clique through u then maps to one through v, so u can be
    dropped without changing the clique number.  Each round removes every
    vertex with a strict dominator or a twin (equal neighborhood) of
    smaller index, until a round removes nothing.

    Rows are packed once into blocks of four uint64 words.  Twins stay
    twins, so twin classes are cut to their smallest index up front and
    the other non-adjacent pairs are listed once.  Each direction of a pair
    keeps a pointer to its first block where N(u) has a vertex N(v) lacks;
    rows only lose bits, so a round resumes there, where deg u <= deg v,
    then clears the removed vertices' bits in place, lowers the degrees
    and drops their pairs."""
    n = adj.shape[0]
    rows = np.packbits(adj, axis=1, bitorder="little")
    rows = np.pad(rows, ((0, 0), (0, -rows.shape[1] % 32)))
    blocks = rows.view("<u8").reshape(n, rows.shape[1] // 32, 4)
    keep = np.zeros(n, dtype=bool)
    # one void field per row: first occurrences of each distinct row
    keep[np.unique(rows.view(f"V{rows.shape[1]}").ravel(),
                   return_index=True)[1]] = True
    rows[:, :(n + 7) // 8] &= np.packbits(keep, bitorder="little")
    deg = np.zeros(n, dtype=np.int64)
    step = max(1, 2**20 // max(n, 1))
    pairs = [np.zeros((0, 2), dtype=np.int32)]
    for i0 in range(0, n, step):
        # degrees and kept non-adjacent pairs (i, j), i < j, of a bounded
        # block of rows i
        i = np.arange(i0, min(i0 + step, n))[:, None]
        deg[i0:i0 + step] = (adj[i0:i0 + step] & keep).sum(axis=1)
        block = ~adj[i0:i0 + step] & keep & keep[i] & (np.arange(n) > i)
        pairs.append((np.argwhere(block) + [i0, 0]).astype(np.int32))
    u, v = np.concatenate(pairs).T
    # ptr[:len(u)] tests N(u) within N(v), ptr[len(u):] N(v) within N(u)
    ptr = np.zeros(2 * len(u), dtype=np.intp)
    while len(u):
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        todo = np.flatnonzero(deg[src] <= deg[dst])
        _advance(blocks, src, dst, ptr, todo)
        sub_u, sub_v = (ptr == blocks.shape[1]).reshape(2, -1)
        # u goes when v strictly covers it; v goes when u covers it,
        # strictly or as a twin, since v > u
        gone = np.unique(np.concatenate([u[sub_u & ~sub_v], v[sub_v]]))
        if not len(gone):
            break
        keep[gone] = False
        touched = np.unique(gone >> 3)
        rows[:, touched] &= np.packbits(keep, bitorder="little")[touched]
        deg -= sum(adj[gone[g:g + step]].sum(axis=0)
                   for g in range(0, len(gone), step))
        alive = keep[u] & keep[v]
        u, v, ptr = u[alive], v[alive], ptr[np.tile(alive, 2)]
    return keep


def _solve_clique(mat: np.ndarray, lex_min: bool, t0: float
                  ) -> SearchResult:
    """The search pipeline for a boolean adjacency matrix: dominance
    reduction, bitset packing, branch and bound.  The witness holds row
    indices of `mat`; `elapsed` counts from t0."""
    idx = np.flatnonzero(dominated_vertex_mask(mat))
    adj = _rows_to_bitsets(mat[np.ix_(idx, idx)])
    res = max_clique_bitset(adj, len(idx), lex_min=lex_min)
    res.witness = [int(idx[v]) for v in res.witness]
    res.elapsed = time.perf_counter() - t0
    return res


def max_clique(universe: Sequence, predicate: Callable, *,
               lex_min: bool = True) -> SearchResult:
    """Maximum clique for an explicit vertex universe and a symmetric pair
    predicate; witness holds universe elements.  The universe is checked
    against the vertex cap before the predicate is called."""
    m = len(universe)
    check_vertex_cap(m, "clique universe")
    t0 = time.perf_counter()
    mat = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            if predicate(universe[i], universe[j]):
                mat[i, j] = mat[j, i] = True
    res = _solve_clique(mat, lex_min, t0)
    res.witness = [universe[i] for i in res.witness]
    return res


def distinguishability_matrix(arc: np.ndarray, walks: np.ndarray
                              ) -> np.ndarray:
    """Boolean adjacency of arc's coordinatewise power on an array of
    walks, one per row: u and v are adjacent when some coordinate has an
    arc from u to v and some coordinate one from v to u.  For a symmetric
    arc matrix the power is already symmetric, so only a directed one pays
    for the AND with the transpose."""
    mat = power_adjacency(arc, walks, walks)
    if not np.array_equal(arc, arc.T):
        mat &= mat.T
    return mat


def greedy_code(G: ChannelGraph, n: int) -> Code:
    """Maximal pairwise-distinguishable code by greedy scan of the words in
    lexicographic order, which are first checked against the vertex cap."""
    check_vertex_cap(2**n, "word list")
    words = list(all_words(n))
    arc = G.arc_matrix()
    codes = pair_codes(words, n)
    kept: list[int] = []
    for i in range(len(words)):
        if power_adjacency(arc, codes[i:i + 1], codes[kept]).all():
            kept.append(i)
    return Code(n, {words[i] for i in kept})


def _omega(arc: np.ndarray, P: Digraph, m: int, lex_min: bool
           ) -> tuple[SearchResult, np.ndarray]:
    """The one route of every problem here: the maximum clique of
    `distinguishability_matrix(arc, V^m(P))`.  Returns the result, whose
    witness holds row indices, and the walk array, in lexicographic order."""
    t0 = time.perf_counter()
    walks = enumerate_walks(P, m)
    res = _solve_clique(distinguishability_matrix(arc, walks), lex_min, t0)
    return res, walks


def exact_M(G: ChannelGraph, n: int, *, lex_min: bool = True
            ) -> SearchResult:
    """M(G,n): the largest set of length-n words that are pairwise
    distinguishable for G, with a witness code.  The words are the
    pair-shift walks of length n-1, so n is capped at 14 by the vertex
    cap."""
    if n < 1:
        raise SpecError("n must be >= 1")
    if n == 1:
        # no coordinate pair exists, so no two words are distinguishable
        return SearchResult(1, ["0"], 0, 0.0, lex_min)
    res, _ = _omega(G.arc_matrix(), pair_shift_digraph(), n - 1, lex_min)
    # walk number v spells the word of v in binary
    res.witness = [format(v, f"0{n}b") for v in res.witness]
    return res


def omega_power_markov(G: ChannelGraph, P: Digraph, m: int, *,
                       lex_min: bool = True) -> SearchResult:
    """omega of the graph the m-th power of G induces on the walk set
    V^m(P); P's vertices index the pair alphabet."""
    if P.k != 4:
        raise SpecError("omega_power_markov expects a digraph on the 4 "
                        "pair letters")
    res, walks = _omega(G.arc_matrix(), P, m, lex_min)
    res.witness = ["".join(PAIR_LETTERS[v] for v in walks[i])
                   for i in res.witness]
    return res


def omega_s(D: Digraph, P: Digraph, n: int, *,
            lex_min: bool = True) -> SearchResult:
    """Largest symmetric clique of the n-th power of digraph D restricted to
    V^n(P): every ordered pair of distinct members must have a coordinate
    arc in each direction.  Loop arcs of D are ignored."""
    if D.k != P.k:
        raise SpecError(f"vertex-count mismatch: D has {D.k}, P has {P.k}")
    res, walks = _omega(D.without_loops().arc_matrix(), P, n, lex_min)
    res.witness = ["".join(str(v) for v in walks[i]) for i in res.witness]
    return res
