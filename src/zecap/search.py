"""Exact combinatorial oracles: maximum pairwise-distinguishable codes
M(G,n), maximum cliques of power graphs restricted to walk sets, and
maximum symmetric cliques of digraph powers.

All three run `_omega(arc, P, m)`: enumerate the walks V^m(P), build
`distinguishability_matrix(arc, walks)`, and solve.  `exact_M` uses G over
the pair-shift walks of length n-1, which spell the 2^n words in order;
`omega_power_markov` G over the walks of P; `omega_s` the loop-free D.
One vertex cap, `model.MAX_VERTICES`, is checked before anything of its
size exists.

Every adjacency is held as the packed rows of `model.power_adjacency`,
never as an N x N boolean array.  The pipeline removes dominated vertices,
clearing their bits from the rows in place; turns the kept rows into
Python-int bitsets; and runs branch and bound with greedy-coloring bounds
on the kept set.  The root's greedy clique and coloring are taken in the
row numbering, and when they meet no search runs; otherwise the search
runs in that numbering or in the kept set's smallest-last (degeneracy)
numbering, whichever root coloring uses fewer colors.
In deterministic mode the witness is the lexicographically smallest
maximum clique among the kept vertices (all of them, with no lex-min
search, when they form a clique).  That need not be the smallest of the
whole graph: for channel 00-11 at n=3 the witness is {000, 111}, while
{000, 011} is smaller.  The result's `deterministic` flag records which
mode chose the witness.
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
    unpack_rows,
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

    def expand(self, R: list[int], P: int,
               root: tuple[list[int], list[int]] = ()) -> None:
        """Branch on the vertices of P, last color class first; `root` is
        P's coloring when the caller already holds it."""
        self.nodes += 1
        adj = self.adj
        order, colors = root or _color_classes(adj, P)
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


def _lex_min_witness(adj: list[int], P: int, size: int, nodes: list[int],
                     scan: Sequence[int]) -> list[int]:
    """The clique of the known maximum size inside bitset P that comes
    first in the order of `scan`, which lists P's members: each member in
    turn is kept when a decision search finds a clique of that size through
    it and the members kept so far."""
    chosen: list[int] = []
    for v in scan:
        if len(chosen) == size:
            break
        if P >> v & 1 and _has_clique_of_size(
                adj, P & adj[v], size - len(chosen) - 1, nodes):
            chosen.append(v)
            P &= adj[v]
    return chosen


def _members(P: int) -> list[int]:
    """The set bits of P, ascending."""
    bits = np.frombuffer(P.to_bytes((P.bit_length() + 7) // 8, "little"),
                         np.uint8)
    return np.flatnonzero(np.unpackbits(bits, bitorder="little")).tolist()


def _degeneracy_bitsets(adj: list[int], P: int
                        ) -> tuple[list[int], list[int]]:
    """The smallest-last numbering of the graph that adj induces on P: a
    least-degree vertex is removed again and again, the highest first on
    ties, and the last one removed gets number 0.  Returns the vertex of
    each number and the rows as bitsets over the numbers 0..|P|-1."""
    verts = _members(P)
    n, width = len(verts), (P.bit_length() + 7) // 8
    step = max(1, 2**20 // (8 * width))
    rows = np.empty((n, (n + 7) // 8), np.uint8)
    for i in range(0, n, step):
        full = np.frombuffer(b"".join((adj[v] & P).to_bytes(width, "little")
                                      for v in verts[i:i + step]), np.uint8)
        rows[i:i + step] = np.packbits(
            unpack_rows(full.reshape(-1, width), 8 * width)[:, verts],
            axis=1, bitorder="little")
    deg = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    order = np.empty(n, np.intp)
    for i in range(n - 1, -1, -1):
        v = n - 1 - int(np.argmin(deg[::-1]))
        order[i] = v
        deg -= unpack_rows(rows[v:v + 1], n)[0]
        # above every live degree for the n - 1 decrements still to come
        deg[v] = 2 * n
    bitsets: list[int] = []
    step = max(1, 2**20 // n)
    for i in range(0, n, step):
        block = np.packbits(unpack_rows(rows[order[i:i + step]], n)[:, order],
                            axis=1, bitorder="little")
        bitsets += [int.from_bytes(row.tobytes(), "little") for row in block]
    return [verts[v] for v in order], bitsets


def max_clique_bitset(adj: list[int], P: int, lex_min: bool = True
                      ) -> SearchResult:
    """Exact maximum clique of the graph that bitset rows adj induce on
    the universe bitset P (rows need not be cleared outside P).

    The greedy clique and greedy coloring of P in the given numbering come
    first; when they meet, the root closes.  Otherwise P is renumbered
    smallest-last (`_degeneracy_bitsets`) onto |P| bits, and branch and
    bound runs in whichever numbering's root coloring uses fewer colors,
    the given one on a tie, seeded with the larger greedy clique.  `lex_min`
    then replaces the witness by the lexicographically smallest maximum
    clique (deterministic mode), decided in the search's numbering with
    the candidates tried in index order."""
    n = P.bit_count()
    check_vertex_cap(n, "clique universe")
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    t0 = time.perf_counter()
    if n == 0:
        return SearchResult(0, [], 0, time.perf_counter() - t0, lex_min)
    seed = _greedy_clique(adj, P)
    root = _color_classes(adj, P)
    label = None  # the index of each vertex of a renumbered search
    if root[1][-1] > len(seed):
        label, sl_adj = _degeneracy_bitsets(adj, P)
        sl_P = (1 << n) - 1
        sl_seed = _greedy_clique(sl_adj, sl_P)
        if len(sl_seed) > len(seed):
            seed = [label[v] for v in sl_seed]
        sl_root = _color_classes(sl_adj, sl_P)
        if sl_root[1][-1] < root[1][-1]:
            number = {v: i for i, v in enumerate(label)}
            seed = [number[v] for v in seed]
            adj, P, root = sl_adj, sl_P, sl_root
        else:
            label = None
    kern = _CliqueKernel(adj, seed)
    kern.expand([], P, root)
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min and kern.best < n:
        # a clique of all n vertices is the only maximum clique
        scan = (_members(P) if label is None
                else sorted(range(n), key=label.__getitem__))
        witness = _lex_min_witness(adj, P, kern.best, nodes, scan)
    if label is not None:
        witness = [label[v] for v in witness]
    return SearchResult(kern.best, sorted(witness), nodes[0],
                        time.perf_counter() - t0, lex_min)


def _rows_to_bitsets(rows: np.ndarray, keep: np.ndarray) -> list[int]:
    """Python-int bitsets of the rows marked in keep, 0 for the others."""
    return [int.from_bytes(row.tobytes(), "little") if kept else 0
            for row, kept in zip(rows, keep)]


def _advance(blocks: np.ndarray, s: np.ndarray, t: np.ndarray,
             ptr: np.ndarray) -> None:
    """Move each ptr[i] to the first block at or after it where row s[i]
    has a bit that row t[i] lacks, or to the block count when row s[i] is
    a subset of row t[i].  Pairs go 2^16 at a time."""
    for c0 in range(0, len(s), 2**16):
        live = np.arange(c0, min(c0 + 2**16, len(s)))
        while len(live):
            p = ptr[live]
            hit = (blocks[s[live], p] & ~blocks[t[live], p]).any(axis=1)
            live = live[~hit]
            ptr[live] += 1
            live = live[ptr[live] < blocks.shape[1]]


def dominated_vertex_mask(rows: np.ndarray) -> np.ndarray:
    """Keep-mask after iterated removal of dominated vertices, for a
    symmetric loop-free adjacency of `power_adjacency` packed rows; removed
    vertices' bits are cleared from the rows in place.

    u is dominated by v when they are non-adjacent and N(u) is a subset of
    N(v); any clique through u then maps to one through v, so u can be
    dropped without changing the clique number.  Each round removes every
    vertex with a strict dominator or a twin (equal neighborhood) of
    smaller index, until a round removes nothing.

    Twin classes are cut to their smallest index up front; the other
    non-adjacent pairs are listed once, a bounded block of unpacked rows at
    a time, each as (s, t) with s the one t could cover: the smaller
    degree, or the larger index of twins.  Its one pointer is the first
    256-bit block where N(s) has a vertex N(t) lacks; rows only lose whole
    columns, so a round resumes there, and a pair that flips starts at 0."""
    n = rows.shape[0]
    blocks = rows.view("<u8").reshape(n, rows.shape[1] // 32, 4)
    keep = np.zeros(n, dtype=bool)
    # one void field per row: first occurrences of each distinct row
    keep[np.unique(rows.view(f"V{rows.shape[1]}").ravel(),
                   return_index=True)[1]] = True
    rows[:, :(n + 7) // 8] &= np.packbits(keep, bitorder="little")
    deg = np.zeros(n, dtype=np.int32)
    step = max(1, 2**20 // max(n, 1))
    for i0 in range(0, n, step):
        deg[i0:i0 + step] = unpack_rows(rows[i0:i0 + step], n).sum(axis=1)
    # kept non-adjacent pairs (i, j), i < j, go into arrays of their known
    # count: per-block pieces sized by the vertex order fragment the heap
    k = int(keep.sum())
    s, t = np.empty((2, (k * k - k - int(deg[keep].sum())) // 2),
                    np.min_scalar_type(n))
    at = 0
    for i0 in range(0, n, step):
        i = np.arange(i0, min(i0 + step, n))[:, None]
        adj = unpack_rows(rows[i0:i0 + step], n)
        bi, bj = np.nonzero(~adj & keep & keep[i] & (np.arange(n) > i))
        s[at:at + len(bi)], t[at:at + len(bi)] = bi + i0, bj
        at += len(bi)
    # the vertex cap bounds the block count by 64
    ptr = np.zeros(len(s), dtype=np.uint8)
    while len(s):
        flip = (deg[s] > deg[t]) | ((deg[s] == deg[t]) & (s < t))
        s[flip], t[flip] = t[flip], s[flip]
        ptr[flip] = 0
        _advance(blocks, s, t, ptr)
        gone = np.unique(s[ptr == blocks.shape[1]])
        if not len(gone):
            break
        keep[gone] = False
        touched = np.unique(gone >> 3)
        rows[:, touched] &= np.packbits(keep, bitorder="little")[touched]
        deg -= sum(unpack_rows(rows[gone[g:g + step]], n).sum(axis=0)
                   for g in range(0, len(gone), step))
        alive = keep[s] & keep[t]
        s, t, ptr = s[alive], t[alive], ptr[alive]
    return keep


def _solve_clique(rows: np.ndarray, lex_min: bool, t0: float
                  ) -> SearchResult:
    """The search pipeline for packed rows: dominance reduction,
    Python-int bitsets of the kept rows, branch and bound on the kept set.
    The witness holds row indices; `elapsed` counts from t0."""
    keep = dominated_vertex_mask(rows)
    P = int.from_bytes(np.packbits(keep, bitorder="little").tobytes(),
                       "little")
    res = max_clique_bitset(_rows_to_bitsets(rows, keep), P, lex_min)
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
    # the predicate's graph is its own power over one-letter walks
    idx = np.arange(m).reshape(m, 1)
    res = _solve_clique(power_adjacency(mat, idx, idx), lex_min, t0)
    res.witness = [universe[i] for i in res.witness]
    return res


def distinguishability_matrix(arc: np.ndarray, walks: np.ndarray
                              ) -> np.ndarray:
    """Packed-row adjacency of arc's coordinatewise power on an array of
    walks, one per row: u and v are adjacent when some coordinate has an
    arc from u to v and some coordinate one from v to u.  The second is the
    power of arc.T, built only for a directed arc matrix."""
    rows = power_adjacency(arc, walks, walks)
    if not np.array_equal(arc, arc.T):
        rows &= power_adjacency(arc.T, walks, walks)
    return rows


def greedy_code(G: ChannelGraph, n: int) -> Code:
    """Maximal pairwise-distinguishable code by greedy scan of the words in
    lexicographic order, which are first checked against the vertex cap:
    the greedy clique of the lowest vertices of the words' graph."""
    check_vertex_cap(2**n, "word list")
    words = list(all_words(n))
    rows = distinguishability_matrix(G.arc_matrix(), pair_codes(words, n))
    adj = _rows_to_bitsets(rows, np.ones(len(words), dtype=bool))
    return Code(n, {words[v] for v in _greedy_clique(adj, (1 << 2**n) - 1)})


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
