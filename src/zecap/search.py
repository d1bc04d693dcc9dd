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
never as an N x N boolean array; their bits are reached here only through
`model.pack_rows` and `model.unpack_rows`.  The pipeline removes dominated
vertices on the rows' uint64 words, listing their non-adjacent pairs from the
nonzero words of ~row & keep, testing each pair's subset relation first
at one cached witness word and over the whole rows only where that word
no longer witnesses, and clearing removed vertices' bits from the rows in
place; compacts the kept set once into the packed rows of the
graph it induces (`_induced_rows`); and runs branch and bound with
greedy-coloring bounds on Python-int bitsets of those rows.  Each
numbering of the search is one permutation of the kept vertices: their row
order, or their smallest-last (degeneracy) order.  The root's greedy
clique and coloring are taken in row order, and when they meet no search
runs; otherwise the search runs in whichever numbering's root coloring
uses fewer colors.
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
    ChannelGraph,
    Digraph,
    PAIR_LETTERS,
    SpecError,
    check_vertex_cap,
    enumerate_walks,
    pack_rows,
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


def _rows_to_bitsets(rows: np.ndarray) -> list[int]:
    """Python-int bitsets of packed rows."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _induced_rows(rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """`pack_rows` rows of the graph that `rows` induce on the vertices
    `verts`, verts[i] numbered i, packed a bounded block of unpacked rows
    at a time."""
    n, N = len(verts), rows.shape[0]
    out = np.repeat(pack_rows(np.zeros((1, n), bool)), n, axis=0)
    step = max(1, 2**20 // max(N, 1))
    for i in range(0, n, step):
        out[i:i + step] = pack_rows(
            unpack_rows(rows[verts[i:i + step]], N)[:, verts])
    return out


def _smallest_last(rows: np.ndarray) -> np.ndarray:
    """The smallest-last order of the graph on packed rows: a least-degree
    vertex is removed again and again, the highest first on ties, and the
    last one removed comes first."""
    n = rows.shape[0]
    deg = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    order = np.empty(n, np.intp)
    for i in range(n - 1, -1, -1):
        v = n - 1 - int(np.argmin(deg[::-1]))
        order[i] = v
        deg -= unpack_rows(rows[v:v + 1], n)[0]
        # above every live degree for the n - 1 decrements still to come
        deg[v] = 2 * n
    return order


def max_clique_bitset(rows: np.ndarray, lex_min: bool = True
                      ) -> SearchResult:
    """Exact maximum clique of the graph on the packed rows of vertices
    0..n-1.

    The search runs in one of two numberings, each a permutation `order`
    whose i-th vertex gets number i: the given one, or the smallest-last
    one of `_smallest_last`.  The greedy clique and greedy coloring in the
    given numbering come first; when they meet, the root closes.
    Otherwise branch and bound runs in whichever numbering's root coloring
    uses fewer colors, the given one on a tie, seeded with the larger
    greedy clique.  `lex_min` then replaces the witness by the
    lexicographically smallest maximum clique (deterministic mode), decided
    in the search's numbering with the candidates tried in vertex order."""
    n = rows.shape[0]
    check_vertex_cap(n, "clique universe")
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    t0 = time.perf_counter()
    if n == 0:
        return SearchResult(0, [], 0, time.perf_counter() - t0, lex_min)
    P = (1 << n) - 1
    order = np.arange(n)
    adj = _rows_to_bitsets(rows)
    seed = _greedy_clique(adj, P)
    root = _color_classes(adj, P)
    if root[1][-1] > len(seed):
        sl_order = _smallest_last(rows)
        sl_adj = _rows_to_bitsets(_induced_rows(rows, sl_order))
        sl_seed = sl_order[_greedy_clique(sl_adj, P)].tolist()
        if len(sl_seed) > len(seed):
            seed = sl_seed
        sl_root = _color_classes(sl_adj, P)
        if sl_root[1][-1] < root[1][-1]:
            order, adj, root = sl_order, sl_adj, sl_root
    rank = np.argsort(order)  # the number of each vertex
    kern = _CliqueKernel(adj, rank[seed].tolist())
    kern.expand([], P, root)
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min and kern.best < n:
        # a clique of all n vertices is the only maximum clique
        witness = _lex_min_witness(adj, P, kern.best, nodes, rank.tolist())
    return SearchResult(kern.best, sorted(order[witness].tolist()), nodes[0],
                        time.perf_counter() - t0, lex_min)


def _subset_rows(words: np.ndarray, s: np.ndarray, t: np.ndarray,
                 wit: np.ndarray) -> np.ndarray:
    """Mask of the rows s[i] whose bits all lie in row t[i], over the
    uint64 words of the rows.  wit[i] is the index of a word where row
    s[i] had a bit that row t[i] lacked: where it still has one the pair is
    settled, and otherwise the two rows are tested in full and wit[i] moves
    to the first word that has one (0 when none does).  Pairs go 2^16 at a
    time, and full rows about 2^16 gathered words at a time."""
    covered = np.zeros(words.shape[0], dtype=bool)
    step = 2**16 // words.shape[1]
    for c0 in range(0, len(s), 2**16):
        cs, ct, cw = (a[c0:c0 + 2**16] for a in (s, t, wit))
        stale = np.flatnonzero((words[cs, cw] & ~words[ct, cw]) == 0)
        for i0 in range(0, len(stale), step):
            i = stale[i0:i0 + step]
            hit = (words[cs[i]] & ~words[ct[i]]) != 0
            cw[i] = hit.argmax(axis=1)
            covered[cs[i[~hit.any(axis=1)]]] = True
    return covered


def _nonadjacent_pairs(rows: np.ndarray, keep: np.ndarray, deg: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The non-adjacent pairs (i, j), i < j, of the vertices in `keep`, as
    two arrays of their count, which deg (each kept vertex's number of kept
    neighbors) gives up front; per-block pieces sized by the vertex order
    would fragment the heap.  Rows go 2^14 words at a time: the words of
    ~row & keep are cleared up to the diagonal bit and in rows not kept,
    and only the nonzero ones are unpacked (`unpack_rows`)."""
    n, width = rows.shape
    k = int(keep.sum())
    s, t = np.empty((2, (k * k - k - int(deg[keep].sum())) // 2),
                    np.min_scalar_type(n))
    keep_words = pack_rows(keep[None])[0]
    step = max(1, 2**14 // max(width, 1))
    at = 0
    for i0 in range(0, n, step):
        i = np.arange(i0, min(i0 + step, n))
        w = ~rows[i0:i0 + step] & keep_words
        w[np.arange(width) < (i >> 6)[:, None]] = 0
        bit = (i & 63).astype(np.uint64)
        w[i - i0, i >> 6] &= ~((np.uint64(2) << bit) - np.uint64(1))
        w[~keep[i0:i0 + step]] = 0
        r, c = np.nonzero(w)
        f = np.flatnonzero(unpack_rows(w[r, c, None], 64))
        word = f >> 6
        s[at:at + len(f)] = r[word] + i0
        t[at:at + len(f)] = c[word] * 64 + (f & 63)
        at += len(f)
    return s, t


def dominated_vertex_mask(rows: np.ndarray) -> np.ndarray:
    """Keep-mask after iterated removal of dominated vertices, for a
    symmetric loop-free adjacency in `pack_rows` form; removed vertices'
    bits are cleared from the rows in place.

    u is dominated by v when they are non-adjacent and N(u) is a subset of
    N(v); any clique through u then maps to one through v, so u can be
    dropped without changing the clique number.  Each round removes every
    vertex with a strict dominator or a twin (equal neighborhood) of
    smaller index, until a round removes nothing.

    Everything runs on the rows' uint64 words; no row is unpacked.  Twin
    classes are cut to their smallest index up front; the other
    non-adjacent pairs are listed once (`_nonadjacent_pairs`), each as
    (s, t) with s the one t could cover: the smaller degree, or the larger
    index of twins.  Each pair keeps one cached word index, where N(s) last
    had a vertex N(t) lacked; `_subset_rows` re-checks it every round and
    tests the whole rows only where it no longer witnesses, so a stale or
    re-oriented word costs one full test and is never trusted.  Each round
    first drops the pairs of removed vertices and re-orients the rest, in
    place, 2^14 pairs at a time; degrees are popcounts of the words."""
    n = rows.shape[0]
    keep = np.zeros(n, dtype=bool)
    # one void field per row: first occurrences of each distinct row
    keep[np.unique(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel(),
                   return_index=True)[1]] = True
    rows &= pack_rows(keep[None])
    deg = np.bitwise_count(rows).sum(axis=1, dtype=np.int32)
    s, t = _nonadjacent_pairs(rows, keep, deg)
    wit = np.zeros(len(s), dtype=np.min_scalar_type(rows.shape[1] - 1))
    while len(s):
        at = 0
        for c0 in range(0, len(s), 2**14):
            cs, ct, cw = (a[c0:c0 + 2**14] for a in (s, t, wit))
            live = keep[cs] & keep[ct]
            cs, ct, cw = cs[live], ct[live], cw[live]
            ds, dt = deg[cs], deg[ct]
            flip = (ds > dt) | ((ds == dt) & (cs < ct))
            cs[flip], ct[flip] = ct[flip], cs[flip]
            s[at:at + len(cs)], t[at:at + len(cs)] = cs, ct
            wit[at:at + len(cs)] = cw
            at += len(cs)
        # views: the pairs stay in the buffers of the listing
        s, t, wit = s[:at], t[:at], wit[:at]
        covered = _subset_rows(rows, s, t, wit)
        gone = np.flatnonzero(covered)
        if not len(gone):
            break
        keep[gone] = False
        # clear the removed columns, 2^14 words at a time, and count them
        # off the degrees
        lo, hi = gone[0] >> 6, (gone[-1] >> 6) + 1
        cols = pack_rows(covered[None])[0, lo:hi]
        step = max(1, 2**14 // (hi - lo))
        for r0 in range(0, n, step):
            cut = rows[r0:r0 + step, lo:hi] & cols
            rows[r0:r0 + step, lo:hi] ^= cut
            deg[r0:r0 + step] -= np.bitwise_count(cut).sum(axis=1,
                                                           dtype=np.int32)
    return keep


def _solve_clique(rows: np.ndarray, lex_min: bool, t0: float
                  ) -> SearchResult:
    """The search pipeline for packed rows: dominance reduction, the
    packed rows of the kept set compacted once, branch and bound on them.
    The witness holds row indices; `elapsed` counts from t0."""
    kept = np.flatnonzero(dominated_vertex_mask(rows))
    # the full rows are let go before the search
    rows = _induced_rows(rows, kept)
    res = max_clique_bitset(rows, lex_min)
    res.witness = kept[res.witness].tolist()
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
    res = _solve_clique(pack_rows(mat), lex_min, t0)
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
