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
built once per run of walks with a common prefix, never as an N x N
boolean array.  Rows are packed, unpacked and listed only by `model`:
`pack_rows`, `unpack_rows`, and `upper_bits`, which
lists the bits right of a diagonal.  The code here relies on their
layout, 64-bit little-endian words with bit j in word j >> 6, in three
places: a pair's first witness word is t >> 6, the column clear takes
the words gone >> 6, and `_rows_to_bitsets` reads each row as one
little-endian int.  Words, pair letters, walks and digit matrices are
converted only by `model` (`walk_words`, `walk_letters`, `walk_labels`,
`spell`).  The pipeline removes dominated vertices on the rows' uint64
words: it cuts twins by a hash of each row, checked by an exact
comparison; lists the non-adjacent pairs from the nonzero words of
~row & keep; tests each pair's subset relation first at
one cached witness word, at first the word of t's own bit, and over the
whole rows only where that word no longer witnesses and s is not yet
covered in the round; and clears removed vertices' bits from the rows in
place.  A kept set that is a clique is
the answer, returned without a search.  Otherwise the pipeline compacts
the kept set once into the packed rows of the graph it induces
(`_induced_rows`) and runs branch and bound with greedy-coloring bounds
on Python-int bitsets.  The search holds one
non-neighbor mask per vertex, `far[v]`, the complement of
`adj[v] | 1 << v` within the kept set's bits (`_rows_to_bitsets`): a
coloring step is one `q &= far[v]`, and v's neighbors are taken only at
a branch.  Each node colors only the vertices it can branch on, those of
color at least `kmin` (`best - depth + 1` in branch and bound, the size
still needed in a decision); the classes below are stripped and not
recorded, which changes no decision.  Each numbering of the search is
one permutation of the kept vertices: their row order, or their
smallest-last (degeneracy) order.  The root's greedy clique and coloring
are taken in row order, and when they meet no search runs; otherwise the
search runs in whichever numbering's root coloring uses fewer colors.

Only then is the walk group derived (`_walk_automorphisms`), so a search
that closes at the root does no symmetry work.  It comes from the input:
every relabeling s of the k vertices that maps arc onto arc or arc.T and
P onto P, acting on every coordinate of a walk, and s composed with walk
reversal where s maps P onto P.T.  All k! relabelings are tried for
k <= 6, only the identity for larger k.  The search keeps the elements
that map the kept set onto itself, since the reduction's index
tie-breaks need not respect the group; they act on the graph the kept
set induces, and its root branches once per orbit: after the branch on
v, v's whole orbit leaves the candidates.  Below the root each vertex is
its own orbit, so the plain search is the same loop with every orbit a
singleton.

In deterministic mode the witness is the lexicographically smallest
maximum clique among the kept vertices (all of them, with no lex-min
search, when they form a clique).  That need not be the smallest of the
whole graph: for channel 00-11 at n=3 the witness is {000, 111}, while
{000, 011} is smaller.  It is chosen by decisions, one member at a time;
each decision that finds a clique returns it, and a candidate inside the
last clique found (at first the one branch and bound found) is kept
without a search.  The result's `deterministic` flag records which
mode chose the witness.

Branch and bound and the decisions share one table of proven failures
per search (`_FailTable`): an entry P -> k says the graph induced on
bitset P holds no clique of k vertices.  A node below the root records
P -> kmin when it ends with the incumbent unchanged, since every prune in
it compared against that incumbent, and a decision records P -> need
when it fails.  A node or decision whose P has an entry k at most its
kmin or need returns at once, and is not counted as a node.  The root is
neither looked up nor recorded, as it drops whole orbits.  The table
takes no new entry past its room, so it holds at most `FAIL_TABLE_BYTES`
and its effect is deterministic.  It changes no size and no
witness: a pruned subtree could not have raised the incumbent.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    ChannelGraph,
    Digraph,
    SpecError,
    check_vertex_cap,
    enumerate_walks,
    pack_rows,
    pair_shift_digraph,
    power_adjacency,
    spell,
    unpack_rows,
    upper_bits,
    walk_labels,
    walk_letters,
    walk_words,
)

# the odd constant whose powers weigh the twin cut's row hash (`_row_hashes`):
# 2^64 over the golden ratio
_ROW_HASH = 0x9E3779B97F4A7C15
# one search's table of proven failures (`_FailTable`) holds at most this
# many bytes, as tracemalloc counts them (`_fail_table_room`)
FAIL_TABLE_BYTES = 2**24
# a bound on a dict's bytes per entry, its growth included: a dict of r
# entries has fewer than 3r slots of at most 4 index bytes and 2r entries
# of 24 bytes, and while it grows the old table's half of that is held too
_DICT_ENTRY_BYTES = 90


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


def _color_classes(far: list[int], P: int, kmin: int
                   ) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring of bitset P, each class built lowest
    vertex first: the vertices whose color is at least kmin, class by
    class, and the color of each, so colors are nondecreasing.  The
    classes below kmin are stripped with nothing recorded."""
    order: list[int] = []
    colors: list[int] = []
    uncolored = P
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        if color < kmin:
            while q:
                low = q & -q
                uncolored ^= low
                q &= far[low.bit_length() - 1]
        else:
            while q:
                low = q & -q
                v = low.bit_length() - 1
                uncolored ^= low
                q &= far[v]
                order.append(v)
                colors.append(color)
    return order, colors


def _fail_table_room(n: int) -> int:
    """The entries of an n-vertex search's `_FailTable` that fit in
    FAIL_TABLE_BYTES: each key is an int below 2^n, whose object grows in
    30-bit digits, and a dict entry."""
    return FAIL_TABLE_BYTES // (sys.getsizeof((1 << n) - 1)
                                + _DICT_ENTRY_BYTES)


class _FailTable(dict):
    """Proven failures of one clique search: an entry P -> k says that the
    graph induced on bitset P holds no clique of k vertices.  It stops
    growing at `room` entries, while an entry already held can still be
    lowered, so it stays bounded and deterministic; lookups go on."""

    def __init__(self, room: int):
        super().__init__()
        self.room = room

    def __setitem__(self, P: int, k: int) -> None:
        if len(self) < self.room or P in self:
            super().__setitem__(P, k)


class _CliqueKernel:
    """Tomita-style branch and bound on non-neighbor masks: `far[v]` is the
    bitset of the vertices other than v that are not adjacent to v, so one
    coloring step is `q &= far[v]`, and v's neighbors in P, v among them,
    are `P & ~far[v] ^ 1 << v`.  A node colors only the vertices that can
    be branched on, those of color at least kmin = best - depth + 1.
    `orbit[v]` is the bitset of v's orbit under a group of automorphisms
    of the graph, or v alone.

    `fail` is the search's table of proven failures (`_FailTable`).  A
    node below the root whose P the table says holds no clique of some
    k <= kmin returns at once, and is not counted as a node.  A node
    below the root that ends with `best` unchanged records P -> kmin:
    every prune in it compared against that same `best`, so finding
    nothing proves omega(P) < kmin.  The root is neither looked up nor
    recorded, since it drops whole orbits."""

    def __init__(self, far: list[int], seed: Sequence[int],
                 orbit: list[int], fail: dict[int, int]):
        self.far = far
        self.single = [1 << v for v in range(len(far))]
        self.orbit = orbit
        self.fail = fail
        self.nodes = 0
        self.best = len(seed)
        self.best_set: list[int] = list(seed)

    def expand(self, R: list[int], P: int,
               root: tuple[list[int], list[int]] = ()) -> None:
        """Branch on the vertices of P, last color class first, dropping
        each from P once its branch is done.  `root` is P's full coloring
        at the root, where a branch drops its vertex's whole orbit: a
        clique through a dropped vertex has an image through the branched
        one that avoids the orbits dropped before, so
        omega = max_i (1 + omega(N(v_i) minus O_1 ... O_(i-1)))."""
        depth = len(R)
        best = self.best
        kmin = best - depth + 1
        if not root and self.fail.get(P, kmin + 1) <= kmin:
            return
        self.nodes += 1
        far = self.far
        entry = P
        order, colors = root or _color_classes(far, P, kmin)
        drop = self.orbit if root else self.single
        for i in range(len(order) - 1, -1, -1):
            if depth + colors[i] <= self.best:
                break
            v = order[i]
            if not P >> v & 1:
                continue  # dropped with an earlier vertex's orbit
            new_P = P & ~far[v] ^ 1 << v
            R.append(v)
            if new_P:
                self.expand(R, new_P)
            elif len(R) > self.best:
                self.best = len(R)
                self.best_set = list(R)
            R.pop()
            P &= ~drop[v]
        if not root and self.best == best:
            self.fail[entry] = kmin


def _greedy_clique(far: list[int], P: int) -> list[int]:
    """First-fit clique inside bitset P, lowest vertex first."""
    clique: list[int] = []
    while P:
        v = (P & -P).bit_length() - 1
        clique.append(v)
        P = P & ~far[v] ^ 1 << v
    return clique


def _has_clique_of_size(far: list[int], P: int, need: int,
                        kernel_nodes: list[int], fail: dict[int, int]
                        ) -> int | None:
    """Decision variant: the bitset of a clique of exactly `need` vertices
    inside bitset P, or None when the graph induced on P has none.  Greedy
    lower bound first, then the coloring bound: only vertices of color at
    least `need` are branched on.  `fail` is the table of proven failures
    (`_FailTable`): P with an entry k <= need returns None at once,
    without a node, and every None returned after a coloring records
    P -> need."""
    if need <= 0:
        return 0
    if P.bit_count() < need or fail.get(P, need + 1) <= need:
        return None
    clique = _greedy_clique(far, P)
    if len(clique) >= need:
        return sum(1 << v for v in clique[:need])
    order, _ = _color_classes(far, P, need)
    if not order:
        fail[P] = need
        return None
    kernel_nodes[0] += 1
    rest = P
    for v in reversed(order):
        # through the module attribute, where a tracer counts the calls
        found = _has_clique_of_size(far, rest & ~far[v] ^ 1 << v, need - 1,
                                    kernel_nodes, fail)
        if found is not None:
            return found | 1 << v
        rest ^= 1 << v
    fail[P] = need
    return None


def _lex_min_witness(far: list[int], P: int, size: int, nodes: list[int],
                     scan: Sequence[int], found: int, fail: dict[int, int]
                     ) -> list[int]:
    """The clique of the known maximum size inside bitset P that comes
    first in the order of `scan`, which lists P's members: each member in
    turn is kept when a clique of that size runs through it and the
    members kept so far.  `found` is the bitset of one such clique, at
    first any clique of that size inside P: a member inside it is kept
    without a search, and each decision search that finds a clique
    replaces it.  `fail` is the branch and bound's table of proven
    failures, on the same `far`: each decision reads and extends it."""
    chosen: list[int] = []
    kept = 0
    for v in scan:
        if len(chosen) == size:
            break
        if not P >> v & 1:
            continue
        near = P & ~far[v] ^ 1 << v
        if not found >> v & 1:
            rest = _has_clique_of_size(far, near, size - len(chosen) - 1,
                                       nodes, fail)
            if rest is None:
                continue
            found = rest | kept | 1 << v
        chosen.append(v)
        kept |= 1 << v
        P = near
    return chosen


def _rows_to_bitsets(rows: np.ndarray) -> list[int]:
    """The non-neighbor mask of each vertex of the graph on packed rows:
    far[v] is the Python-int bitset of the vertices other than v that are
    not adjacent to v, as wide as the graph."""
    full = (1 << rows.shape[0]) - 1
    return [full ^ (int.from_bytes(row.tobytes(), "little") | 1 << v)
            for v, row in enumerate(rows)]


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


def _orbit_bitsets(label: np.ndarray) -> list[int]:
    """The bitset of each vertex's orbit, the vertices that share its
    label."""
    members: dict[int, int] = {}
    for v, lab in enumerate(label.tolist()):
        members[lab] = members.get(lab, 0) | 1 << v
    return [members[lab] for lab in label.tolist()]


def max_clique_bitset(rows: np.ndarray, lex_min: bool = True,
                      automorphisms: Callable[[], np.ndarray] | None = None
                      ) -> SearchResult:
    """Exact maximum clique of the graph on the packed rows of vertices
    0..n-1.

    The search runs in one of two numberings, each a permutation `order`
    whose i-th vertex gets number i: the given one, or the smallest-last
    one of `_smallest_last`.  The greedy clique and greedy coloring in the
    given numbering come first; when they meet, the root closes.
    Otherwise branch and bound runs in whichever numbering's root coloring
    uses fewer colors, the given one on a tie, seeded with the larger
    greedy clique.  `automorphisms`, called only then, returns a group of
    automorphisms of the graph, one vertex permutation g per row (g[v] the
    image of v); the root branches once per orbit of that group.
    `lex_min` then replaces the witness by the lexicographically smallest
    maximum clique (deterministic mode), decided in the search's numbering
    with the candidates tried in vertex order, starting from the clique
    the search found.  Both read and fill one `_FailTable`, whose room is
    `_fail_table_room(n)` entries.

    The rows become one non-neighbor mask per vertex (`_rows_to_bitsets`).
    The root colorings are complete (`kmin` 1), since their last colors
    are compared; every coloring below the root keeps only the classes of
    color at least `kmin`, the ones it can branch on."""
    n = rows.shape[0]
    check_vertex_cap(n, "clique universe")
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    t0 = time.perf_counter()
    if n == 0:
        return SearchResult(0, [], 0, time.perf_counter() - t0, lex_min)
    P = (1 << n) - 1
    order = np.arange(n)
    far = _rows_to_bitsets(rows)
    seed = _greedy_clique(far, P)
    root = _color_classes(far, P, 1)
    if root[1][-1] > len(seed):
        sl_order = _smallest_last(rows)
        sl_far = _rows_to_bitsets(_induced_rows(rows, sl_order))
        sl_seed = sl_order[_greedy_clique(sl_far, P)].tolist()
        if len(sl_seed) > len(seed):
            seed = sl_seed
        sl_root = _color_classes(sl_far, P, 1)
        if sl_root[1][-1] < root[1][-1]:
            order, far, root = sl_order, sl_far, sl_root
    rank = np.argsort(order)  # the number of each vertex
    label = np.arange(n)
    if root[1][-1] > len(seed) and automorphisms is not None:
        # vertices share an orbit when they share their least image
        label = automorphisms().min(axis=0)[order]
    fail = _FailTable(_fail_table_room(n))
    kern = _CliqueKernel(far, rank[seed].tolist(), _orbit_bitsets(label),
                         fail)
    kern.expand([], P, root)
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min:
        witness = _lex_min_witness(far, P, kern.best, nodes, rank.tolist(),
                                   sum(1 << v for v in witness), fail)
    return SearchResult(kern.best, sorted(order[witness].tolist()), nodes[0],
                        time.perf_counter() - t0, lex_min)


def _subset_rows(words: np.ndarray, s: np.ndarray, t: np.ndarray,
                 wit: np.ndarray) -> np.ndarray:
    """Mask of the rows s[i] whose bits all lie in row t[i], over the
    uint64 words of the rows.  wit[i] is the index of a word where row
    s[i] had a bit that row t[i] lacked: where it still has one the pair is
    settled, and otherwise the two rows are tested in full and wit[i] moves
    to the first word that has one (0 when none does).  A stale pair whose
    s is already covered is not tested, and its wit[i] is left as it was:
    the mask is the same, and s leaves with the round.  Pairs go 2^16 at a
    time, and full rows about 2^16 gathered words at a time."""
    covered = np.zeros(words.shape[0], dtype=bool)
    step = 2**16 // words.shape[1]
    for c0 in range(0, len(s), 2**16):
        cs, ct, cw = (a[c0:c0 + 2**16] for a in (s, t, wit))
        stale = np.flatnonzero((words[cs, cw] & ~words[ct, cw]) == 0)
        for i0 in range(0, len(stale), step):
            i = stale[i0:i0 + step]
            i = i[~covered[cs[i]]]
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
    ~row & keep are cleared in rows not kept, and `upper_bits` lists
    their bits right of the diagonal."""
    n, width = rows.shape
    k = int(keep.sum())
    s, t = np.empty((2, (k * k - k - int(deg[keep].sum())) // 2),
                    np.min_scalar_type(n))
    if not len(s):
        return s, t
    keep_words = pack_rows(keep[None])[0]
    step = max(1, 2**14 // max(width, 1))
    at = 0
    for i0 in range(0, n, step):
        w = ~rows[i0:i0 + step] & keep_words
        w[~keep[i0:i0 + step]] = 0
        r, c = upper_bits(w, np.arange(i0, i0 + len(w)))
        np.add(r, i0, out=s[at:at + len(r)], casting="unsafe")
        t[at:at + len(r)] = c
        at += len(r)
    return s, t


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """One uint64 per packed row: its 32-bit halves, the low halves of
    words 0..w-1 and then the high ones, times the powers C, C^2, ...,
    C^2w of C = `_ROW_HASH`, summed with wrapping.  Halves keep a
    difference in the words' top bits from vanishing mod 2^64 (2^63 in
    two words does under any odd multipliers), and powers of C have no
    relation with small coefficients for rows to match (word multipliers
    C, 3C make the rows {0, 1} and {64} collide).  2^14 words of rows are
    hashed at a time."""
    n, width = rows.shape
    mult = np.multiply.accumulate(np.full(2 * width, _ROW_HASH, np.uint64))
    low, high = mult[:width], mult[width:]
    hashes = np.empty(n, np.uint64)
    step = max(1, 2**14 // max(width, 1))
    for r0 in range(0, n, step):
        block = rows[r0:r0 + step]
        hashes[r0:r0 + step] = ((block & np.uint64(2**32 - 1)) @ low
                                + (block >> np.uint64(32)) @ high)
    return hashes


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
    classes are cut to their smallest index up front: each row hashes to
    one uint64 (`_row_hashes`), and a row is cut where it equals the
    first row of its hash, compared a bounded block of rows at a time.  A
    twin whose hash came first with a different row is left to the
    rounds, which remove it by the same rule.  The other non-adjacent
    pairs are listed once (`_nonadjacent_pairs`), each as (s, t) with s
    the one t could cover: the smaller degree, or the larger index of
    twins.  Each pair keeps one cached word index, where N(s) last had a
    vertex N(t) lacked, at first (and again whenever a round flips the
    pair) the word of t's own bit, t >> 6: walks are numbered in
    lexicographic order, so that word's vertices share t's leading
    coordinates and few are t's neighbors.  `_subset_rows` re-checks the
    word every round and tests the whole rows only where it no longer
    witnesses and s is not yet covered, so a stale word costs at most one
    full test and is never trusted.  Each round first drops the pairs of
    removed vertices and re-orients the rest, in place, 2^14 pairs at a
    time; degrees are popcounts of the words."""
    n, width = rows.shape
    _, first, inverse = np.unique(_row_hashes(rows), return_index=True,
                                  return_inverse=True)
    head = first[inverse]  # the first row of each row's hash
    keep = np.ones(n, dtype=bool)
    same = np.flatnonzero(head != np.arange(n))
    step = max(1, 2**14 // max(width, 1))
    for i0 in range(0, len(same), step):
        i = same[i0:i0 + step]
        keep[i] = (rows[i] != rows[head[i]]).any(axis=1)
    rows &= pack_rows(keep[None])
    deg = np.bitwise_count(rows).sum(axis=1, dtype=np.int32)
    s, t = _nonadjacent_pairs(rows, keep, deg)
    wit = np.empty(len(s), dtype=np.min_scalar_type(width - 1))
    np.right_shift(t, 6, out=wit, casting="unsafe")
    while len(s):
        at = 0
        for c0 in range(0, len(s), 2**14):
            cs, ct, cw = (a[c0:c0 + 2**14] for a in (s, t, wit))
            live = keep[cs] & keep[ct]
            cs, ct, cw = cs[live], ct[live], cw[live]
            ds, dt = deg[cs], deg[ct]
            flip = (ds > dt) | ((ds == dt) & (cs < ct))
            cs[flip], ct[flip] = ct[flip], cs[flip]
            cw[flip] = ct[flip] >> 6
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


def _solve_clique(rows: np.ndarray, lex_min: bool, t0: float,
                  automorphisms: Callable[[], np.ndarray] | None = None
                  ) -> SearchResult:
    """The search pipeline for packed rows: dominance reduction, the
    packed rows of the kept set compacted once, branch and bound on them.
    When the k kept rows' popcounts sum to k(k - 1), the kept set is a
    clique, the only maximum clique, and it is returned before the
    compaction with `nodes_explored` 1, the result the kernel gives after
    its one node.  `automorphisms` returns a group of the rows' graph, as
    for `max_clique_bitset`; the search gets the elements that map the
    kept set onto itself, which form a group of the graph it induces.
    The witness holds row indices; `elapsed` counts from t0."""
    keep = dominated_vertex_mask(rows)
    kept = np.flatnonzero(keep)
    k = len(kept)
    if k and np.bitwise_count(rows[kept]).sum() == k * (k - 1):
        # a kept row holds at most the k - 1 other kept bits
        return SearchResult(k, kept.tolist(), 1, time.perf_counter() - t0,
                            lex_min)
    # the full rows are let go before the search
    rows = _induced_rows(rows, kept)

    def kept_automorphisms() -> np.ndarray:
        g = automorphisms()
        # the reduction's ties go by index, which the group need not keep
        g = g[(keep[g] == keep).all(axis=1)]
        return (np.cumsum(keep) - 1)[g[:, kept]]

    res = max_clique_bitset(rows, lex_min, kept_automorphisms
                            if automorphisms else None)
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
        # a transposed view makes the power's column gathers strided
        rows &= power_adjacency(np.ascontiguousarray(arc.T), walks, walks)
    return rows


def _walk_keys(walks: np.ndarray) -> np.ndarray:
    """One byte string per walk, the walk in big-endian 16-bit digits, so
    the keys sort as the walks do."""
    digits = np.ascontiguousarray(walks, dtype=">u2")
    return digits.view(f"V{digits.itemsize * walks.shape[1]}").ravel()


def _walk_automorphisms(arc: np.ndarray, P: Digraph, walks: np.ndarray
                        ) -> np.ndarray:
    """A group of automorphisms of `distinguishability_matrix(arc, walks)`
    on the walks V^m(P), in lexicographic order: one walk permutation g
    per row, g[v] the index of the image of walk v.

    A relabeling s of the k vertices acts on every coordinate of a walk.
    It is taken when it maps arc onto arc or onto arc.T (adjacency asks
    for an arc each way, so arc.T gives the same graph) and P onto P, and
    composed with walk reversal when it maps P onto P.T; reversal permutes
    the coordinates and so keeps adjacency.  Every s in S_k is tried for
    k <= 6, only the identity for larger k.  Images are found by one
    searchsorted on the walks' keys."""
    k = arc.shape[0]
    p = P.arc_matrix()
    if k <= 6:
        relabel = np.array(list(itertools.permutations(range(k))))
    else:
        relabel = np.arange(k)[None]
    # [j, a, b] = arc[s_j(a), s_j(b)]: s_j maps arc onto that pattern
    at = (relabel[:, :, None], relabel[:, None, :])
    moved, moved_p = arc[at], p[at]
    keeps_arc = ((moved == arc).all(axis=(1, 2))
                 | (moved == arc.T).all(axis=(1, 2)))
    keys = _walk_keys(walks)
    perms = []
    for j in np.flatnonzero(keeps_arc):
        for image, target in ((walks, p), (walks[:, ::-1], p.T)):
            if np.array_equal(moved_p[j], target):
                perms.append(np.searchsorted(
                    keys, _walk_keys(relabel[j][image])))
    return np.array(perms)


def _omega(arc: np.ndarray, P: Digraph, m: int, lex_min: bool
           ) -> tuple[SearchResult, np.ndarray]:
    """The one route of every problem here: the maximum clique of
    `distinguishability_matrix(arc, V^m(P))`, searched with the walk
    group of `_walk_automorphisms`.  Returns the result, whose witness
    holds row indices, and the walk array, in lexicographic order."""
    t0 = time.perf_counter()
    walks = enumerate_walks(P, m)
    res = _solve_clique(distinguishability_matrix(arc, walks), lex_min, t0,
                        lambda: _walk_automorphisms(arc, P, walks))
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
    res, walks = _omega(G.arc_matrix(), pair_shift_digraph(), n - 1,
                        lex_min)
    res.witness = spell(walk_words(walks[res.witness]))
    return res


def omega_power_markov(G: ChannelGraph, P: Digraph, m: int, *,
                       lex_min: bool = True) -> SearchResult:
    """omega of the graph the m-th power of G induces on the walk set
    V^m(P); P's vertices index the pair alphabet."""
    if P.k != 4:
        raise SpecError("omega_power_markov expects a digraph on the 4 "
                        "pair letters")
    res, walks = _omega(G.arc_matrix(), P, m, lex_min)
    res.witness = spell(walk_letters(walks[res.witness]))
    return res


def omega_s(D: Digraph, P: Digraph, n: int, *,
            lex_min: bool = True) -> SearchResult:
    """Largest symmetric clique of the n-th power of digraph D restricted to
    V^n(P): every ordered pair of distinct members must have a coordinate
    arc in each direction.  Loop arcs of D are ignored."""
    if D.k != P.k:
        raise SpecError(f"vertex-count mismatch: D has {D.k}, P has {P.k}")
    res, walks = _omega(D.without_loops().arc_matrix(), P, n, lex_min)
    res.witness = spell(walk_labels(walks[res.witness], D.k))
    return res
