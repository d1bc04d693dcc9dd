"""The clique kernel against a reference kernel: the same search on
little-endian bitsets, vertex v at bit v, which finds each bitset's lowest
vertex by `q & -q`.  Both make the same branching decisions, so sizes,
witnesses and node counts agree exactly.  The smallest-last order and the
walk group are checked against plain-loop references the same way, and
the lex-min witness, with the walk group and without it, against
networkx."""

import itertools
import sys
from typing import Callable
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zecap.search
from zecap.model import (
    FIBONACCI_DIGRAPH,
    SINGLE_ARC_DIGRAPH,
    Digraph,
    complete_digraph,
    cycle_sym_digraph,
    enumerate_walks,
    pack_rows,
    parse_digraph_spec,
    unpack_rows,
)
from zecap.search import (
    SearchResult,
    _FailTable,
    _fail_table_room,
    _induced_rows,
    _smallest_last,
    _walk_automorphisms,
    _walk_keys,
    max_clique_bitset,
    omega_s,
)


def reference_color_classes(far, P, kmin):
    order, colors = [], []
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


class ReferenceKernel:
    def __init__(self, far, seed, orbit, fail):
        self.far = far
        self.single = [1 << v for v in range(len(far))]
        self.orbit = orbit
        self.fail = fail
        self.nodes = 0
        self.best = len(seed)
        self.best_set = list(seed)

    def expand(self, R, P, root=()):
        depth = len(R)
        best = self.best
        kmin = best - depth + 1
        if not root and self.fail.get(P, kmin + 1) <= kmin:
            return
        self.nodes += 1
        far = self.far
        entry = P
        order, colors = root or reference_color_classes(far, P, kmin)
        drop = self.orbit if root else self.single
        for i in range(len(order) - 1, -1, -1):
            if depth + colors[i] <= self.best:
                break
            v = order[i]
            if not P >> v & 1:
                continue
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


def reference_greedy_clique(far, P):
    clique = []
    while P:
        v = (P & -P).bit_length() - 1
        clique.append(v)
        P = P & ~far[v] ^ 1 << v
    return clique


def reference_has_clique_of_size(far, P, need, kernel_nodes, fail):
    if need <= 0:
        return 0
    if P.bit_count() < need or fail.get(P, need + 1) <= need:
        return None
    clique = reference_greedy_clique(far, P)
    if len(clique) >= need:
        return sum(1 << v for v in clique[:need])
    order, _ = reference_color_classes(far, P, need)
    if not order:
        fail[P] = need
        return None
    kernel_nodes[0] += 1
    rest = P
    for v in reversed(order):
        found = reference_has_clique_of_size(
            far, rest & ~far[v] ^ 1 << v, need - 1, kernel_nodes, fail)
        if found is not None:
            return found | 1 << v
        rest ^= 1 << v
    fail[P] = need
    return None


def reference_lex_min_witness(far, P, size, nodes, scan, found, group,
                              orbit, fail):
    chosen, kept = [], 0
    for v in scan:
        if len(chosen) == size:
            break
        if not P >> v & 1:
            continue
        P ^= 1 << v
        near = P & ~far[v]
        hit = orbit[v] & found
        if not hit:
            rest = reference_has_clique_of_size(
                far, near, size - len(chosen) - 1, nodes, fail)
            if rest is None:
                P &= ~orbit[v]
                continue
            found = rest | kept | 1 << v
        elif not found >> v & 1:
            w = (hit & -hit).bit_length() - 1
            g = next(g for g in group if g[w] == v)
            found = sum(1 << int(g[u]) for u in range(len(g))
                        if found >> u & 1)
        chosen.append(v)
        kept |= 1 << v
        P = near
        group = group[group[:, v] == v]
        orbit = reference_orbit_bitsets(group)
    return chosen


def reference_rows_to_bitsets(rows):
    full = (1 << rows.shape[0]) - 1
    return [full ^ (int.from_bytes(row.tobytes(), "little") | 1 << v)
            for v, row in enumerate(rows)]


def reference_smallest_last(rows):
    n = rows.shape[0]
    deg = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    order = np.empty(n, np.intp)
    for i in range(n - 1, -1, -1):
        v = n - 1 - int(np.argmin(deg[::-1]))
        order[i] = v
        deg -= unpack_rows(rows[v:v + 1], n)[0]
        deg[v] = 2 * n
    return order


def reference_orbit_bitsets(group):
    label = group.min(axis=0).tolist()
    members = {}
    for v, lab in enumerate(label):
        members[lab] = members.get(lab, 0) | 1 << v
    return [members[lab] for lab in label]


def reference_max_clique_bitset(
        rows: np.ndarray, lex_min: bool = True,
        automorphisms: Callable[[], np.ndarray] | None = None
) -> SearchResult:
    """`max_clique_bitset` on little-endian bitsets: one non-neighbor mask
    per vertex, each bitset's lowest vertex found by `q & -q`."""
    n = rows.shape[0]
    if sys.getrecursionlimit() < n + 1000:
        sys.setrecursionlimit(n + 1000)
    if n == 0:
        return SearchResult(0, [], 0, 0.0, lex_min)
    P = (1 << n) - 1
    order = np.arange(n)
    far = reference_rows_to_bitsets(rows)
    seed = reference_greedy_clique(far, P)
    root = reference_color_classes(far, P, 1)
    if root[1][-1] > len(seed):
        sl_order = reference_smallest_last(rows)
        sl_far = reference_rows_to_bitsets(_induced_rows(rows, sl_order))
        sl_seed = sl_order[reference_greedy_clique(sl_far, P)].tolist()
        if len(sl_seed) > len(seed):
            seed = sl_seed
        sl_root = reference_color_classes(sl_far, P, 1)
        if sl_root[1][-1] < root[1][-1]:
            order, far, root = sl_order, sl_far, sl_root
    rank = np.argsort(order)
    # the group on search numbers: g maps vertex order[i] to g[order[i]]
    group = np.arange(n)[None]
    if root[1][-1] > len(seed) and automorphisms is not None:
        group = rank[automorphisms()[:, order]]
    orbit = reference_orbit_bitsets(group)
    fail = _FailTable(_fail_table_room(n))
    kern = ReferenceKernel(far, rank[seed].tolist(), orbit, fail)
    kern.expand([], P, root)
    witness = kern.best_set
    nodes = [kern.nodes]
    if lex_min:
        witness = reference_lex_min_witness(
            far, P, kern.best, nodes, rank.tolist(),
            sum(1 << v for v in witness), group, orbit, fail)
    return SearchResult(kern.best, sorted(order[witness].tolist()), nodes[0],
                        0.0, lex_min)


def reference_walk_automorphisms(arc: np.ndarray, P: Digraph,
                                 walks: np.ndarray) -> np.ndarray:
    """`_walk_automorphisms` by a loop, one searchsorted per element."""
    k = arc.shape[0]
    p = P.arc_matrix()
    if k <= 6:
        relabel = np.array(list(itertools.permutations(range(k))))
    else:
        relabel = np.arange(k)[None]
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


def outcome(res: SearchResult) -> tuple:
    return res.size, res.witness, res.nodes_explored, res.deterministic


def random_graph(size, density, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((size, size)) < density, 1)
    return upper | upper.T


@settings(max_examples=200, deadline=None)
@example(size=70, density=0.9, seed=1, lex_min=True)
@example(size=70, density=0.5, seed=2, lex_min=False)
@example(size=0, density=0.0, seed=0, lex_min=True)
@given(size=st.integers(0, 70), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), lex_min=st.booleans())
def test_kernel_matches_reference_on_random_graphs(size, density, seed,
                                                   lex_min):
    rows = pack_rows(random_graph(size, density, seed))
    assert outcome(max_clique_bitset(rows, lex_min)) \
        == outcome(reference_max_clique_bitset(rows, lex_min))


@st.composite
def digraph_pair(draw):
    """A digraph D and a type digraph P on the same 1..4 vertices, P
    closed under reversal half the time."""
    k = draw(st.integers(1, 4))
    pairs = st.sampled_from(list(itertools.product(range(k), repeat=2)))
    D, P = (draw(st.sets(pairs)) for _ in range(2))
    if draw(st.booleans()):
        P |= {(b, a) for a, b in P}
    return Digraph(k, frozenset(D)), Digraph(k, frozenset(P))


@settings(max_examples=150, deadline=None)
@example(pair=(cycle_sym_digraph(5), complete_digraph(5)), n=3,
         lex_min=True)
@example(pair=(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH), n=9, lex_min=True)
@example(pair=(parse_digraph_spec("1>0;2>1", 3),
               parse_digraph_spec("0>1;0>2;1>0;1>2;2>0;2>1", 3)),
         n=3, lex_min=False)
@given(pair=digraph_pair(), n=st.integers(1, 3), lex_min=st.booleans())
def test_kernel_matches_reference_under_a_walk_group(pair, n, lex_min):
    # every search omega_s hands the kernel, with its group, run by both
    D, P = pair
    seen = []
    search = zecap.search.max_clique_bitset

    def both(rows, lex_min=True, automorphisms=None):
        res = search(rows, lex_min, automorphisms)
        seen.append((outcome(res), outcome(reference_max_clique_bitset(
            rows, lex_min, automorphisms))))
        return res

    with mock.patch.object(zecap.search, "max_clique_bitset", both):
        omega_s(D, P, n, lex_min=lex_min)
    for got, want in seen:
        assert got == want


def clique_number(g):
    return nx.max_weight_clique(g, weight=None)[1]


def lex_min_maximum_clique(adj, omega):
    """networkx's lexicographically smallest clique of omega vertices in
    adj: each vertex in turn is taken when a clique of that size runs
    through it and the vertices taken so far, found among the maximal
    cliques of their common neighbors."""
    g = nx.from_numpy_array(adj)
    chosen, near = [], set(g)
    for v in range(len(adj)):
        need = omega - len(chosen) - 1
        if v in near and (need == 0 or any(
                len(c) >= need
                for c in nx.find_cliques(g.subgraph(near & set(g[v]))))):
            chosen.append(v)
            near &= set(g[v])
    return chosen


def relabelings(D, k):
    """Every distinct digraph obtained by relabeling D's vertices."""
    return list({frozenset((p[a], p[b]) for a, b in D.arcs): None
                 for p in itertools.permutations(range(k))})


def assert_group_keeps_every_lex_min_witness(D, P, n, omega=None):
    """Every search omega_s hands the kernel, run again with its group and
    without one: both witnesses are networkx's lex-min maximum clique.
    `omega`, when given, is the clique number of every such graph."""
    seen = []
    search = zecap.search.max_clique_bitset

    def spy(rows, lex_min=True, automorphisms=None):
        seen.append((rows, automorphisms))
        return search(rows, lex_min, automorphisms)

    with mock.patch.object(zecap.search, "max_clique_bitset", spy):
        omega_s(D, P, n)
    for rows, automorphisms in seen:
        grouped = max_clique_bitset(rows, True, automorphisms)
        plain = max_clique_bitset(rows, True, None)
        adj = unpack_rows(rows, rows.shape[0])
        size = omega or clique_number(nx.from_numpy_array(adj))
        assert (grouped.size, grouped.witness) \
            == (plain.size, plain.witness) \
            == (size, lex_min_maximum_clique(adj, size))


@settings(max_examples=100, deadline=None)
@given(pair=digraph_pair(), n=st.integers(1, 3))
def test_lex_min_witness_is_the_same_with_and_without_the_group(pair, n):
    assert_group_keeps_every_lex_min_witness(*pair, n)


@pytest.fixture(scope="module")
def pentagon_omega():
    # one clique number serves all 12 labelings: a relabeling of the
    # pentagon's vertices relabels the walks of K5 onto themselves
    walks = enumerate_walks(complete_digraph(5), 3)
    rows = zecap.search.distinguishability_matrix(
        cycle_sym_digraph(5).arc_matrix(), walks)
    return clique_number(nx.from_numpy_array(unpack_rows(rows, len(walks))))


@pytest.mark.parametrize("arcs", relabelings(cycle_sym_digraph(5), 5))
def test_pentagon_lex_min_witness_is_the_same_without_the_group(
        arcs, pentagon_omega):
    assert pentagon_omega == 10
    assert_group_keeps_every_lex_min_witness(
        Digraph(5, arcs), complete_digraph(5), 3, pentagon_omega)


def circulant(size, steps):
    """The regular graph joining i and i +- d mod size for d in steps."""
    adj = np.zeros((size, size), bool)
    for d in steps:
        i = np.arange(size)
        adj[i, (i + d) % size] = adj[(i + d) % size, i] = True
    np.fill_diagonal(adj, False)
    return adj


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 216),
       kind=st.sampled_from(["random", "regular", "empty", "complete"]),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_smallest_last_matches_the_reference(size, kind, density, seed):
    # a regular graph ties every vertex at every step of the first round
    if kind == "random":
        adj = random_graph(size, density, seed)
    elif kind == "regular":
        rng = np.random.default_rng(seed)
        adj = circulant(size, rng.choice(np.arange(1, size // 2 + 1),
                                         min(3, size // 2), replace=False))
    else:
        adj = ~np.eye(size, dtype=bool) if kind == "complete" \
            else np.zeros((size, size), bool)
    rows = pack_rows(adj)
    np.testing.assert_array_equal(_smallest_last(rows),
                                  reference_smallest_last(rows))


@pytest.mark.parametrize("D, P, n", [
    *((Digraph(5, arcs), complete_digraph(5), 3)
      for arcs in relabelings(cycle_sym_digraph(5), 5)),
    (cycle_sym_digraph(6), complete_digraph(6), 3),
    (SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 12),
    (parse_digraph_spec("1>0", 2), FIBONACCI_DIGRAPH, 12),
    (cycle_sym_digraph(7), complete_digraph(7), 2),
])
def test_walk_automorphisms_match_the_reference(D, P, n):
    # rows in the same order, element for element
    arc = D.without_loops().arc_matrix()
    walks = enumerate_walks(P, n)
    got = _walk_automorphisms(arc, P, walks)
    want = reference_walk_automorphisms(arc, P, walks)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)

