import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zecap.model import (
    Digraph,
    FIBONACCI_DIGRAPH,
    MAX_VERTICES,
    NAMED_CHANNELS,
    PAIR_LETTERS,
    ResourceCapExceeded,
    SINGLE_ARC_DIGRAPH,
    TRIANGLE_F,
    TRIANGLE_G,
    all_words,
    complete_digraph,
    cycle_sym_digraph,
    distinguishable,
    enumerate_walks,
    pair_shift_digraph,
    parse_channel_spec,
    unpack_rows,
)
import zecap.search
from zecap.search import (
    _induced_rows,
    _nonadjacent_pairs,
    _smallest_last,
    _subset_rows,
    distinguishability_matrix,
    dominated_vertex_mask,
    exact_M,
    max_clique,
    max_clique_bitset,
    omega_power_markov,
    omega_s,
)

EDGELESS = parse_channel_spec("")
SINGLE_EDGE_0011 = parse_channel_spec("00-11")
# every channel: each subset of the six edges on the pair letters
ALL_CHANNELS = [
    parse_channel_spec(";".join(f"{a}-{b}" for k, (a, b) in enumerate(
        itertools.combinations(PAIR_LETTERS, 2)) if mask >> k & 1))
    for mask in range(64)]
# 00-01;00-10;01-11 and its bit-complement and reversal images: dominance
# removes two vertices a round for 2^(n-2) rounds
MANY_ROUNDS_ORBIT = ("00-01;00-10;01-11", "00-10;01-11;10-11",
                     "00-01;00-10;10-11", "00-01;01-11;10-11")


def word_graph(G, n):
    """The distinguishability graph of the length-n words, n >= 2: G's
    power over the pair-shift walks of length n-1, in word order, as a
    boolean matrix."""
    walks = enumerate_walks(pair_shift_digraph(), n - 1)
    return unpack_rows(distinguishability_matrix(G.arc_matrix(), walks),
                       2**n)


def pack_rows(adj):
    """A boolean matrix in the packed-row format of `power_adjacency`:
    little-endian uint64 words zero-padded to whole words."""
    adj = np.pad(adj, ((0, 0), (0, -adj.shape[1] % 64)))
    return np.packbits(adj, axis=1, bitorder="little").view("<u8")


def subset_oracle_M(G, n):
    """Independent oracle: largest pairwise-distinguishable subset by
    scanning every subset of {0,1}^n.  Usable for n <= 3."""
    words = list(all_words(n))
    best = 0
    for r in range(len(words), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(words, r):
            if all(distinguishable(x, y, G)
                   for x, y in itertools.combinations(combo, 2)):
                best = r
                break
    return best


def naive_exact_M(G, n):
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

    def grow(size, P):
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


def dilworth_max_antichain(elements, leq):
    """Maximum antichain size via Dilworth's theorem: n minus a maximum
    bipartite matching of the strict order relation."""
    g = nx.Graph()
    left = [("L", e) for e in elements]
    g.add_nodes_from(left, bipartite=0)
    g.add_nodes_from((("R", e) for e in elements), bipartite=1)
    for u in elements:
        for v in elements:
            if u != v and leq(u, v):
                g.add_edge(("L", u), ("R", v))
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
    return len(elements) - len(matching) // 2


class TestMaxClique:
    def test_triangle(self):
        res = max_clique([0, 1, 2], lambda a, b: True)
        assert res.size == 3
        assert sorted(res.witness) == [0, 1, 2]

    def test_edgeless(self):
        res = max_clique(list(range(7)), lambda a, b: False)
        assert res.size == 1

    def test_five_cycle(self):
        def adj(a, b):
            return abs(a - b) in (1, 4)
        res = max_clique(list(range(5)), adj)
        assert res.size == 2

    def test_witness_is_clique(self):
        def adj(a, b):
            return (a + b) % 3 != 0
        res = max_clique(list(range(12)), adj)
        for a, b in itertools.combinations(res.witness, 2):
            assert adj(a, b)

    def test_lex_min_witness(self):
        # two maximum cliques {0,1} and {2,3}; deterministic mode returns
        # the lexicographically smallest
        edges = {(0, 1), (2, 3)}
        res = max_clique(list(range(4)),
                         lambda a, b: tuple(sorted((a, b))) in edges)
        assert res.witness == [0, 1]

    def test_cap_before_predicate(self):
        calls = []
        with pytest.raises(ResourceCapExceeded, match="exceeds cap"):
            max_clique(range(MAX_VERTICES + 1),
                       lambda a, b: calls.append((a, b)))
        assert calls == []


class TestDeterministicFlag:
    """`deterministic` reports the lex_min mode the witness was chosen in,
    for every problem and for the n=1 shortcut of exact_M."""

    @pytest.mark.parametrize("lex_min", [True, False])
    def test_every_problem(self, lex_min):
        results = [
            exact_M(TRIANGLE_F, 1, lex_min=lex_min),
            exact_M(TRIANGLE_F, 5, lex_min=lex_min),
            omega_power_markov(TRIANGLE_F, pair_shift_digraph(), 3,
                               lex_min=lex_min),
            omega_s(cycle_sym_digraph(5), complete_digraph(5), 2,
                    lex_min=lex_min),
            omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 4,
                    lex_min=lex_min),
            max_clique(list(range(5)), lambda a, b: abs(a - b) in (1, 4),
                       lex_min=lex_min),
        ]
        assert [r.deterministic for r in results] == [lex_min] * 6
        assert all(r.to_record("p", 1)["deterministic"] is lex_min
                   for r in results)


def reference_dominance_round(a):
    """One dominance round by a dense matrix product: count |N(u) & N(v)|
    for every pair of the graph on the boolean matrix a, and mark every
    vertex with a strict dominator or a twin of smaller index."""
    f = a.astype(np.float32)
    common = (f @ f.T).astype(np.int64)
    dom = (~a) & (common == a.sum(axis=1)[:, None])  # v covers u
    np.fill_diagonal(dom, False)
    twins = dom & dom.T
    return (dom & ~dom.T).any(axis=1) | np.tril(twins, k=-1).any(axis=1)


def reference_dominated_vertex_mask(adj):
    """The dominance rounds of `reference_dominance_round` on the surviving
    subgraph, until a round removes nothing."""
    keep = np.ones(adj.shape[0], dtype=bool)
    while True:
        idx = np.flatnonzero(keep)
        remove = reference_dominance_round(adj[np.ix_(idx, idx)])
        if not remove.any():
            return keep
        keep[idx[remove]] = False


def random_graph(size, kind, density, seed):
    """A symmetric loop-free boolean adjacency matrix.  "twins" blows up a
    random graph on about size/8 vertices, so copies of a vertex are twins."""
    rng = np.random.default_rng(seed)
    if kind == "twins":
        k = max(1, size // 8)
        base = np.triu(rng.random((k, k)) < density, 1)
        cls = rng.integers(0, k, size)
        adj = (base | base.T)[np.ix_(cls, cls)]
    else:
        p = {"empty": 0.0, "complete": 1.0}.get(kind, density)
        upper = np.triu(rng.random((size, size)) < p, 1)
        adj = upper | upper.T
    np.fill_diagonal(adj, False)
    return adj


class TestDominatedVertexMask:
    @settings(max_examples=80, deadline=None)
    @example(size=65, kind="empty", density=0.0, seed=0)
    @example(size=65, kind="complete", density=0.0, seed=0)
    @example(size=130, kind="twins", density=0.5, seed=0)
    @given(size=st.sampled_from([0, 1, 2, 63, 64, 65, 130, 257, 520]),
           kind=st.sampled_from(["random", "empty", "complete", "twins"]),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_on_random_graphs(self, size, kind, density,
                                                seed):
        adj = random_graph(size, kind, density, seed)
        rows = pack_rows(adj)
        keep = dominated_vertex_mask(rows)
        np.testing.assert_array_equal(keep,
                                      reference_dominated_vertex_mask(adj))
        # the removed vertices' bits are cleared from every row in place
        np.testing.assert_array_equal(unpack_rows(rows, size), adj & keep)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_reference_on_every_channel(self, n):
        for G in ALL_CHANNELS:
            adj = word_graph(G, n)
            np.testing.assert_array_equal(
                dominated_vertex_mask(pack_rows(adj)),
                reference_dominated_vertex_mask(adj), err_msg=G.to_spec())

    @pytest.mark.parametrize("spec", ["F", "G", "L", "Q", "00-11", ""])
    def test_matches_reference_at_2048_vertices(self, spec):
        # pairs are listed in 4 blocks of 512 rows of 32 words, and a round
        # that removes vertices across the row clears their columns in as
        # many chunks
        G = NAMED_CHANNELS.get(spec) or parse_channel_spec(spec)
        adj = word_graph(G, 11)
        np.testing.assert_array_equal(dominated_vertex_mask(pack_rows(adj)),
                                      reference_dominated_vertex_mask(adj))

    @pytest.mark.parametrize("n", [10, 11])
    def test_every_channel_ends_at_a_fixpoint(self, n):
        # 16 and 32 words a row, where the many-rounds orbit leaves cached
        # witness words stale; one reference round on the kept subgraph
        # stands in for the reference's 2^(n-2) rounds.  A vertex adjacent
        # to every other kept one is in no dominance, and lies in every
        # other kept neighborhood, so the round leaves such vertices out.
        for G in ALL_CHANNELS:
            adj = word_graph(G, n)
            rows = pack_rows(adj)
            keep = dominated_vertex_mask(rows)
            np.testing.assert_array_equal(rows, pack_rows(adj & keep),
                                          err_msg=G.to_spec())
            deg = (adj & keep).sum(axis=1)
            rest = keep & (deg < keep.sum() - 1)
            assert not reference_dominance_round(
                adj[np.ix_(rest, rest)]).any(), G.to_spec()


def test_subset_rows_matches_unpacked_test():
    # 512 columns make 8 words a row, the first 5 used.  Pair i has its own
    # rows s = 2i and t = 2i + 1, and one of six kinds.  The 70 000 pairs
    # span two chunks of 2^16 pairs, and their stale words several chunks
    # of 8192 full rows, the last of each partial.
    rng = np.random.default_rng(0)
    m, used = 70_000, 300
    kind = np.arange(m) % 6
    t_bits = rng.random((m, used)) < 0.5
    # kind 0: s a strict subset of t, with any cached word
    s_bits = t_bits & (rng.random((m, used)) < 0.5)
    # kind 1: equal rows
    s_bits[kind == 1] = t_bits[kind == 1]
    wit = rng.integers(0, 8, m)
    word = rng.integers(0, 4, m)
    # the one column where s has a bit t lacks: bit 63 of a word (kind 2),
    # the last used column (kind 3), or a column of a word that the cached
    # word misses (kind 4) or hits (kind 5)
    col = np.where(kind == 2, 64 * word + 63, 64 * word + 7)
    col[kind == 3] = used - 1
    wit[kind == 4] = word[kind == 4] + 1
    wit[kind == 5] = word[kind == 5]
    one = np.flatnonzero(kind >= 2)
    t_bits[one, col[one]] = False
    s_bits[one, col[one]] = True
    bits = np.zeros((2 * m, 512), dtype=bool)
    bits[0::2, :used], bits[1::2, :used] = s_bits, t_bits
    words = pack_rows(bits)
    s = np.arange(0, 2 * m, 2, dtype=np.uint32)
    t = s + 1
    wit = wit.astype(np.uint8)
    subset = ~(s_bits & ~t_bits).any(axis=1)
    np.testing.assert_array_equal(subset, kind < 2)
    assert (s_bits != t_bits).any(axis=1)[kind == 0].all()
    cached = words[s, wit] & ~words[t, wit] != 0
    np.testing.assert_array_equal(cached[kind >= 4], kind[kind >= 4] == 5)
    covered = _subset_rows(words, s, t, wit)
    want = np.zeros(2 * m, dtype=bool)
    want[s[subset]] = True
    np.testing.assert_array_equal(covered, want)
    # every pair that is no subset is left on a word that witnesses it
    assert (words[s, wit] & ~words[t, wit] != 0)[~subset].all()


def oracle_nonadjacent_pairs(adj, keep):
    """(i, j), i < j, for kept i and j that are not adjacent, in row-major
    order, from the unpacked matrix."""
    ones = np.ones(adj.shape, dtype=bool)
    return np.nonzero(~adj & keep & keep[:, None] & np.triu(ones, 1))


# 2100 vertices are listed in 5 blocks of 496 rows of 33 words
@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 127, 128, 255, 256, 257,
                                  520, 2100])
@pytest.mark.parametrize("kind", ["holes", "edgeless", "complete",
                                  "boundary"])
def test_nonadjacent_pairs_match_unpacked_scan(size, kind):
    # "holes" drops random vertices from a random graph; "boundary" is a
    # complete graph less the edges of the rows i % 64 == 63 and i = n - 1,
    # whose diagonal bit is the last of its word or the last of the row
    rng = np.random.default_rng(size)
    keep = np.ones(size, dtype=bool)
    if kind == "holes":
        adj = random_graph(size, "random", 0.5, size)
        keep = rng.random(size) >= 0.3
    elif kind == "boundary":
        adj = random_graph(size, "complete", 0.0, 0)
        cut = (np.arange(size) % 64 == 63) | (np.arange(size) == size - 1)
        adj[cut] = adj[:, cut] = False
    else:
        adj = random_graph(size, {"edgeless": "empty"}.get(kind, kind), 0.0, 0)
    deg = (adj & keep).sum(axis=1)
    s, t = _nonadjacent_pairs(pack_rows(adj), keep, deg)
    want_s, want_t = oracle_nonadjacent_pairs(adj, keep)
    # the arrays are filled exactly: no leftover of their allocation
    assert len(s) == len(t) == len(want_s)
    order = np.lexsort((t, s))
    np.testing.assert_array_equal(s[order], want_s)
    np.testing.assert_array_equal(t[order], want_t)


@pytest.mark.parametrize("lex_min", [True, False])
def test_edgeless_bitset_seeds_a_vertex(lex_min):
    # the greedy seed of a nonempty graph is at least one vertex
    res = max_clique_bitset(pack_rows(np.zeros((5, 5), bool)), lex_min)
    assert (res.size, res.witness) == (1, [0])


def test_clique_witness_skips_no_nodes():
    # on a clique of every vertex the lex-min search is skipped; witness
    # and node count are those of the search without it
    rows = pack_rows(~np.eye(6, dtype=bool))
    plain = max_clique_bitset(rows, lex_min=False)
    res = max_clique_bitset(rows)
    assert res.witness == list(range(6)) == plain.witness
    assert res.nodes_explored == plain.nodes_explored


# the example unpacks its 2100-vertex rows 499 at a time
@settings(max_examples=100, deadline=None)
@example(size=2100, density=0.3, seed=0, drop=0.3, shuffle=True)
@given(size=st.integers(0, 300), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), drop=st.floats(0.0, 1.0),
       shuffle=st.booleans())
def test_induced_rows_matches_submatrix(size, density, seed, drop, shuffle):
    # verts is a subset in order or a permutation of one; the rows come
    # out in the packed-row format, padding included
    adj = random_graph(size, "random", density, seed)
    rng = np.random.default_rng(seed)
    verts = np.flatnonzero(rng.random(size) >= drop)
    if shuffle:
        verts = rng.permutation(verts)
    np.testing.assert_array_equal(_induced_rows(pack_rows(adj), verts),
                                  pack_rows(adj[np.ix_(verts, verts)]))


def test_kernel_gets_ints_of_the_kept_set_only(monkeypatch):
    # F under bit complement at n=12 keeps 1201 of 4096 words, a clique;
    # each of its rows is a 1201-bit int, not a 4096-bit one
    handed = []
    pack = zecap.search._rows_to_bitsets

    def spy(rows):
        handed.append(pack(rows))
        return handed[-1]

    monkeypatch.setattr(zecap.search, "_rows_to_bitsets", spy)
    res = exact_M(parse_channel_spec("01-10;01-11;10-11"), 12)
    assert res.size == 1201
    assert [len(adj) for adj in handed] == [1201]
    assert all(0 <= v < 2**1201 for v in handed[0])


# the examples: searches in the smallest-last numbering, one whose root
# closes there, and one in the given numbering seeded from the other
@settings(max_examples=200, deadline=None)
@example(size=40, kind="random", density=0.5, seed=0, holes=0, lex_min=True)
@example(size=40, kind="random", density=0.6, seed=1, holes=0xF0F0F,
         lex_min=False)
@example(size=40, kind="twins", density=0.6, seed=1, holes=0, lex_min=True)
@example(size=40, kind="random", density=0.5, seed=2, holes=0, lex_min=True)
@given(size=st.integers(0, 40),
       kind=st.sampled_from(["random", "empty", "complete", "twins"]),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       holes=st.integers(0, 2**40 - 1), lex_min=st.booleans())
def test_max_clique_bitset_matches_networkx(size, kind, density, seed, holes,
                                            lex_min):
    # the graph is the one a random graph induces on the vertices outside
    # `holes`, numbered in order
    adj = random_graph(size, kind, density, seed)
    idx = [v for v in range(size) if not holes >> v & 1]
    adj = adj[np.ix_(idx, idx)]
    res = max_clique_bitset(pack_rows(adj), lex_min)
    cliques = [sorted(c) for c in nx.find_cliques(nx.from_numpy_array(adj))]
    omega = max(map(len, cliques), default=0)
    assert res.size == omega == len(res.witness)
    if lex_min:
        assert res.witness == min((c for c in cliques if len(c) == omega),
                                  default=[])
    else:
        assert all(adj[u, v] for u, v in itertools.combinations(
            res.witness, 2))


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 40),
       kind=st.sampled_from(["random", "empty", "complete", "twins"]),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_smallest_last_matches_plain_loop(size, kind, density, seed):
    adj = random_graph(size, kind, density, seed)
    alive, removed = set(range(size)), []
    while alive:
        v = min(alive, key=lambda u: (adj[u, list(alive)].sum(), -u))
        removed.append(v)
        alive.remove(v)
    assert _smallest_last(pack_rows(adj)).tolist() == removed[::-1]


def relabelings(D, k):
    """Every distinct digraph obtained by relabeling D's vertices."""
    return list({frozenset((p[a], p[b]) for a, b in D.arcs): None
                 for p in itertools.permutations(range(k))})


def test_hexagon_nodes_do_not_depend_on_labels():
    # the given numbering took 1 to 1 477 504 nodes across these
    results = [omega_s(Digraph(6, arcs), complete_digraph(6), 3)
               for arcs in relabelings(cycle_sym_digraph(6), 6)]
    assert len(results) == 60
    assert {(r.size, r.nodes_explored) for r in results} \
        == {(8, results[0].nodes_explored)}


def arc01_fibonacci(n, swap=False):
    arcs, fib = {(0, 1)}, {(0, 0), (0, 1), (1, 0)}
    if swap:
        arcs, fib = ({(1 - a, 1 - b) for a, b in g} for g in (arcs, fib))
    return omega_s(Digraph(2, frozenset(arcs)), Digraph(2, frozenset(fib)),
                   n)


def test_swapped_arc01_fibonacci_nodes():
    # the search in the given numbering took 73 543 nodes
    assert arc01_fibonacci(12, swap=True).nodes_explored < 73_543


def test_arc01_fibonacci_nodes():
    # the search in the given numbering took 9 984 nodes
    assert arc01_fibonacci(11).nodes_explored <= 9_984


def test_exact_m_holds_no_dense_adjacency():
    # one N x N bool adjacency at n=12 is 16 MiB
    tracemalloc.start()
    try:
        exact_M(TRIANGLE_F, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def test_exact_m_pairs_fit_in_32_mib():
    # 00-11 at n=12 has 2.3 million non-adjacent pairs, which the reduction
    # holds through its rounds, each once with a one-byte cached word
    # index, and re-orients a bounded chunk at a time
    tracemalloc.start()
    try:
        exact_M(parse_channel_spec("00-11"), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**25


class TestManyRoundsOrbit:
    @pytest.mark.parametrize("spec", MANY_ROUNDS_ORBIT)
    @pytest.mark.parametrize("n", range(2, 12))
    def test_half_the_words(self, spec, n):
        G = parse_channel_spec(spec)
        res = exact_M(G, n)
        assert res.size == 2 ** (n - 1) == len(res.witness)
        w = [int(x, 2) for x in res.witness]
        adj = word_graph(G, n)[np.ix_(w, w)]
        assert (adj | np.eye(len(w), dtype=bool)).all()
        if n <= 5:
            assert naive_exact_M(G, n) == res.size


class TestExactM:
    def test_n1_always_one(self):
        for g in (TRIANGLE_F, EDGELESS, SINGLE_EDGE_0011):
            assert exact_M(g, 1).size == 1

    def test_f_n2(self):
        res = exact_M(TRIANGLE_F, 2)
        assert res.size == 3
        assert res.witness == ["00", "01", "10"]

    def test_single_edge_n2(self):
        res = exact_M(SINGLE_EDGE_0011, 2)
        assert res.size == 2
        assert res.witness == ["00", "11"]

    def test_edgeless_size_one(self):
        assert exact_M(EDGELESS, 5).size == 1

    @pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_subset_oracle(self, name, n):
        g = NAMED_CHANNELS[name]
        assert exact_M(g, n).size == subset_oracle_M(g, n)

    @pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
    @pytest.mark.parametrize("n", [4, 5])
    def test_naive_oracle(self, name, n):
        g = NAMED_CHANNELS[name]
        assert exact_M(g, n).size == naive_exact_M(g, n)

    def test_witness_is_valid_code(self):
        res = exact_M(TRIANGLE_G, 6)
        assert len(res.witness) == res.size
        for x, y in itertools.combinations(res.witness, 2):
            assert distinguishable(x, y, TRIANGLE_G)

    def test_cap(self):
        with pytest.raises(ResourceCapExceeded):
            exact_M(TRIANGLE_F, 15)

    def test_deterministic_across_runs(self):
        a = exact_M(TRIANGLE_F, 7)
        b = exact_M(TRIANGLE_F, 7)
        assert a.size == b.size and a.witness == b.witness

    @pytest.mark.parametrize("n", range(2, 9))
    def test_monotone_in_n(self, n):
        assert exact_M(TRIANGLE_F, n + 1).size >= exact_M(TRIANGLE_F, n).size


class TestOmegaPowerMarkov:
    def test_embedding_m1(self):
        res = omega_power_markov(TRIANGLE_F, pair_shift_digraph(), 1)
        assert res.size == exact_M(TRIANGLE_F, 2).size == 3

    def test_embedding_m3(self):
        res = omega_power_markov(TRIANGLE_F, pair_shift_digraph(), 3)
        assert res.size == exact_M(TRIANGLE_F, 4).size

    def test_edgeless_is_one(self):
        assert omega_power_markov(EDGELESS, pair_shift_digraph(), 4).size == 1


class TestOmegaS:
    def test_fibonacci_n2(self):
        res = omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 2)
        assert res.size == 2
        assert res.witness == ["01", "10"]

    def test_fibonacci_n1(self):
        assert omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 1).size == 1

    def test_pentagon_n1(self):
        assert omega_s(cycle_sym_digraph(5), complete_digraph(5), 1).size == 2

    def test_vertex_count_mismatch(self):
        from zecap.model import SpecError
        with pytest.raises(SpecError):
            omega_s(SINGLE_ARC_DIGRAPH, complete_digraph(5), 2)

    def test_loops_ignored(self):
        with_loop = Digraph(2, frozenset({(0, 1), (0, 0), (1, 1)}))
        a = omega_s(with_loop, FIBONACCI_DIGRAPH, 4)
        b = omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 4)
        assert a.size == b.size

    @pytest.mark.parametrize("n", range(1, 9))
    def test_antichain_oracle(self, n):
        from zecap.model import enumerate_walks
        fib_words = ["".join(str(v) for v in w)
                     for w in enumerate_walks(FIBONACCI_DIGRAPH, n)]

        def leq(u, v):
            return u != v and all(a <= b for a, b in zip(u, v))

        expected = dilworth_max_antichain(fib_words, leq)
        assert omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, n).size \
            == expected


class TestSupermultiplicativity:
    @pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
    def test_small(self, name):
        g = NAMED_CHANNELS[name]
        sizes = {n: exact_M(g, n).size for n in range(1, 8)}
        for n in range(1, 7):
            for m in range(1, 8 - n):
                assert sizes[n + m] >= sizes[n] * sizes[m]
