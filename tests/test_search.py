import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    pair_codes,
    pair_shift_digraph,
    parse_channel_spec,
    parse_digraph_spec,
    unpack_rows,
)
import zecap.search
from zecap.search import (
    _color_classes,
    _has_clique_of_size,
    _induced_rows,
    _lex_min_witness,
    _nonadjacent_pairs,
    _row_hashes,
    _rows_to_bitsets,
    _smallest_last,
    _subset_rows,
    _walk_automorphisms,
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


def flip(P, n):
    """Bitset P with its n low bits reversed.  This takes the layout these
    tests build, vertex v at bit v, to the clique kernel's, vertex v at bit
    n - 1 - v, and back.  The kernel names vertex v by that bit's
    `bit_length()`, n - v."""
    return int(f"{P:0{n}b}"[::-1], 2) if n else 0


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


def test_subset_rows_with_many_pairs_per_s():
    # 40 sparse rows s, each paired with each of 2000 dense rows t, the
    # 80 000 pairs shuffled over two chunks of 2^16 pairs and several
    # blocks of full rows.  The odd s hold column 300, which no t holds,
    # so none of their pairs covers them; an even s lies inside about
    # half of the t, so its covering pairs come early and late.
    rng = np.random.default_rng(1)
    ns, nt, used = 40, 2000, 320
    bits = np.zeros((ns + nt, used), dtype=bool)
    bits[:ns] = rng.random((ns, used)) < 0.02
    bits[ns:] = rng.random((nt, used)) < 0.9
    bits[:, 300] = False
    bits[1:ns:2, 300] = True
    words = pack_rows(bits)
    s, t = (a.ravel().astype(np.uint32) for a in np.meshgrid(
        np.arange(ns), np.arange(ns, ns + nt), indexing="ij"))
    order = rng.permutation(len(s))
    s, t = s[order], t[order]
    wit = rng.integers(0, 5, len(s)).astype(np.uint8)
    subset = ~(bits[s] & ~bits[t]).any(axis=1)
    want = np.zeros(ns + nt, dtype=bool)
    want[s[subset]] = True
    assert want[:ns:2].all() and not want[1::2].any()
    covered = _subset_rows(words, s, t, wit)
    np.testing.assert_array_equal(covered, want)
    witnessed = words[s, wit] & ~words[t, wit] != 0
    # every pair that is no subset and whose s stays is left on a word
    # that witnesses it
    assert witnessed[~subset & ~covered[s]].all()
    # a stale pair whose s was already covered is not tested, so some of
    # them keep a word that does not witness
    assert (~witnessed & ~subset & covered[s]).any()


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


@pytest.mark.parametrize("n", [*range(1, 70), 200, 1000])
def test_complete_graph_witness_needs_no_decision(monkeypatch, n):
    # every vertex lies in the clique branch and bound finds, so the
    # lex-min pass keeps each one without a decision; witness and node
    # count are those of the search without it
    calls = []
    decide = zecap.search._has_clique_of_size
    monkeypatch.setattr(zecap.search, "_has_clique_of_size",
                        lambda *a: calls.append(a) or decide(*a))
    rows = pack_rows(~np.eye(n, dtype=bool))
    plain = max_clique_bitset(rows, lex_min=False)
    res = max_clique_bitset(rows)
    assert res.size == plain.size == n
    assert res.witness == list(range(n)) == plain.witness
    assert res.nodes_explored == plain.nodes_explored == 1
    assert calls == []


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
    # F under bit complement at n=12 keeps 1201 of 4096 words, a clique,
    # which is returned without compacting the rows or building bitsets.
    # arc01/fibonacci at n=8 keeps 49 of its 55 walks, not a clique; each
    # mask of both numberings is a 49-bit int, not a 55-bit one
    induced, handed = [], []
    induce, pack = zecap.search._induced_rows, zecap.search._rows_to_bitsets

    def spy_induce(rows, verts):
        induced.append(len(verts))
        return induce(rows, verts)

    def spy_pack(rows):
        handed.append(pack(rows))
        return handed[-1]

    monkeypatch.setattr(zecap.search, "_induced_rows", spy_induce)
    monkeypatch.setattr(zecap.search, "_rows_to_bitsets", spy_pack)
    res = exact_M(parse_channel_spec("01-10;01-11;10-11"), 12)
    assert (res.size, res.nodes_explored) == (1201, 1)
    assert induced == handed == []
    res = omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, 8)
    assert res.size == 21
    assert len(enumerate_walks(FIBONACCI_DIGRAPH, 8)) == 55
    assert induced[0] == 49
    # each table is indexed by bit length 1..49, slot 0 unused
    assert [[len(t) for t in masks] for masks in handed] == [[50] * 3] * 2
    assert all(0 <= P < 2**49 for masks in handed for t in masks for P in t)


@pytest.mark.parametrize("n", range(2, 10))
def test_twin_cut_survives_hash_collisions(monkeypatch, n):
    # with every multiplier zero every row hashes alike: the cut removes
    # only the copies of row 0, the rounds every other twin, and the keep
    # mask and cleared rows come out the same
    for G in ALL_CHANNELS:
        rows = pack_rows(word_graph(G, n))
        collided = rows.copy()
        keep = dominated_vertex_mask(rows)
        with monkeypatch.context() as m:
            m.setattr(zecap.search, "_ROW_HASH", 0)
            np.testing.assert_array_equal(dominated_vertex_mask(collided),
                                          keep, err_msg=G.to_spec())
        np.testing.assert_array_equal(collided, rows, err_msg=G.to_spec())


def test_row_hashes_separate_every_channel_and_top_bit_differences():
    # a collision costs only work, so this checks the hash's quality: the
    # distinct rows of every channel at n=2..10 hash apart, as do rows
    # {0, 1} and {64}, and rows differing by bit 63 of two words
    for n in range(2, 11):
        for G in ALL_CHANNELS:
            rows = pack_rows(word_graph(G, n))
            assert (len(np.unique(_row_hashes(rows)))
                    == len(np.unique(rows, axis=0))), (G.to_spec(), n)
    bits = np.zeros((4, 192), bool)  # row 2 is empty
    bits[0, [0, 1]] = bits[1, 64] = bits[3, [63, 127]] = True
    assert len(np.unique(_row_hashes(pack_rows(bits)))) == 4


@pytest.mark.parametrize("lex_min", [True, False])
@pytest.mark.parametrize("n", range(2, 11))
def test_exact_m_returns_what_the_kernel_finds_on_the_kept_set(n, lex_min):
    # a kept clique returns before the kernel; everything else goes
    # through it, so the result is the kernel's on the kept rows either way
    walks = enumerate_walks(pair_shift_digraph(), n - 1)
    for G in ALL_CHANNELS:
        rows = distinguishability_matrix(G.arc_matrix(), walks)
        kept = np.flatnonzero(dominated_vertex_mask(rows))
        want = max_clique_bitset(_induced_rows(rows, kept), lex_min)
        res = exact_M(G, n, lex_min=lex_min)
        assert ((res.size, res.nodes_explored, res.deterministic)
                == (want.size, want.nodes_explored, want.deterministic))
        assert res.witness == [format(v, f"0{n}b")
                               for v in kept[want.witness]], G.to_spec()


@pytest.mark.parametrize("n", range(2, 7))
def test_exact_m_witness_spells_its_walks(monkeypatch, n):
    # the pair letters of each witness word are the walk it was chosen as
    picked = []
    omega = zecap.search._omega

    def spy(*args):
        res, walks = omega(*args)
        picked.append(walks[res.witness])
        return res, walks

    monkeypatch.setattr(zecap.search, "_omega", spy)
    for G in ALL_CHANNELS:
        res = exact_M(G, n)
        chars = np.frombuffer("".join(res.witness).encode(), np.uint8)
        np.testing.assert_array_equal(pair_codes(chars.reshape(-1, n)),
                                      picked.pop(), err_msg=G.to_spec())


def test_empty_universe_explores_no_node():
    # no vertex is kept, so there is no kept clique to return, and the
    # kernel counts no node
    no_arcs = Digraph(2, frozenset())
    assert omega_s(SINGLE_ARC_DIGRAPH, no_arcs, 3).nodes_explored == 0
    assert max_clique([], lambda a, b: True).nodes_explored == 0


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random takes about 12-15 ms to import, paid by every run
    src = str(Path(zecap.search.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, zecap.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "False"


def cyclic_group(size, seed):
    """The powers of a random permutation of `size` vertices whose cycles
    are at most 4 long, one per row."""
    rng = np.random.default_rng(seed)
    g = np.arange(size)
    shuffled = rng.permutation(size)
    at = 0
    while at < size:
        cycle = shuffled[at:at + int(rng.integers(1, 5))]
        g[cycle] = np.roll(cycle, 1)
        at += len(cycle)
    powers = [np.arange(size)]
    while len(powers) == 1 or not np.array_equal(powers[-1], powers[0]):
        powers.append(g[powers[-1]])
    return np.array(powers[:-1])


# the examples: searches in the smallest-last numbering, one whose root
# closes there, one in the given numbering seeded from the other, and
# three that branch on orbits
@settings(max_examples=300, deadline=None)
@example(size=40, kind="random", density=0.5, seed=0, holes=0, lex_min=True,
         grouped=False)
@example(size=40, kind="random", density=0.6, seed=1, holes=0xF0F0F,
         lex_min=False, grouped=False)
@example(size=40, kind="twins", density=0.6, seed=1, holes=0, lex_min=True,
         grouped=False)
@example(size=40, kind="random", density=0.5, seed=2, holes=0, lex_min=True,
         grouped=False)
@example(size=40, kind="random", density=0.5, seed=0, holes=0, lex_min=True,
         grouped=True)
@example(size=40, kind="random", density=0.7, seed=1, holes=0,
         lex_min=False, grouped=True)
@example(size=40, kind="random", density=0.5, seed=54, holes=0,
         lex_min=True, grouped=True)
@given(size=st.integers(0, 40),
       kind=st.sampled_from(["random", "empty", "complete", "twins"]),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       holes=st.integers(0, 2**40 - 1), lex_min=st.booleans(),
       grouped=st.booleans())
def test_max_clique_bitset_matches_networkx(size, kind, density, seed, holes,
                                            lex_min, grouped):
    # the graph is the one a random graph induces on the vertices outside
    # `holes`, numbered in order; `grouped` makes it invariant under a
    # cyclic group, which the search is given
    adj = random_graph(size, kind, density, seed)
    idx = [v for v in range(size) if not holes >> v & 1]
    adj = adj[np.ix_(idx, idx)]
    automorphisms = None
    if grouped:
        group = cyclic_group(len(idx), seed)
        adj = np.any([adj[np.ix_(g, g)] for g in group], axis=0)
        automorphisms = group.copy
    res = max_clique_bitset(pack_rows(adj), lex_min, automorphisms)
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
    assert {(r.size, r.nodes_explored) for r in results} == {(8, 1)}


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
    # the search in the given numbering took 9 984 nodes, and without the
    # walk group and the lex-min pass's found cliques 1 907 (959 swapped);
    # a change to the kernel's speed leaves these counts as they are
    assert arc01_fibonacci(11).nodes_explored == 13
    assert arc01_fibonacci(11, swap=True).nodes_explored == 84


def omega_s_without_group(D, P, n, lex_min=True):
    """omega_s searched with the identity alone for its walk group."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zecap.search, "_walk_automorphisms",
                   lambda arc, P, walks: np.arange(len(walks))[None])
        return omega_s(D, P, n, lex_min=lex_min)


def symmetric_clique_number(D, P, n):
    """The clique number of the graph omega_s searches, built from its
    definition and solved by networkx."""
    walks = [w for w in itertools.product(range(P.k), repeat=n)
             if all(P.has_arc(a, b) for a, b in zip(w, w[1:]))]

    def arc(u, v):
        return any(a != b and D.has_arc(a, b) for a, b in zip(u, v))

    g = nx.Graph()
    g.add_nodes_from(walks)
    g.add_edges_from((u, v) for u, v in itertools.combinations(walks, 2)
                     if arc(u, v) and arc(v, u))
    # branch and bound finds the maximum without listing every maximal
    # clique; 0 when there is no walk
    return nx.max_weight_clique(g, weight=None)[1]


@st.composite
def digraph_pair(draw, max_k=4):
    """A digraph D and a type digraph P on the same k vertices.  P is
    closed under reversal half the time, so that walk reversal is in the
    walk group."""
    k = draw(st.integers(1, max_k))
    pairs = st.sampled_from(list(itertools.product(range(k), repeat=2)))
    D, P = (draw(st.sets(pairs)) for _ in range(2))
    if draw(st.booleans()):
        P |= {(b, a) for a, b in P}
    return Digraph(k, frozenset(D)), Digraph(k, frozenset(P))


def pentagon_labelings():
    return [Digraph(5, arcs) for arcs in relabelings(cycle_sym_digraph(5), 5)]


@pytest.mark.parametrize("n", [2, 3])
def test_pentagon_walk_group_keeps_size_and_witness(n):
    for D in pentagon_labelings():
        res = omega_s(D, complete_digraph(5), n)
        plain = omega_s_without_group(D, complete_digraph(5), n)
        assert (res.size, res.witness) == (plain.size, plain.witness)
        assert res.size == {2: 4, 3: 10}[n]


# the 12 labelings' node counts, sorted, when the search keeps no table
# of proven failures
PENTAGON_NODES_WITHOUT_TABLE = [579, 954, 1000, 1008, 1034, 1492, 1525, 1963,
                                2109, 2194, 2653, 2765]


def test_pentagon_nodes():
    # the 12 labelings at n=3 took 67 764 nodes in total without the walk
    # group and the lex-min pass's found cliques, and 19 276 without the
    # table of proven failures; a change to the kernel's speed leaves every
    # count as it is
    results = [omega_s(D, complete_digraph(5), 3)
               for D in pentagon_labelings()]
    assert len(results) == 12
    nodes = sorted(r.nodes_explored for r in results)
    assert nodes == [463, 620, 690, 699, 711, 720, 725, 732, 805, 889, 1029,
                     1058]
    assert sum(nodes) == 9_141


class ForgetfulTable(dict):
    """A table of proven failures that stores nothing."""

    def __init__(self, room):
        super().__init__()

    def __setitem__(self, P, k):
        pass


def test_fail_table_only_prunes(monkeypatch):
    # without entries the search is the one before the table, node for
    # node; with them no count rises, and no size or witness moves
    labelings = pentagon_labelings()
    results = [omega_s(D, complete_digraph(5), 3) for D in labelings]
    monkeypatch.setattr(zecap.search, "_FailTable", ForgetfulTable)
    plain = [omega_s(D, complete_digraph(5), 3) for D in labelings]
    assert sorted(r.nodes_explored for r in plain) \
        == PENTAGON_NODES_WITHOUT_TABLE
    for res, old in zip(results, plain):
        assert (res.size, res.witness) == (old.size, old.witness)
        assert res.nodes_explored <= old.nodes_explored


def test_forgetful_table_keeps_the_old_decision_count(monkeypatch):
    calls = []
    decide = zecap.search._has_clique_of_size
    monkeypatch.setattr(zecap.search, "_has_clique_of_size",
                        lambda *a: calls.append(a) or decide(*a))
    monkeypatch.setattr(zecap.search, "_FailTable", ForgetfulTable)
    res = omega_s(cycle_sym_digraph(5), complete_digraph(5), 3)
    assert (res.size, res.nodes_explored, len(calls)) == (10, 2194, 678)


def test_fail_table_entries_hold_no_clique_of_their_size(monkeypatch):
    # every entry P -> k, checked by networkx on the graph far describes:
    # the graph induced on P has no clique of k vertices
    seen = []
    lex_min = zecap.search._lex_min_witness

    def spy(masks, *args):
        witness = lex_min(masks, *args)
        seen.append((masks[1], args[-1]))
        return witness

    monkeypatch.setattr(zecap.search, "_lex_min_witness", spy)
    omega_s(cycle_sym_digraph(5), complete_digraph(5), 3)
    [(by_bit, fail)] = seen
    assert len(fail) > 100
    n = len(by_bit) - 1
    far = [flip(by_bit[n - v], n) for v in range(n)]
    g = nx.Graph((u, v) for u in range(n) for v in range(u)
                 if not far[u] >> v & 1)
    for P, k in fail.items():
        P = flip(P, n)
        inside = [v for v in range(n) if P >> v & 1]
        omega = max(map(len, nx.find_cliques(g.subgraph(inside))),
                    default=0)
        assert omega < k


def test_fail_table_stops_growing_at_its_room():
    fail = zecap.search._FailTable(16)
    for P in range(40):
        fail[P] = 3
    assert len(fail) == 16
    fail[0] = 2  # an entry held can still be lowered
    fail[99] = 2
    assert fail == {**dict.fromkeys(range(16), 3), 0: 2}


@pytest.mark.parametrize("n", [80, 150, 349, 1000, 4000])
def test_a_full_fail_table_holds_at_most_its_budget(n):
    # a table filled to its room with random n-bit keys, its growth
    # included: what tracemalloc saw allocated at the peak, and the keys
    rng = random.Random(n)
    room = zecap.search._fail_table_room(n)
    keys = [rng.getrandbits(n) for _ in range(room)]
    tracemalloc.start()
    try:
        fail = zecap.search._FailTable(room)
        for P in keys:
            fail[P] = 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fail) == len(set(keys))
    held = peak + sum(sys.getsizeof(P) for P in fail)
    assert held <= zecap.search.FAIL_TABLE_BYTES


def test_fail_table_budget_keeps_sizes_and_witnesses(monkeypatch):
    labelings = pentagon_labelings()
    results = [omega_s(D, complete_digraph(5), 3) for D in labelings]
    tables = []

    class Small(zecap.search._FailTable):
        def __init__(self, room):
            super().__init__(16)
            self.peak = 0
            tables.append(self)

        def __setitem__(self, P, k):
            super().__setitem__(P, k)
            self.peak = max(self.peak, len(self))

    monkeypatch.setattr(zecap.search, "_FailTable", Small)
    small = [omega_s(D, complete_digraph(5), 3) for D in labelings]
    assert len(tables) == 12
    assert max(t.peak for t in tables) == 16
    for res, old in zip(small, results):
        assert (res.size, res.witness) == (old.size, old.witness)
    # no byte of budget is no room: the search before the table
    monkeypatch.undo()
    monkeypatch.setattr(zecap.search, "FAIL_TABLE_BYTES", 0)
    assert sorted(omega_s(D, complete_digraph(5), 3).nodes_explored
                  for D in labelings) == PENTAGON_NODES_WITHOUT_TABLE


# (D, P) pairs whose searches at n=3 branch on orbits of more than one
# walk at the root
ORBIT_EXAMPLES = [
    (parse_digraph_spec("0>0;0>1;0>2;0>3;1>1;1>2;1>3;2>0;2>1;2>3;3>0;3>3",
                        4),
     parse_digraph_spec("0>0;0>1;0>2;0>3;1>0;1>1;1>2;1>3;2>0;2>1;2>3;3>0;"
                        "3>1;3>2;3>3", 4)),
    (parse_digraph_spec("0>1;0>2;0>3;1>1;1>3;2>0;2>1;2>2;3>1;3>2;3>3", 4),
     parse_digraph_spec("0>1;0>2;0>3;1>0;1>1;1>2;1>3;2>0;2>1;2>2;2>3;3>0;"
                        "3>1;3>2;3>3", 4)),
    (parse_digraph_spec("1>0;2>1", 3),
     parse_digraph_spec("0>1;0>2;1>0;1>2;2>0;2>1", 3)),
]


@settings(max_examples=150, deadline=None)
@example(pair=ORBIT_EXAMPLES[0], n=3, lex_min=True)
@example(pair=ORBIT_EXAMPLES[1], n=3, lex_min=False)
@example(pair=ORBIT_EXAMPLES[2], n=3, lex_min=True)
@given(pair=digraph_pair(), n=st.integers(1, 3), lex_min=st.booleans())
def test_walk_group_keeps_omega_s(pair, n, lex_min):
    D, P = pair
    res = omega_s(D, P, n, lex_min=lex_min)
    plain = omega_s_without_group(D, P, n, lex_min=lex_min)
    assert res.size == plain.size == symmetric_clique_number(D, P, n)
    assert len(res.witness) == res.size
    if lex_min:
        assert res.witness == plain.witness


@settings(max_examples=100, deadline=None)
@example(pair=(cycle_sym_digraph(5), complete_digraph(5)), n=3)
@example(pair=(cycle_sym_digraph(7), complete_digraph(7)), n=2)
@given(pair=digraph_pair(max_k=7), n=st.integers(1, 3))
def test_walk_automorphisms_map_rows_onto_themselves(pair, n):
    D, P = pair
    arc = D.without_loops().arc_matrix()
    walks = enumerate_walks(P, n)
    adj = unpack_rows(distinguishability_matrix(arc, walks), len(walks))
    perms = _walk_automorphisms(arc, P, walks)
    assert perms.shape[1] == len(walks)
    assert list(range(len(walks))) in perms.tolist()
    for g in perms:
        assert sorted(g) == list(range(len(walks)))
        np.testing.assert_array_equal(adj[np.ix_(g, g)], adj)


# omega_s instances whose reduction keeps a set that the walk group's
# other elements map elsewhere, and the pentagon, whose kept set the whole
# group keeps
@pytest.mark.parametrize("D, P, n, order", [
    (parse_digraph_spec("0>0;0>2;1>1;2>1", 4), complete_digraph(4, True), 3,
     1),
    (parse_digraph_spec("0>0;1>1;2>1;2>2;2>3;3>0", 4),
     complete_digraph(4, True), 3, 1),
    (cycle_sym_digraph(5), complete_digraph(5), 3, 20),
])
def test_search_gets_automorphisms_of_the_kept_graph(monkeypatch, D, P, n,
                                                     order):
    handed = []
    search = zecap.search.max_clique_bitset

    def spy(rows, lex_min=True, automorphisms=None):
        handed.append((unpack_rows(rows, rows.shape[0]), automorphisms()))
        return search(rows, lex_min, automorphisms)

    monkeypatch.setattr(zecap.search, "max_clique_bitset", spy)
    omega_s(D, P, n)
    [(adj, group)] = handed
    assert len({tuple(g) for g in group.tolist()}) == order
    for g in group:
        assert sorted(g) == list(range(len(adj)))
        np.testing.assert_array_equal(adj[np.ix_(g, g)], adj)


def test_pentagon_walk_group_is_dihedral_times_reversal():
    # 10 relabelings keep the pentagon, each alone and with reversal; over
    # 7 vertices only the identity is tried, alone and with reversal
    for k, order in ((5, 20), (7, 2)):
        D, P = cycle_sym_digraph(k), complete_digraph(k)
        walks = enumerate_walks(P, 3)
        perms = _walk_automorphisms(D.arc_matrix(), P, walks)
        assert len({tuple(g) for g in perms.tolist()}) == order


def test_group_is_derived_only_when_the_root_leaves_a_gap(monkeypatch):
    calls = []
    derive = zecap.search._walk_automorphisms

    def spy(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(zecap.search, "_walk_automorphisms", spy)
    assert exact_M(TRIANGLE_F, 10).nodes_explored == 1
    assert omega_s(cycle_sym_digraph(6), complete_digraph(6), 3) \
        .nodes_explored == 1
    assert calls == []
    omega_s(cycle_sym_digraph(5), complete_digraph(5), 3)
    assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(size=st.integers(0, 30), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), holes=st.integers(0, 2**30 - 1),
       need=st.integers(-1, 12))
def test_has_clique_of_size_returns_a_clique_or_none(size, density, seed,
                                                     holes, need):
    adj = random_graph(size, "random", density, seed)
    P = (1 << size) - 1 & ~holes
    inside = [v for v in range(size) if P >> v & 1]
    omega = max(map(len, nx.find_cliques(
        nx.from_numpy_array(adj[np.ix_(inside, inside)]))), default=0)
    found = _has_clique_of_size(_rows_to_bitsets(pack_rows(adj)),
                                flip(P, size), need, [0], {})
    if need > omega:
        assert found is None
    else:
        found = flip(found, size)
        clique = [v for v in range(size) if found >> v & 1]
        assert found & ~P == 0
        assert len(clique) == max(need, 0)
        assert all(adj[u, v] for u, v in itertools.combinations(clique, 2))


def greedy_coloring(adj, P):
    """Plain greedy sequential coloring of the vertices in bitset P: each
    class scans the uncolored vertices in order and takes every one that
    is adjacent to none taken before.  (vertex, color) pairs, class by
    class."""
    left = [v for v in range(len(adj)) if P >> v & 1]
    out, color = [], 0
    while left:
        color += 1
        cls = []
        for v in left:
            if not adj[v, cls].any():
                cls.append(v)
        out += [(v, color) for v in cls]
        left = [v for v in left if v not in cls]
    return out


@settings(max_examples=150, deadline=None)
@example(size=0, density=0.0, seed=0, holes=0)
@example(size=130, density=0.9, seed=1, holes=0)
@given(size=st.integers(0, 130), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), holes=st.integers(0, 2**130 - 1))
def test_color_classes_keeps_the_oracle_colors_from_kmin(size, density, seed,
                                                         holes):
    adj = random_graph(size, "random", density, seed)
    P = (1 << size) - 1 & ~holes
    oracle = greedy_coloring(adj, P)
    last = oracle[-1][1] if oracle else 0
    _, far, top = _rows_to_bitsets(pack_rows(adj))
    for kmin in range(1, last + 2):
        order, colors = _color_classes(far, top, flip(P, size), kmin)
        assert list(zip([size - b for b in order], colors)) \
            == [(v, c) for v, c in oracle if c >= kmin]
        assert (not order) == (last < kmin)


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 25), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_lex_min_witness_does_not_depend_on_the_clique_it_starts_from(
        size, density, seed):
    adj = random_graph(size, "random", density, seed)
    cliques = [sorted(c) for c in nx.find_cliques(nx.from_numpy_array(adj))]
    omega = max(map(len, cliques))
    maximum = [c for c in cliques if len(c) == omega]
    masks = _rows_to_bitsets(pack_rows(adj))
    for c in maximum[:10]:
        chosen = _lex_min_witness(masks, (1 << size) - 1, omega, [0],
                                  [size - v for v in range(size)],
                                  flip(sum(1 << v for v in c), size), {})
        assert [size - b for b in chosen] == min(maximum)


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

    @pytest.mark.parametrize("k,n", [(11, 3), (12, 2)])
    def test_two_digit_labels_spell_apart(self, k, n):
        # the loop-free K_k's power is complete on all k^n walks, and each
        # label is two zero-padded digits: (1, 0, 10) and (10, 1, 0) would
        # both spell 1010 unpadded, as (1, 11) and (11, 1) would 111
        res = omega_s(complete_digraph(k), complete_digraph(k, True), n)
        assert res.size == k**n == len(set(res.witness))
        walks = [tuple(int(w[i:i + 2]) for i in range(0, 2 * n, 2))
                 for w in res.witness]
        assert walks == list(itertools.product(range(k), repeat=n))

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
