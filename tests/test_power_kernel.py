"""The power-graph kernel and the searches built on it, against scalar
pair predicates."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zecap.construct as construct
from zecap.construct import VerificationReport, verify_code
from zecap.model import (
    FIBONACCI_DIGRAPH,
    NAMED_DIGRAPHS,
    PAIR_LETTERS,
    TRIANGLE_F,
    Code,
    Digraph,
    all_words,
    distinguishable,
    enumerate_walks,
    pair_codes,
    pack_rows,
    pair_shift_digraph,
    parse_channel_spec,
    power_adjacency,
    unpack_rows,
    upper_bits,
)
from zecap.search import (
    distinguishability_matrix,
    max_clique,
    omega_power_markov,
    omega_s,
)

PAIR_EDGES = [f"{a}-{b}" for a, b in itertools.combinations(PAIR_LETTERS, 2)]

channels = st.sets(st.sampled_from(PAIR_EDGES)).map(
    lambda edges: parse_channel_spec(";".join(sorted(edges))))


def digraphs(k: int):
    """Random digraphs on k vertices; loops allowed."""
    arcs = list(itertools.product(range(k), repeat=2))
    return st.sets(st.sampled_from(arcs)).map(
        lambda s: Digraph(k, frozenset(s)))


def digit_rows(words):
    """The words' ASCII bytes, one row each: `pair_codes`'s input."""
    return np.array([[ord(c) for c in w] for w in words],
                    dtype=np.uint8).reshape(len(words), -1)


@st.composite
def codes(draw):
    n = draw(st.integers(1, 5))
    words = draw(st.sets(st.integers(0, 2**n - 1), min_size=1))
    return Code(n, {format(v, f"0{n}b") for v in words})


def reference_report(code: Code, G) -> VerificationReport:
    """verify_code's contract as a plain loop over the scalar predicate."""
    words = sorted(code.words)
    failures = []
    checked = 0
    for i, x in enumerate(words):
        for y in words[i + 1:]:
            checked += 1
            if (not distinguishable(x, y, G)
                    and len(failures) < VerificationReport.MAX_FAILURES):
                failures.append((x, y))
    return VerificationReport(not failures, checked, failures)


class TestPowerAdjacency:
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), digraphs(k), st.integers(0, 3), st.integers(0, 5),
        st.integers(0, 5), st.randoms(use_true_random=False))))
    def test_matches_scalar_loop(self, args):
        k, D, L, na, nb, rng = args
        A = np.array([[rng.randrange(k) for _ in range(L)]
                      for _ in range(na)], dtype=np.intp).reshape(na, L)
        B = np.array([[rng.randrange(k) for _ in range(L)]
                      for _ in range(nb)], dtype=np.intp).reshape(nb, L)
        packed = power_adjacency(D.arc_matrix(), A, B)
        assert packed.shape == (na, -(-nb // 64))
        got = unpack_rows(packed, nb)
        for i, j in itertools.product(range(na), range(nb)):
            assert got[i, j] == any(D.has_arc(int(a), int(b))
                                    for a, b in zip(A[i], B[j]))

    @given(channels, st.integers(1, 5))
    def test_distinguishability_matrix(self, G, n):
        words = list(all_words(n))
        mat = unpack_rows(distinguishability_matrix(
            G.arc_matrix(), pair_codes(digit_rows(words))), len(words))
        for i, j in itertools.product(range(len(words)), repeat=2):
            assert mat[i, j] == distinguishable(words[i], words[j], G)

    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), digraphs(k).map(Digraph.without_loops),
        st.integers(0, 3), st.integers(0, 6),
        st.randoms(use_true_random=False))))
    def test_directed_distinguishability_matrix(self, args):
        # a symmetric clique needs an arc each way at some coordinate
        k, D, L, na, rng = args
        W = np.array([[rng.randrange(k) for _ in range(L)]
                      for _ in range(na)], dtype=np.intp).reshape(na, L)
        mat = unpack_rows(distinguishability_matrix(D.arc_matrix(), W), na)

        def forward(u, v):
            return any(D.has_arc(int(a), int(b)) for a, b in zip(u, v))

        for i, j in itertools.product(range(na), repeat=2):
            assert mat[i, j] == (forward(W[i], W[j])
                                 and forward(W[j], W[i]))

    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(
        st.just(k), digraphs(k).map(Digraph.without_loops),
        st.integers(1, 3), st.integers(1, 70),
        st.randoms(use_true_random=False))))
    def test_transposed_view_and_copy_give_the_same_rows(self, args):
        # distinguishability_matrix powers a C-contiguous copy of arc.T;
        # the transposed view, and an arc given as such a view, spell the
        # same rows
        k, D, L, na, rng = args
        W = np.array([[rng.randrange(k) for _ in range(L)]
                      for _ in range(na)], dtype=np.intp)
        arc = D.arc_matrix()
        np.testing.assert_array_equal(
            power_adjacency(arc.T, W, W),
            power_adjacency(np.ascontiguousarray(arc.T), W, W))
        view = np.ascontiguousarray(arc.T).T
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(distinguishability_matrix(view, W),
                                      distinguishability_matrix(arc, W))

    @pytest.mark.parametrize("nb", [0, 1, 63, 64, 65, 255, 256, 257])
    def test_rows_are_padded_with_zeros(self, nb):
        # every arc is present, so a row is nb ones and then zeros up to a
        # whole 64-bit word
        arc = np.ones((3, 3), dtype=bool)
        rows = power_adjacency(arc, np.zeros((4, 2), dtype=np.intp),
                               np.zeros((nb, 2), dtype=np.intp))
        assert rows.shape == (4, -(-nb // 64))
        bits = unpack_rows(rows, 64 * rows.shape[1])
        assert bits[:, :nb].all() and not bits[:, nb:].any()

    @pytest.mark.parametrize("n", range(2, 15))
    def test_pair_shift_walks_are_the_words_in_order(self, n):
        # exact_M's vertex v is the word of v in binary
        walks = enumerate_walks(pair_shift_digraph(), n - 1)
        np.testing.assert_array_equal(
            walks, pair_codes(digit_rows(list(all_words(n)))))

    def test_pair_codes(self):
        codes_ = pair_codes(digit_rows(["0110", "1001"]))
        assert codes_.tolist() == [[1, 3, 2], [2, 0, 1]]
        assert pair_codes(digit_rows(["0", "1"])).shape == (2, 0)


def reference_power_adjacency(arc, A, B):
    """The per-coordinate kernel: every coordinate's packed table gathered
    for every row of A and ORed in."""
    out = np.zeros((A.shape[0], -(-B.shape[0] // 64)), dtype="<u8")
    for i in range(A.shape[1]):
        out |= pack_rows(arc[:, B[:, i]])[A[:, i]]
    return out


class TestPrefixBuild:
    """`power_adjacency` keeps one row per run of consecutive rows of A
    with equal prefixes; its rows are the per-coordinate kernel's, byte
    for byte, whatever the order of A."""

    ARC = np.array([[0, 1, 1], [1, 0, 0], [0, 1, 1]], dtype=bool)
    B = np.array([[0, 1, 2], [2, 2, 0], [1, 0, 1], [0, 0, 0]])

    @pytest.mark.parametrize("A", [
        # unsorted
        [[2, 0, 1], [0, 2, 2], [1, 1, 0], [0, 0, 1]],
        # repeated rows, adjacent and not, and a repeat at the end
        [[0, 1, 2], [0, 1, 2], [1, 0, 0], [0, 1, 2], [1, 0, 0],
         [1, 0, 0]],
        # equal prefixes that are not adjacent: rows 0 and 2 share 0 1,
        # rows 1 and 3 share 1
        [[0, 1, 2], [1, 2, 0], [0, 1, 0], [1, 0, 2]],
        # one run to the end, then splits only at the last coordinate
        [[2, 2, 0], [2, 2, 1], [2, 2, 2]],
        [[1, 1, 1]],
    ])
    def test_small_walk_arrays(self, A):
        A = np.array(A)
        got = power_adjacency(self.ARC, A, self.B)
        assert got.dtype == np.dtype("<u8") and got.flags.c_contiguous
        assert got.tobytes() == \
            reference_power_adjacency(self.ARC, A, self.B).tobytes()

    @pytest.mark.parametrize("na, nb, L", [(0, 5, 2), (5, 0, 2), (0, 0, 2),
                                           (5, 70, 0), (0, 0, 0)])
    def test_empty_arrays_and_no_coordinate(self, na, nb, L):
        rng = np.random.default_rng(na + nb + L)
        A, B = rng.integers(0, 3, (na, L)), rng.integers(0, 3, (nb, L))
        got = power_adjacency(self.ARC, A, B)
        assert got.shape == (na, -(-nb // 64)) and not got.any()
        assert got.tobytes() == \
            reference_power_adjacency(self.ARC, A, B).tobytes()

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        digraphs(k), st.integers(0, 4), st.integers(0, 40),
        st.integers(0, 130), st.randoms(use_true_random=False))))
    def test_rows_drawn_from_few_prefixes(self, args):
        # rows drawn from a pool of three, so prefixes and whole rows
        # repeat, adjacent or apart
        D, L, na, nb, rng = args
        k = D.k
        pool = [[rng.randrange(k) for _ in range(L)] for _ in range(3)]
        A = np.array([rng.choice(pool) for _ in range(na)],
                     dtype=np.intp).reshape(na, L)
        B = np.array([[rng.randrange(k) for _ in range(L)]
                      for _ in range(nb)], dtype=np.intp).reshape(nb, L)
        arc = D.arc_matrix()
        assert power_adjacency(arc, A, B).tobytes() == \
            reference_power_adjacency(arc, A, B).tobytes()

    @pytest.mark.parametrize("entries", [1, 5, 64, 300, 1000])
    def test_tables_in_groups_and_row_blocks(self, entries):
        # a small budget packs one coordinate's table in blocks of rows,
        # or a few coordinates' tables together, with a last short group;
        # no block is larger than the budget or than one row of a table
        rng = np.random.default_rng(entries)
        arc = rng.random((7, 7)) < 0.4
        A = rng.integers(0, 7, (50, 5))
        A = A[np.lexsort(A.T[::-1])]
        for nb in (0, 1, 9, 70):
            B = rng.integers(0, 7, (nb, 5))
            with mock.patch("zecap.model.TABLE_ENTRIES", entries), \
                    mock.patch("zecap.model.pack_rows",
                               wraps=pack_rows) as packed:
                got = power_adjacency(arc, A, B)
            assert got.tobytes() == \
                reference_power_adjacency(arc, A, B).tobytes()
            assert max(call.args[0].size
                       for call in packed.call_args_list) <= max(entries, nb)

    @pytest.mark.parametrize("P, arc, lengths", [
        (pair_shift_digraph(), TRIANGLE_F.arc_matrix(), range(1, 14)),
        (FIBONACCI_DIGRAPH, np.array([[0, 1], [1, 0]], bool),
         range(1, 13)),
        (NAMED_DIGRAPHS["C5sym"], NAMED_DIGRAPHS["C5sym"].arc_matrix(),
         range(1, 4)),
        (NAMED_DIGRAPHS["K5"], NAMED_DIGRAPHS["K5"].arc_matrix(),
         range(1, 4)),
    ], ids=["pair-shift", "fibonacci", "C5sym", "K5"])
    def test_named_walk_sets(self, P, arc, lengths):
        # the pair-shift walks of length n - 1 for n = 2..14, the others
        # of length n; each against itself, and reversed against itself
        for m in lengths:
            W = enumerate_walks(P, m)
            for A in (W, W[::-1]):
                assert power_adjacency(arc, A, W).tobytes() == \
                    reference_power_adjacency(arc, A, W).tobytes(), m

    def test_peak_is_under_two_results(self):
        # the per-coordinate kernel held its result and one full gather;
        # the prefix build holds the runs' rows before and after the last
        # split, plus blocks of 2^16 words
        W = enumerate_walks(pair_shift_digraph(), 11)
        arc = TRIANGLE_F.arc_matrix()
        tracemalloc.start()
        try:
            out = power_adjacency(arc, W, W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 2**21
        assert peak <= 1.6 * out.nbytes


def scalar_words(bits):
    """Each row's bits as 64-bit words, bit j at bit j % 64 of word j // 64,
    by Python-int arithmetic."""
    width = -(-bits.shape[1] // 64)
    values = [sum(1 << j for j, bit in enumerate(row) if bit) for row in bits]
    return [[v >> 64 * w & 2**64 - 1 for w in range(width)] for v in values]


class TestPackRows:
    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 300])
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_round_trip(self, width, count):
        bits = np.random.default_rng(width).random((count, width)) < 0.5
        rows = pack_rows(bits)
        assert rows.dtype == np.dtype("<u8") and rows.flags.c_contiguous
        assert rows.shape == (count, -(-width // 64))
        assert rows.tolist() == scalar_words(bits)
        np.testing.assert_array_equal(unpack_rows(rows, width), bits)
        # the padding past the last bit is zero
        assert not unpack_rows(rows, 64 * rows.shape[1])[:, width:].any()

    @pytest.mark.parametrize("width", [2, 63, 64, 65, 300])
    def test_fortran_ordered_gather(self, width):
        # the k x |B| table power_adjacency packs: a column gather of the
        # arc matrix, which numpy returns Fortran-ordered
        rng = np.random.default_rng(width)
        arc = rng.random((4, 4)) < 0.5
        table = arc[:, rng.integers(0, 4, width)]
        assert table.flags.f_contiguous and not table.flags.c_contiguous
        rows = pack_rows(table)
        assert rows.dtype == np.dtype("<u8") and rows.flags.c_contiguous
        assert rows.tolist() == scalar_words(table)
        np.testing.assert_array_equal(unpack_rows(rows, width), table)

    def test_column_sliced_view(self):
        bits = np.random.default_rng(0).random((7, 300)) < 0.5
        view = bits[:, 37:250:3]
        rows = pack_rows(view)
        assert rows.flags.c_contiguous
        assert rows.tolist() == scalar_words(view)
        np.testing.assert_array_equal(unpack_rows(rows, view.shape[1]), view)


class TestUpperBits:
    # diagonals on both sides of the 64-bit word edges, and at a row's ends
    DIAGS = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191]

    @pytest.mark.parametrize("limit", [None, 1, 100])
    @pytest.mark.parametrize("density", [0.02, 0.5])
    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_dense_upper_triangle(self, words, density, limit):
        # the oracle: the unpacked bits right of each row's diagonal, listed
        # row by row
        width = 64 * words
        rng = np.random.default_rng(words)
        diag = np.array([d for d in self.DIAGS if d < width] * 3)
        bits = rng.random((len(diag), width)) < density
        upper = bits & (np.arange(width) > diag[:, None])
        rows = pack_rows(bits)
        r, c = upper_bits(rows, diag, limit)
        assert list(zip(r.tolist(), c.tolist())) == \
            list(zip(*(a.tolist() for a in np.nonzero(upper))))[:limit]
        # the bits at or left of the diagonal are cleared in place
        np.testing.assert_array_equal(rows, pack_rows(upper))

    @pytest.mark.parametrize("limit", [None, 1, 100])
    @pytest.mark.parametrize("i0", [0, 1, 63, 64, 65])
    def test_a_block_of_rows_below_its_diagonal(self, i0, limit):
        # as `_nonadjacent_pairs` calls it: rows i0.. of a square matrix,
        # the diagonal of row r at column i0 + r
        bits = np.random.default_rng(i0).random((130, 192)) < 0.5
        block = bits[i0:i0 + 70]
        diag = np.arange(i0, i0 + len(block))
        r, c = upper_bits(pack_rows(block), diag, limit)
        want = [(i, j) for i, j in zip(*np.nonzero(block)) if j > i0 + i]
        assert list(zip(r.tolist(), c.tolist())) == want[:limit]

    def test_unpacks_at_most_limit_words(self):
        # every word of every row is nonzero; the listing unpacks only the
        # first `limit` of them
        rows = pack_rows(np.ones((50, 192), bool))
        with mock.patch("zecap.model.unpack_rows",
                        wraps=unpack_rows) as unpack:
            r, c = upper_bits(rows, np.zeros(50, np.intp), 5)
        assert (r.tolist(), c.tolist()) == ([0] * 5, [1, 2, 3, 4, 5])
        assert unpack.call_args.args[0].shape == (5, 1)


class TestVerifyCodeOracle:
    @settings(max_examples=200)
    @given(codes(), channels, st.sampled_from([1, 7, 2**20]))
    def test_matches_pairwise_loop(self, code, G, block):
        with mock.patch.object(construct, "VERIFY_BLOCK_PAIRS", block):
            got = verify_code(code, G)
        assert got.to_record() == reference_report(code, G).to_record()

    @pytest.mark.parametrize("block", [1, 2**20])
    def test_failure_cap_keeps_the_first_pairs_in_order(self, block):
        code = Code(5, set(all_words(5)))
        edgeless = parse_channel_spec("")
        with mock.patch.object(construct, "VERIFY_BLOCK_PAIRS", block):
            got = verify_code(code, edgeless)
        assert got.checked_pairs == 32 * 31 // 2
        assert got.to_record() == reference_report(code, edgeless).to_record()
        assert len(got.failures) == VerificationReport.MAX_FAILURES

    # code sizes on both sides of the triangle mask's 64-bit word edges;
    # channels under which a code fails no pair (every edge), more than 100
    # pairs (none), or, for the first 55 words, exactly 100; the last one
    # fails 101 pairs of the first 200 words, under half of them in the
    # first 100 rows
    SIZES = [1, 2, 55, 63, 64, 65, 129, 200]
    CHANNELS = ["00-01;00-10;00-11;01-10;01-11;10-11", "", "00-01",
                "00-01;01-10", "00-10;00-11;01-11;10-11"]

    @staticmethod
    def brute_force(size, channel):
        words = [format(v, "09b") for v in range(size)]
        G = parse_channel_spec(channel)
        failures = [[x, y] for i, x in enumerate(words)
                    for y in words[i + 1:] if not distinguishable(x, y, G)]
        return words, G, failures

    def test_cases_fail_none_exactly_100_and_more(self):
        counts = {channel: len(self.brute_force(55, channel)[2])
                  for channel in self.CHANNELS}
        assert counts == {self.CHANNELS[0]: 0, "": 55 * 54 // 2,
                          "00-01": 185, "00-01;01-10": 100,
                          self.CHANNELS[-1]: 29}
        failures = self.brute_force(200, self.CHANNELS[-1])[2]
        rows = [int(x, 2) for x, _ in failures]
        assert len(failures) == 101 and sum(r < 100 for r in rows) == 53

    @pytest.mark.parametrize("block", [1, 7, 64, 2**20])
    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_brute_force_across_word_edges(self, size, channel,
                                                   block):
        words, G, failures = self.brute_force(size, channel)
        with mock.patch.object(construct, "VERIFY_BLOCK_PAIRS", block):
            got = verify_code(Code(9, set(words)), G)
        assert got.to_record() == {
            "pass": not failures, "checked_pairs": size * (size - 1) // 2,
            "failures": failures[:VerificationReport.MAX_FAILURES]}

    def test_single_word_and_length_one(self):
        F = parse_channel_spec("00-01;00-10;01-10")
        assert verify_code(Code(1, {"0"}), F).to_record() == \
            {"pass": True, "checked_pairs": 0, "failures": []}
        assert verify_code(Code(1, {"0", "1"}), F).to_record() == \
            {"pass": False, "checked_pairs": 1, "failures": [["0", "1"]]}


class TestOmegaMatrices:
    @settings(max_examples=60, deadline=None)
    @given(channels, digraphs(4), st.integers(1, 3))
    def test_power_markov_equals_scalar_predicate(self, G, P, m):
        walks = enumerate_walks(P, m)
        reference = max_clique(
            walks, lambda u, v: any(G.has_edge(PAIR_LETTERS[a],
                                               PAIR_LETTERS[b])
                                    for a, b in zip(u, v)))
        got = omega_power_markov(G, P, m)
        assert got.size == reference.size
        assert got.witness == ["".join(PAIR_LETTERS[v] for v in w)
                               for w in reference.witness]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        digraphs(k), digraphs(k))), st.integers(1, 4))
    def test_omega_s_equals_scalar_predicate(self, DP, n):
        D, P = DP

        def forward(u, v):
            return any(a != b and D.has_arc(a, b) for a, b in zip(u, v))

        walks = enumerate_walks(P, n)
        reference = max_clique(
            walks, lambda u, v: forward(u, v) and forward(v, u))
        got = omega_s(D, P, n)
        assert got.size == reference.size
        assert got.witness == ["".join(map(str, w))
                               for w in reference.witness]

    def test_empty_walk_set(self):
        no_arcs = Digraph(2, frozenset())
        arc01 = Digraph(2, frozenset({(0, 1)}))
        res = omega_s(arc01, no_arcs, 3)
        assert (res.size, res.witness) == (0, [])
        res = omega_power_markov(parse_channel_spec("00-01"),
                                 Digraph(4, frozenset()), 2)
        assert (res.size, res.witness) == (0, [])

