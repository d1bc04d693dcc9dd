import itertools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zecap.capacity import CharacteristicEquation, beta_sequence
from zecap.construct import (
    FAMILIES,
    FIBONACCI_SET,
    MinistringSet,
    decompose,
    ministring_code,
    ministring_count,
)
from zecap.model import (
    Automaton,
    Code,
    Digraph,
    FIBONACCI_DIGRAPH,
    MAX_VERTICES,
    PAIR_LETTERS,
    ResourceCapExceeded,
    SINGLE_ARC_DIGRAPH,
    SpecError,
    TRIANGLE_F,
    all_words,
    check_word,
    check_words,
    complete_digraph,
    count_walks,
    distinguishable,
    enumerate_walks,
    pair_codes,
    pair_shift_digraph,
    parse_channel_spec,
    parse_digraph_spec,
    spell,
    walk_labels,
    walk_letters,
    walk_words,
)
from zecap.search import exact_M, omega_power_markov

words_st = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    .map(lambda p: (format(p[0], f"0{n}b"), format(p[1], f"0{n}b"))))


class TestCodeValidation:
    # word sets whose lengths add up to a multiple of n while some word is
    # short, or that hide a newline, a non-ASCII digit or an empty word
    @given(st.integers(0, 4),
           st.sets(st.text(alphabet="01x\n１", max_size=5), max_size=6))
    def test_matches_the_per_word_check_in_sorted_order(self, n, words):
        try:
            check_words(sorted(words), n)
        except SpecError as exc:
            with pytest.raises(SpecError) as got:
                Code(n, words)
            assert str(got.value) == str(exc)
        else:
            assert len(Code(n, words)) == len(words)

    @pytest.mark.parametrize("n, words", [
        (2, {"0", "011"}), (3, {"0\n1"}), (2, {"0１"}), (0, {""}),
        (1, {"0", ""}), (2, {"01", "1\n"})])
    def test_rejects_words_the_joined_bytes_could_hide(self, n, words):
        with pytest.raises(SpecError):
            Code(n, words)

    def test_names_the_first_bad_word_in_sorted_order(self):
        with pytest.raises(SpecError, match="'01b'"):
            Code(3, {"0a1", "01b", "011"})
        with pytest.raises(SpecError, match="'01' has length 2"):
            Code(3, {"011", "0111", "0110", "01"})


def word_lines(words):
    """The word-file matrix of equal-length words, in the order given."""
    text = "".join(w + "\n" for w in words).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(words), -1)


class TestCodeFromLines:
    # each bad matrix, and the words of its rows (each row but its last
    # byte) whose set the set path refuses with the same message
    @pytest.mark.parametrize("n, lines, words", [
        (3, word_lines(["012", "011"]), {"012", "011"}),
        (3, word_lines(["011", "0\n1"]), {"011", "0\n1"}),
        # width n: the newline column is missing
        (3, word_lines(["011", "010"])[:, :-1], {"01"}),
        (3, word_lines(["01", "00"]), {"01", "00"}),
        (3, word_lines(["0110", "0100"]), {"0110", "0100"}),
        (0, word_lines([""]), {""}),
    ])
    def test_bad_rows_raise_as_the_set_path(self, n, lines, words):
        with pytest.raises(SpecError) as want:
            Code(n, words)
        with pytest.raises(SpecError) as got:
            Code.from_lines(n, lines)
        assert str(got.value) == str(want.value)

    def test_a_missing_newline_or_a_repeat_is_named(self):
        digits = word_lines(["0110", "0101"])[:, :-1]
        with pytest.raises(SpecError, match="'010' is not followed by"):
            Code.from_lines(3, digits)
        with pytest.raises(SpecError, match="'01' repeats"):
            Code.from_lines(2, word_lines(["10", "01", "00", "01"]))
        with pytest.raises(SpecError, match="width 3, expected 4"):
            Code.from_lines(3, np.empty((0, 3), np.uint8))

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, 2**n - 1), min_size=1,
                            max_size=40))))
    def test_holds_the_set_paths_sorted_lines(self, case):
        n, values = case
        words = {format(v, f"0{n}b") for v in values}
        code = Code.from_lines(n, word_lines(list(words)))
        assert len(code) == len(words)
        want = Code(n, set(words)).sorted_lines()
        assert code.sorted_lines().tobytes() == want.tobytes()
        assert code.sorted_lines().shape == want.shape
        assert code.words == words

    def test_no_lines_is_the_empty_code(self):
        code = Code.from_lines(3, np.empty((0, 4), np.uint8))
        assert len(code) == 0 and code.sorted_lines().shape == (0, 4)
        assert code.words == set()

    def test_held_matrix_is_read_only(self):
        code = Code.from_lines(2, word_lines(["10", "00"]))
        with pytest.raises(ValueError):
            code.sorted_lines()[0, 0] = ord("1")
        assert code.sorted_lines().tobytes() == b"00\n10\n"

    def test_ascending_rows_are_held_as_they_are(self):
        # rows in strictly ascending word order are held without a sort
        # or a copy (a strided view is made contiguous); one pair out of
        # order sorts
        lines = word_lines(["000", "010", "011", "110", "111"])
        code = Code.from_lines(3, lines)
        assert np.shares_memory(code.sorted_lines(), lines)
        for given in (lines, lines[::2]):
            code = Code.from_lines(3, given)
            assert code.sorted_lines().tobytes() == given.tobytes()
            assert not code.sorted_lines().flags.writeable
        swapped = word_lines(["000", "011", "010", "110", "111"])
        code = Code.from_lines(3, swapped)
        assert not np.shares_memory(code.sorted_lines(), swapped)
        assert code.sorted_lines().tobytes() == lines.tobytes()

    @pytest.mark.parametrize("words", [set(), {"011"}])
    def test_a_set_in_word_order_gives_writable_lines(self, words):
        # no set of fewer than two words can be out of order, so its
        # joined bytes need no sort; the set path still returns a matrix
        # of its own
        lines = Code(3, set(words)).sorted_lines()
        assert lines.flags.writeable and lines.shape == (len(words), 4)

    @pytest.mark.parametrize("words, word", [
        (["00", "01", "01", "10"], "01"),
        (["00", "00"], "00"),
        (["11", "10", "11"], "11"),
        (["01", "10", "10", "00", "01"], "01"),
    ])
    def test_a_repeat_stops_the_ascent_and_is_named(self, words, word):
        # a repeat is no strict ascent, so the rows are sorted and the
        # first repeat in word order is named
        with pytest.raises(SpecError, match=f"^word '{word}' repeats$"):
            Code.from_lines(len(word), word_lines(words))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_rows_at_18_need_no_sort(self, family):
        # ministring_code hands its rows over in word order
        with mock.patch.object(np, "lexsort",
                               side_effect=AssertionError("sorted")):
            code = FAMILIES[family](18)
        lines = code.sorted_lines()
        rows = lines.view(f"S{lines.shape[1]}")[:, 0]
        assert (rows[1:] > rows[:-1]).all()

    def test_the_set_is_the_truth_once_read(self):
        code = Code.from_lines(3, word_lines(["011", "000", "010"]))
        code.words.discard("000")
        code.words.add("111")
        assert len(code) == 3
        assert code.sorted_lines().tobytes() == b"010\n011\n111\n"
        assert code.sorted_lines().flags.writeable


def all_channel_graphs():
    """All 2^6 = 64 loop-free graphs on the pair alphabet."""
    all_edges = [f"{a}-{b}" for a, b in
                 itertools.combinations(PAIR_LETTERS, 2)]
    for r in range(len(all_edges) + 1):
        for combo in itertools.combinations(all_edges, r):
            yield parse_channel_spec(";".join(combo))


class TestCheckWord:
    @pytest.mark.parametrize("w", ["0", "1", "0110", "1" * 50])
    def test_accepted(self, w):
        assert check_word(w) == w

    @pytest.mark.parametrize("w", ["", "01x", " 01", "01 ", "0\n", "１",
                                   "0x1", "2"])
    def test_rejected(self, w):
        with pytest.raises(SpecError, match="not a binary word"):
            check_word(w)

    @given(st.text(alphabet="01x \n１", max_size=6))
    def test_matches_per_character_scan(self, w):
        binary = bool(w) and all(c in "01" for c in w)
        try:
            check_word(w)
        except SpecError:
            assert not binary
        else:
            assert binary


class TestParseChannelSpec:
    def test_triangle_f(self):
        g = parse_channel_spec("00-01;00-10;01-10")
        assert g.edge_list() == [("00", "01"), ("00", "10"), ("01", "10")]

    def test_empty_spec_is_edgeless(self):
        assert parse_channel_spec("").edge_list() == []
        assert parse_channel_spec("  ").edge_list() == []

    def test_loop_rejected(self):
        with pytest.raises(SpecError):
            parse_channel_spec("00-00")

    def test_bad_letter_rejected(self):
        with pytest.raises(SpecError):
            parse_channel_spec("00-02")

    def test_malformed_token_rejected(self):
        with pytest.raises(SpecError):
            parse_channel_spec("00-01-10")

    def test_duplicates_collapse(self):
        g = parse_channel_spec("00-01;01-00;00-01")
        assert len(g.edges) == 1

    def test_roundtrip(self):
        g = parse_channel_spec("01-11;00-10")
        assert parse_channel_spec(g.to_spec()).edges == g.edges


class TestParseDigraphSpec:
    def test_fibonacci(self):
        d = parse_digraph_spec("0>0;0>1;1>0", 2)
        assert d.arcs == frozenset({(0, 0), (0, 1), (1, 0)})

    def test_single_arc(self):
        assert parse_digraph_spec("0>1", 2).arcs == frozenset({(0, 1)})

    def test_vertex_out_of_range(self):
        with pytest.raises(SpecError):
            parse_digraph_spec("0>2", 2)

    def test_malformed(self):
        with pytest.raises(SpecError):
            parse_digraph_spec("0-1", 2)

    def test_loops_permitted(self):
        assert (1, 1) in parse_digraph_spec("1>1", 2).arcs

    def test_arc_matrix_cap_before_allocating(self):
        # a 10^6-vertex matrix would take 931 GiB
        d = parse_digraph_spec("0>1", 10**6)
        with pytest.raises(ResourceCapExceeded, match="exceeds cap"):
            d.arc_matrix()


class TestDistinguishable:
    def test_spec_example_00_01(self):
        assert distinguishable("00", "01", TRIANGLE_F)

    def test_identical_words_never_distinguishable(self):
        for w in ("0", "0110", "111"):
            assert not distinguishable(w, w, TRIANGLE_F)

    def test_011_110_not_distinguishable_for_f(self):
        # pairs are (01,11) then (11,10); 11 is isolated in F
        assert not distinguishable("011", "110", TRIANGLE_F)

    def test_length_mismatch(self):
        with pytest.raises(SpecError):
            distinguishable("01", "011", TRIANGLE_F)

    @given(words_st)
    def test_symmetry(self, pair):
        x, y = pair
        assert (distinguishable(x, y, TRIANGLE_F)
                == distinguishable(y, x, TRIANGLE_F))

    def test_symmetry_exhaustive_all_graphs_n4(self):
        words = list(all_words(4))
        for g in all_channel_graphs():
            for x, y in itertools.combinations(words, 2):
                assert distinguishable(x, y, g) == distinguishable(y, x, g)

    def test_monotone_in_edges(self):
        small = parse_channel_spec("00-01")
        for x, y in itertools.combinations(list(all_words(5)), 2):
            if distinguishable(x, y, small):
                assert distinguishable(x, y, TRIANGLE_F)


def digit_rows(words, n):
    """The words' ASCII bytes as a (len, n) uint8 matrix."""
    return np.frombuffer("".join(words).encode(), np.uint8).reshape(-1, n)


class TestPairCodes:
    @pytest.mark.parametrize("word,expected", [
        ("0110", ("01", "11", "10")),
        ("000", ("00", "00")),
        ("01", ("01",)),
    ])
    def test_examples(self, word, expected):
        codes = pair_codes(digit_rows([word], len(word)))
        assert codes.tolist() == [[PAIR_LETTERS.index(p) for p in expected]]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_walk_words_inverts_pair_codes(self, n):
        # so pair_codes is injective on the words of each length
        rows = digit_rows(all_words(n), n)
        walks = pair_codes(rows)
        assert np.array_equal(walk_words(walks), rows)
        assert spell(walk_words(walks)) == list(all_words(n))


class TestSpell:
    @pytest.mark.parametrize("width", [0, 3])
    def test_no_rows(self, width):
        assert spell(np.empty((0, width), np.uint8)) == []

    def test_empty_rows_stay(self):
        assert spell(np.empty((2, 0), np.uint8)) == ["", ""]

    def test_walk_letters_writes_each_letter(self):
        walks = np.array([[0, 1, 3], [2, 2, 0]], np.uint8)
        assert spell(walk_letters(walks)) == ["000111", "101000"]
        assert spell(walk_letters(walks[:0])) == []

    def test_walk_labels_pad_to_the_digits_of_k_minus_1(self):
        # without padding both walks would spell 1010
        walks = np.array([[1, 0, 10], [10, 1, 0]], np.uint8)
        assert spell(walk_labels(walks, 11)) == ["010010", "100100"]
        assert spell(walk_labels(walks, 101)) == ["001000010", "010001000"]
        assert spell(walk_labels(np.array([[3, 0, 9]], np.uint16), 10)) == \
            ["309"]
        assert spell(walk_labels(walks[:0], 11)) == []


class TestEnumerateWalks:
    def test_fibonacci_n2(self):
        walks = enumerate_walks(FIBONACCI_DIGRAPH, 2)
        assert walks.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_full_shift_n3(self):
        full = parse_digraph_spec("0>0;0>1;1>0;1>1", 2)
        assert len(enumerate_walks(full, 3)) == 8

    def test_k5_loopless_n2(self):
        k5 = complete_digraph(5)
        assert len(enumerate_walks(k5, 2)) == 20

    def test_n1_returns_vertices(self):
        assert enumerate_walks(FIBONACCI_DIGRAPH, 1).tolist() == [[0], [1]]

    def test_cap(self):
        full = parse_digraph_spec("0>0;0>1;1>0;1>1", 2)
        with pytest.raises(ResourceCapExceeded):
            enumerate_walks(full, 15)

    def test_cap_boundary(self):
        # 2^14 pair-shift walks of length 13 (words of length 14) fill the
        # cap exactly; one more letter doubles them
        assert MAX_VERTICES == 2**14
        assert len(enumerate_walks(pair_shift_digraph(), 13)) == 2**14
        with pytest.raises(ResourceCapExceeded, match="exceeds cap"):
            enumerate_walks(pair_shift_digraph(), 14)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_shift_cardinality(self, n):
        # walks of length n correspond to binary words of length n+1
        walks = enumerate_walks(pair_shift_digraph(), n)
        assert len(walks) == 2 ** (n + 1)
        assert len(set(spell(walk_words(walks)))) == len(walks)

    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(
        st.just(k), st.sets(st.tuples(st.integers(0, k - 1),
                                      st.integers(0, k - 1))))),
        st.integers(1, 5))
    def test_matches_filtered_product(self, k_arcs, n):
        # lexicographic order is the order of itertools.product
        k, arcs = k_arcs
        expected = [list(w) for w in itertools.product(range(k), repeat=n)
                    if all(a in arcs for a in zip(w, w[1:]))]
        walks = enumerate_walks(Digraph(k, frozenset(arcs)), n)
        assert walks.shape == (len(expected), n)
        assert walks.tolist() == expected

    @pytest.mark.parametrize("n", range(1, 12))
    def test_count_matches_enumeration(self, n):
        assert count_walks(FIBONACCI_DIGRAPH, n) == \
            len(enumerate_walks(FIBONACCI_DIGRAPH, n))

    def test_no_walk_of_a_huge_length_at_once(self):
        # 0>1 has no walk of 3 vertices: found from the counts alone
        start = time.perf_counter()
        walks = enumerate_walks(SINGLE_ARC_DIGRAPH, 10**9)
        assert time.perf_counter() - start < 1
        assert (walks.shape, walks.dtype) == ((0, 10**9), np.uint8)

    @pytest.mark.parametrize("P, n", [
        (complete_digraph(4, loops=True), 7), (FIBONACCI_DIGRAPH, 12),
        (pair_shift_digraph(), 11), (complete_digraph(5), 4)])
    def test_no_length_of_blocks_holds_more_rows_than_walks(self, P, n,
                                                            monkeypatch):
        # what bounds the blocks alive at once: each length's blocks are
        # at most as many rows as the words of length n
        rows = []

        def build(self, live, dtype):
            counts = list(itertools.islice(self.counts(), len(live) + 1))
            rows.extend(sum(counts[m][q] for q in states)
                        for m, states in enumerate(live, 1))
            return real(self, live, dtype)

        real = Automaton._build
        monkeypatch.setattr(Automaton, "_build", build)
        walks = enumerate_walks(P, n)
        assert rows[-1] == max(rows) == len(walks)


class TestAutomaton:
    # the words of even length over 0, 1
    EVEN = Automaton(np.array([[1, 1], [0, 0]]), np.array([True, False]))

    def test_counts(self):
        assert [self.EVEN.count(n) for n in range(6)] == [1, 0, 4, 0, 16, 0]

    def test_words_in_lexicographic_order(self):
        words = self.EVEN.words(4, lambda count: None)
        assert words.dtype == np.uint8
        assert words.tolist() == [list(w) for w in
                                  itertools.product(range(2), repeat=4)]

    def test_no_word_of_an_odd_length(self):
        assert self.EVEN.words(3, lambda count: None).shape == (0, 3)

    def test_check_sees_the_count_before_anything_is_built(self,
                                                           monkeypatch):
        seen = []
        monkeypatch.setattr(Automaton, "_build", lambda *args: seen.append(
            "built") or np.empty((6, 0)))
        self.EVEN.words(6, seen.append)
        assert seen == [64, "built"]



FIB = FIBONACCI_DIGRAPH


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: CharacteristicEquation((1, 0)),
                 "all head lengths must be >= 1", id="head-length"),
    pytest.param(lambda: CharacteristicEquation((1,), (0, 1)),
                 "tail start and step must be >= 1", id="tail-start"),
    pytest.param(lambda: CharacteristicEquation((1,), (2, 0)),
                 "tail start and step must be >= 1", id="tail-step"),
    pytest.param(lambda: CharacteristicEquation(()),
                 "equation needs at least one term", id="no-term"),
    pytest.param(lambda: beta_sequence(-1), "k_max must be >= 0",
                 id="beta-sequence"),
    pytest.param(lambda: MinistringSet(()),
                 "ministring set needs a nonempty finite part",
                 id="no-ministring"),
    pytest.param(lambda: MinistringSet(("0",), (0, 1)),
                 "tail lengths and step must be >= 1", id="ministring-tail"),
    pytest.param(lambda: decompose("01", MinistringSet(("1", "01"))),
                 "ministring set is not postfix-free", id="not-postfix-free"),
    pytest.param(lambda: ministring_code(FIBONACCI_SET, 0), "n must be >= 1",
                 id="ministring-code"),
    pytest.param(lambda: ministring_count(FIBONACCI_SET, -1),
                 "n must be >= 0", id="ministring-count"),
    pytest.param(lambda: Digraph(0, frozenset()),
                 "digraph needs at least one vertex", id="no-vertex"),
    pytest.param(lambda: parse_digraph_spec("0>1;x>1", 2),
                 "malformed arc token: 'x>1'", id="arc-label"),
    pytest.param(lambda: enumerate_walks(FIB, 0), "walk length must be >= 1",
                 id="enumerate-walks"),
    pytest.param(lambda: count_walks(FIB, 0), "walk length must be >= 1",
                 id="count-walks"),
    pytest.param(lambda: exact_M(TRIANGLE_F, 0), "n must be >= 1",
                 id="exact-M"),
    pytest.param(lambda: omega_power_markov(TRIANGLE_F, complete_digraph(3),
                                            2),
                 "omega_power_markov expects a digraph on the 4 pair letters",
                 id="power-markov"),
])
def test_library_input_checks_raise_spec_error(call, message):
    # the library's own argument checks, each with its message
    with pytest.raises(SpecError) as exc:
        call()
    assert str(exc.value) == message
