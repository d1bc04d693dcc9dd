import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import zecap.construct as construct
from zecap.model import (
    Code,
    ResourceCapExceeded,
    SpecError,
    TRIANGLE_F,
    TRIANGLE_G,
    all_words,
    distinguishable,
    parse_channel_spec,
)
from zecap.construct import (
    _FAMILY_SETS,
    FAMILIES,
    FAMILY_COUNTS,
    G_STAR_00,
    G_STAR_01,
    MinistringSet,
    NO_ISOLATED_ONES_SET,
    NotDecomposable,
    ODD_RUN_SET,
    TRIBONACCI_SET,
    decompose,
    largest_block_class,
    ministring_code,
    ministring_count,
    normalize_no111,
    postfix_free,
    shorten_even_runs,
    sliding_g_map,
    verify_code,
)


class TestPostfixFree:
    def test_tribonacci_set(self):
        assert postfix_free(TRIBONACCI_SET)

    def test_suffix_violation(self):
        assert not postfix_free(MinistringSet(("0", "10")))

    def test_odd_run_tail(self):
        assert postfix_free(ODD_RUN_SET)

    def test_no_isolated_ones_tail(self):
        assert postfix_free(NO_ISOLATED_ONES_SET)

    def test_finite_member_ending_a_long_tail_member(self):
        # 11111 ends the tail member 01111111, of length 8
        assert not postfix_free(MinistringSet(("0", "11111"), tail=(2, 3)))

    @settings(max_examples=300)
    @given(st.sets(st.text("01", min_size=1, max_size=8)
                   | st.integers(1, 8).map(lambda l: "1" * l), min_size=1),
           st.none() | st.tuples(st.integers(1, 8), st.integers(1, 4)))
    def test_matches_a_long_horizon(self, strings, tail):
        # runs of 1s are drawn often: only they can end a tail member
        S = MinistringSet(tuple(sorted(strings)), tail=tail)
        members = S.members_up_to(40)
        assert postfix_free(S) == (not any(
            a != b and b.endswith(a) for a in members for b in members))


class TestMinistringCode:
    def test_n3(self):
        code = ministring_code(TRIBONACCI_SET, 3)
        assert code.words == {"000", "001", "010", "011"}

    def test_n1(self):
        assert ministring_code(TRIBONACCI_SET, 1).words == {"0"}

    def test_n4_tribonacci_count(self):
        assert len(ministring_code(TRIBONACCI_SET, 4)) == 7

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_enumeration(self, n):
        assert ministring_count(TRIBONACCI_SET, n) == \
            len(ministring_code(TRIBONACCI_SET, n))

    def test_non_postfix_free_rejected(self):
        with pytest.raises(SpecError):
            ministring_code(MinistringSet(("0", "10")), 4)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_word_decomposes(self, n):
        for w in ministring_code(TRIBONACCI_SET, n).words:
            assert "".join(decompose(w, TRIBONACCI_SET)) == w


def _string_layer_code(S, n, leading_zero):
    """Reference enumerator: the same recurrence over lists of strings,
    as ministring_code built it before it worked on byte matrices."""
    members = S.members_up_to(n + 1)
    layers = [[""]]
    for m in range(1, n + 1):
        layers.append([s + rest for s in members if len(s) <= m
                       for rest in layers[m - len(s)]])
    if leading_zero:
        return layers[n]
    return [s[1:] + rest for s in members if s[0] == "0"
            for rest in layers[n + 1 - len(s)]]


class TestArrayEnumerator:
    # the family rows, and postfix-free sets whose tails repeat a finite
    # member or hold members that start with 1
    SETS = [S for S, _ in _FAMILY_SETS.values()] + [
        MinistringSet(("0", "011", "01111"), tail=(3, 2)),
        MinistringSet(("00", "10"), tail=(2, 1))]

    @pytest.mark.parametrize("leading_zero", [True, False])
    @pytest.mark.parametrize("index", range(len(SETS)))
    def test_matches_string_layers(self, index, leading_zero):
        S = self.SETS[index]
        assert postfix_free(S)
        for n in range(1, 17):
            words = _string_layer_code(S, n, leading_zero)
            code = ministring_code(S, n, leading_zero)
            assert len(set(words)) == len(words)
            assert code.n == n and code.words == set(words)

    @pytest.mark.parametrize("leading_zero", [True, False])
    @pytest.mark.parametrize("index", range(len(SETS)))
    def test_count_matches_the_whole_recurrence(self, index, leading_zero):
        # the windowed counts against a list of every a_m, with the
        # members spelled out, far past the cap
        S = self.SETS[index]
        members = S.members_up_to(302)
        a = [1]
        for m in range(1, 302):
            a.append(sum(a[m - len(s)] for s in members if len(s) <= m))
        for n in range(301):
            want = a[n] if leading_zero else sum(
                a[n + 1 - len(s)] for s in members
                if s[0] == "0" and len(s) <= n + 1)
            assert ministring_count(S, n, leading_zero) == want


# each family's smallest n whose code is over MAX_CODE_WORDS
FIRST_REFUSED_N = {"ministring-tribonacci": 24, "oddrun": 25, "no111": 23,
                   "no-isolated-ones": 27, "fibonacci": 29}


@pytest.mark.parametrize("family", sorted(FIRST_REFUSED_N))
def test_first_refused_n(family, monkeypatch):
    n = FIRST_REFUSED_N[family]
    with pytest.raises(ResourceCapExceeded,
                       match=r"^code of about 2\^20\.\d words exceeds cap "
                             r"1048576$"):
        FAMILIES[family](n)

    class Built(Exception):
        pass

    def build(*args):
        raise Built

    # one less passes every count and goes on to build its layers
    monkeypatch.setattr(construct, "_concatenations", build)
    with pytest.raises(Built):
        FAMILIES[family](n - 1)


def test_layers_refused_by_bytes_before_memory_runs_out(monkeypatch):
    # one word a layer, so no word count nears its cap, but the layers up
    # to n hold n(n + 1)/2 bytes
    start = time.perf_counter()
    with pytest.raises(ResourceCapExceeded,
                       match=r"^layers up to length 11585 of 67111905 bytes "
                             r"exceed cap 67108864$"):
        ministring_code(MinistringSet(("0",)), 10**5)
    assert time.perf_counter() - start < 1

    class Built(Exception):
        pass

    def build(*args):
        raise Built

    # one less passes every count and goes on to build its layers
    monkeypatch.setattr(construct, "_concatenations", build)
    with pytest.raises(Built):
        ministring_code(MinistringSet(("0",)), 11584)


class TestDecompose:
    def test_010(self):
        assert decompose("010", TRIBONACCI_SET) == ["01", "0"]

    def test_011(self):
        assert decompose("011", TRIBONACCI_SET) == ["011"]

    def test_undecomposable(self):
        with pytest.raises(NotDecomposable):
            decompose("11", TRIBONACCI_SET)

    def test_odd_run_tail_member(self):
        assert decompose("0011111", ODD_RUN_SET) == ["0", "011111"]


class TestLargestBlockClass:
    def test_n3(self):
        code = ministring_code(TRIBONACCI_SET, 3)
        cls = largest_block_class(code, TRIBONACCI_SET, "011")
        assert cls.words == {"000", "001", "010"}

    def test_single_word(self):
        code = Code(3, {"000"})
        assert largest_block_class(code, TRIBONACCI_SET, "011").words \
            == {"000"}

    @pytest.mark.parametrize("n", range(3, 13))
    def test_density_bound(self, n):
        # block counts range over 0..floor(n/3), so the largest of the
        # floor(n/3)+1 classes holds at least that fraction of the code;
        # the looser 3/n form needs n >= 5 (at n=3,4 the zero-count class
        # makes the class count floor(n/3)+1 exceed n/3 too much)
        code = ministring_code(TRIBONACCI_SET, n)
        cls = largest_block_class(code, TRIBONACCI_SET, "011")
        assert (n // 3 + 1) * len(cls) >= len(code)
        if n >= 5:
            assert n * len(cls) >= 3 * len(code)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_class_is_distinguishable_code(self, n):
        code = ministring_code(TRIBONACCI_SET, n)
        cls = largest_block_class(code, TRIBONACCI_SET, "011")
        assert verify_code(cls, TRIANGLE_F).passed


class TestNoRun3:
    def test_n3(self):
        code = FAMILIES["no111"](3)
        assert len(code) == 7 and "111" not in code.words

    def test_n1(self):
        assert FAMILIES["no111"](1).words == {"0", "1"}

    def test_n4(self):
        assert len(FAMILIES["no111"](4)) == 13

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_enumeration(self, n):
        assert FAMILY_COUNTS["no111"](n) == len(FAMILIES["no111"](n))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_prefix_identity(self, n):
        # strings beginning 1 or 11 reduce to shorter ministring codes
        assert FAMILY_COUNTS["no111"](n) == (
            ministring_count(TRIBONACCI_SET, n)
            + ministring_count(TRIBONACCI_SET, n - 1)
            + ministring_count(TRIBONACCI_SET, n - 2))


class TestNormalizeNo111:
    @pytest.mark.parametrize("word,expected", [
        ("0111", "0101"),
        ("0110", "0110"),
        ("1111", "1011"),
    ])
    def test_examples(self, word, expected):
        assert normalize_no111(word) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_output_is_111_free_and_length_preserved(self, n):
        for w in all_words(n):
            z = normalize_no111(w)
            assert "111" not in z and len(z) == len(w)
            if "111" not in w:
                assert z == w

    def test_preserves_distinguishability(self):
        # z only changes inside a 111 block, whose pairs are isolated in F
        for w in all_words(6):
            z = normalize_no111(w)
            if z == w:
                continue
            for y in all_words(6):
                if y != w and distinguishable(w, y, TRIANGLE_F):
                    assert distinguishable(z, y, TRIANGLE_F)


class TestOddRun:
    def test_n4_leading_zero(self):
        assert FAMILIES["oddrun"](4).words == \
            {"0000", "0001", "0010", "0100", "0101", "0111"}

    def test_n1_any_first_bit(self):
        assert ministring_code(ODD_RUN_SET, 1, leading_zero=False).words \
            == {"0", "1"}

    def test_n3_leading_zero(self):
        assert FAMILIES["oddrun"](3).words == {"000", "001", "010"}

    def test_subset_relation(self):
        assert FAMILIES["oddrun"](5).words < \
            ministring_code(ODD_RUN_SET, 5, leading_zero=False).words

    @pytest.mark.parametrize("leading", [True, False])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_enumeration(self, n, leading):
        assert ministring_count(ODD_RUN_SET, n, leading_zero=leading) == \
            len(ministring_code(ODD_RUN_SET, n, leading_zero=leading))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_code_is_distinguishable_for_g(self, n):
        assert verify_code(FAMILIES["oddrun"](n), TRIANGLE_G).passed

    @pytest.mark.parametrize("n", range(10, 25))
    def test_b_less_than_3c(self, n):
        assert ministring_count(ODD_RUN_SET, n, leading_zero=False) < \
            3 * ministring_count(ODD_RUN_SET, n)


class TestShortenEvenRuns:
    @pytest.mark.parametrize("word,expected", [
        ("0110", "0100"),
        ("0101", "0101"),
        ("011110", "011100"),
    ])
    def test_examples(self, word, expected):
        assert shorten_even_runs(word) == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_maps_into_odd_run_set(self, n):
        target = ministring_code(ODD_RUN_SET, n, leading_zero=False).words
        for w in all_words(n):
            assert shorten_even_runs(w) in target

    @pytest.mark.parametrize("n", range(2, 11))
    def test_collisions_not_distinguishable(self, n):
        by_image = {}
        for w in all_words(n):
            by_image.setdefault(shorten_even_runs(w), []).append(w)
        for group in by_image.values():
            for x, y in itertools.combinations(group, 2):
                assert not distinguishable(x, y, TRIANGLE_G)


class TestSlidingGMap:
    def test_star00_example(self):
        assert sliding_g_map("0010", G_STAR_00) == "0011"

    def test_all_zero_fixed_point(self):
        assert sliding_g_map("000", G_STAR_00) == "000"

    def test_star01_example(self):
        assert sliding_g_map("0011", G_STAR_01) == "0010"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_star01_lands_in_fibonacci_set(self, n):
        fib = FAMILIES["fibonacci"](n).words
        for w in all_words(n):
            assert sliding_g_map(w, G_STAR_01) in fib

    @pytest.mark.parametrize("n", range(2, 11))
    def test_star00_lands_in_no_isolated_ones_up_to_boundary(self, n):
        # the image of a leading-0 word has first bit 0 and no isolated 1
        # except possibly a lone 1 in the very last position (001 -> 001 is
        # a fixed point); inputs not ending in "001" land in the set exactly
        from zecap.construct import _runs_of_ones
        target = FAMILIES["no-isolated-ones"](n).words
        for w in all_words(n):
            if w[0] != "0":
                continue
            y = sliding_g_map(w, G_STAR_00)
            assert y[0] == "0"
            runs = _runs_of_ones(y)
            assert all(length >= 2 or start + length == n
                       for start, length in runs)
            trailing_lone_one = runs and runs[-1] == (n - 1, 1)
            if not trailing_lone_one:
                assert y in target


class TestNoIsolatedOnes:
    def test_n3(self):
        assert FAMILIES["no-isolated-ones"](3).words == {"000", "011"}

    def test_n1(self):
        assert FAMILIES["no-isolated-ones"](1).words == {"0"}

    def test_n4(self):
        assert FAMILIES["no-isolated-ones"](4).words == \
            {"0000", "0011", "0110", "0111"}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_enumeration(self, n):
        assert FAMILY_COUNTS["no-isolated-ones"](n) == \
            len(FAMILIES["no-isolated-ones"](n))


class TestFibonacciSet:
    def test_n2(self):
        assert FAMILIES["fibonacci"](2).words == {"00", "01", "10"}

    def test_n3_size(self):
        assert len(FAMILIES["fibonacci"](3)) == 5

    def test_n1(self):
        assert FAMILIES["fibonacci"](1).words == {"0", "1"}

    @pytest.mark.parametrize("n", range(1, 15))
    def test_count_matches_enumeration(self, n):
        assert FAMILY_COUNTS["fibonacci"](n) == len(FAMILIES["fibonacci"](n))


def _brute_force(n, member):
    return {w for w in (format(v, f"0{n}b") for v in range(2**n))
            if member(w)}


def _one_runs(w):
    return [len(run) for run in w.split("0") if run]


def _odd_runs(w):
    return all(r % 2 for r in _one_runs(w))


# each family by its defining property, checked on all 2^n words
FAMILY_ORACLES = {
    "ministring-tribonacci": lambda w: w[0] == "0" and "111" not in w,
    "oddrun": lambda w: w[0] == "0" and _odd_runs(w),
    "no111": lambda w: "111" not in w,
    "no-isolated-ones":
        lambda w: w[0] == "0" and all(r >= 2 for r in _one_runs(w)),
    "fibonacci": lambda w: "11" not in w,
}


class TestFamilyOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", range(1, 15))
    def test_family_matches_brute_force(self, n, family):
        expected = _brute_force(n, FAMILY_ORACLES[family])
        assert FAMILIES[family](n).words == expected
        assert FAMILY_COUNTS[family](n) == len(expected)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_odd_run_b_n_matches_brute_force(self, n):
        # B_n of the odd-run converse: every 1-run odd, any first bit
        expected = _brute_force(n, _odd_runs)
        assert ministring_code(ODD_RUN_SET, n, leading_zero=False).words \
            == expected
        assert ministring_count(ODD_RUN_SET, n, leading_zero=False) \
            == len(expected)


class TestVerifyCode:
    def test_oddrun_pass(self):
        g = parse_channel_spec("00-01;00-11;01-11")
        assert verify_code(FAMILIES["oddrun"](3), g).passed

    def test_single_word_pass(self):
        assert verify_code(Code(3, {"011"}), TRIANGLE_F).passed

    def test_fail_with_pair(self):
        report = verify_code(Code(3, {"011", "110"}), TRIANGLE_F)
        assert not report.passed
        assert report.failures == [("011", "110")]
        assert report.checked_pairs == 1

    def test_record_shape(self):
        rec = verify_code(Code(3, {"011", "110"}), TRIANGLE_F).to_record()
        assert rec == {"pass": False, "checked_pairs": 1,
                       "failures": [["011", "110"]]}


class TestCountingIdentitiesLargeN:
    def test_tribonacci_recurrence_to_80(self):
        a = [ministring_count(TRIBONACCI_SET, n) for n in range(1, 81)]
        for n in range(3, 80):
            assert a[n] == a[n - 1] + a[n - 2] + a[n - 3]
        assert a[79] > 2**64  # exact integers beyond machine width

    def test_oddrun_recurrence_to_80(self):
        c = [1] + [FAMILY_COUNTS["oddrun"](n) for n in range(1, 81)]
        for n in range(2, 81):
            assert c[n] == c[n - 1] + sum(c[n - 2 * k]
                                          for k in range(1, n // 2 + 1))


def _list_count(S, n, leading_zero=True):
    """Reference counter: the same recurrence over the full list of counts
    and the member strings themselves."""
    lengths = S.lengths_up_to(n)
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(a[m - l] for l in lengths if l <= m)
    if leading_zero:
        return a[n]
    return sum(a[n + 1 - len(s)] for s in S.members_up_to(n + 1)
               if s[0] == "0")


class TestWindowedCount:
    # the family sets, and tails that step by more than one, start at
    # length 1 or 2, or repeat a finite member ("011" is the tail's first)
    SETS = [TRIBONACCI_SET, ODD_RUN_SET, NO_ISOLATED_ONES_SET,
            MinistringSet(("0", "01")),
            MinistringSet(("0", "011", "01111"), tail=(3, 2)),
            MinistringSet(("1", "0111"), tail=(2, 3)),
            MinistringSet(("01",), tail=(1, 1))]

    @pytest.mark.parametrize("leading_zero", [True, False])
    @pytest.mark.parametrize("index", range(len(SETS)))
    def test_matches_list_recurrence_to_199(self, index, leading_zero):
        S = self.SETS[index]
        for n in range(200):
            assert ministring_count(S, n, leading_zero) == \
                _list_count(S, n, leading_zero)

    def test_family_counts_to_199(self):
        for family, count in FAMILY_COUNTS.items():
            S, leading_zero = {
                "ministring-tribonacci": (TRIBONACCI_SET, True),
                "oddrun": (ODD_RUN_SET, True),
                "no111": (TRIBONACCI_SET, False),
                "no-isolated-ones": (NO_ISOLATED_ONES_SET, True),
                "fibonacci": (MinistringSet(("0", "01")), False)}[family]
            assert [count(n) for n in range(200)] == \
                [_list_count(S, n, leading_zero) for n in range(200)]
