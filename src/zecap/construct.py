"""Explicit code families and converse-proof maps: ministring concatenation
codes, odd-run and no-111 and no-isolated-ones sets, Fibonacci strings, the
111->101 normalization, the even-run shortening map, and sliding two-bit
maps.

Family counts use exact Python integers; recurrences stay exact at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ChannelGraph,
    Code,
    SpecError,
    check_word,
    pair_codes,
    power_adjacency,
)

# verify_code holds at most about this many pair outcomes at once
VERIFY_BLOCK_PAIRS = 2**20


class NotDecomposable(ValueError):
    """Word has no factorization into the given ministrings."""


@dataclass(frozen=True)
class MinistringSet:
    """A finite list of ministrings plus an optional infinite tail.

    The tail generates words '0' + '1'*(L-1) for L = start, start+step, ...
    which covers both supported families: odd 1-runs (start=4, step=2,
    giving 0111, 011111, ...) and 1-runs of length >= 2 (start=3, step=1).
    """

    strings: tuple[str, ...]
    tail: Optional[tuple[int, int]] = None  # (start_length, step)

    def __post_init__(self):
        if not self.strings:
            raise SpecError("ministring set needs a nonempty finite part")
        for s in self.strings:
            check_word(s)
        if self.tail is not None:
            start, step = self.tail
            if start < 1 or step < 1:
                raise SpecError("tail lengths and step must be >= 1")

    def members_up_to(self, n: int) -> list[str]:
        """All ministrings of length <= n, shortest first."""
        out = [s for s in self.strings if len(s) <= n]
        if self.tail is not None:
            start, step = self.tail
            for length in range(start, n + 1, step):
                out.append("0" + "1" * (length - 1))
        return sorted(set(out), key=lambda s: (len(s), s))

    def lengths_up_to(self, n: int) -> list[int]:
        return [len(s) for s in self.members_up_to(n)]


TRIBONACCI_SET = MinistringSet(("0", "01", "011"))
ODD_RUN_SET = MinistringSet(("0", "01"), tail=(4, 2))
NO_ISOLATED_ONES_SET = MinistringSet(("0",), tail=(3, 1))


def postfix_free(S: MinistringSet, check_up_to: int = 0) -> bool:
    """True iff no member is a proper suffix of another, including tail
    members up to the longest finite member plus one tail period."""
    horizon = max(len(s) for s in S.strings)
    if S.tail is not None:
        horizon = max(horizon, S.tail[0] + S.tail[1])
    horizon = max(horizon, check_up_to)
    members = S.members_up_to(horizon)
    for a in members:
        for b in members:
            if a != b and b.endswith(a):
                return False
    return True


def decompose(x: str, S: MinistringSet) -> list[str]:
    """The unique factorization of x into ministrings of S, scanning from
    the right; postfix-freeness makes at most one member match at each
    step."""
    check_word(x)
    if not postfix_free(S, check_up_to=len(x)):
        raise SpecError("ministring set is not postfix-free")
    members = S.members_up_to(len(x))
    parts: list[str] = []
    rest = x
    while rest:
        match = next((s for s in members if rest.endswith(s)), None)
        if match is None:
            raise NotDecomposable(f"{x!r} is not a concatenation of "
                                  f"ministrings")
        parts.append(match)
        rest = rest[:-len(match)]
    parts.reverse()
    return parts


def ministring_code(S: MinistringSet, n: int) -> Code:
    """All length-n concatenations of members of S."""
    if n < 1:
        raise SpecError("n must be >= 1")
    if not postfix_free(S, check_up_to=n):
        raise SpecError("ministring set is not postfix-free")
    members = S.members_up_to(n)
    layers: list[set[str]] = [set() for _ in range(n + 1)]
    layers[0].add("")
    for length in range(1, n + 1):
        for s in members:
            if len(s) <= length:
                for prefix in layers[length - len(s)]:
                    layers[length].add(prefix + s)
    return Code(n, layers[n], provenance=f"ministrings{S.lengths_up_to(n)}")


def ministring_count(S: MinistringSet, n: int) -> int:
    """|ministring_code(S, n)| by the exact length recurrence
    a_n = sum over ministring lengths l of a_{n-l}, a_0 = 1."""
    lengths = S.lengths_up_to(n) if n >= 1 else []
    a = [0] * (n + 1)
    a[0] = 1
    for m in range(1, n + 1):
        a[m] = sum(a[m - l] for l in lengths if l <= m)
    return a[n]


def largest_block_class(code: Code, S: MinistringSet, block: str) -> Code:
    """Partition the code by the number of `block` factors in each word's
    decomposition and return a class of maximum cardinality (ties broken by
    the smallest count)."""
    classes: dict[int, set[str]] = {}
    for w in code.words:
        count = decompose(w, S).count(block)
        classes.setdefault(count, set()).add(w)
    best = max(sorted(classes), key=lambda c: (len(classes[c]), -c))
    return Code(code.n, classes[best],
                provenance=f"{code.provenance}|block={block} x{best}")


def no_run3_set(n: int) -> Code:
    """All length-n words with no three consecutive 1s."""
    if n < 1:
        raise SpecError("n must be >= 1")
    words = {format(v, f"0{n}b") for v in range(2**n)}
    return Code(n, {w for w in words if "111" not in w}, provenance="no111")


def no_run3_count(n: int) -> int:
    """|no_run3_set(n)| via d_m = d_{m-1} + d_{m-2} + d_{m-3}, d_0 = 1."""
    d = [0] * (max(n, 3) + 1)
    d[0], d[1], d[2] = 1, 2, 4
    for m in range(3, n + 1):
        d[m] = d[m - 1] + d[m - 2] + d[m - 3]
    return d[n]


def normalize_no111(x: str) -> str:
    """Replace the leftmost 111 by 101 until no 111 remains; length and
    fixed points of the no-111 set are preserved."""
    check_word(x)
    while True:
        i = x.find("111")
        if i < 0:
            return x
        x = x[:i] + "101" + x[i + 3:]


def _runs_of_ones(x: str) -> list[tuple[int, int]]:
    """(start, length) of each maximal run of 1s, 0-based."""
    runs = []
    i = 0
    while i < len(x):
        if x[i] == "1":
            j = i
            while j < len(x) and x[j] == "1":
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def odd_run_code(n: int, leading_zero: bool) -> Code:
    """Words whose maximal 1-runs all have odd length; leading_zero
    additionally requires the first bit to be 0."""
    if n < 1:
        raise SpecError("n must be >= 1")
    words = set()
    for v in range(2**n):
        w = format(v, f"0{n}b")
        if leading_zero and w[0] != "0":
            continue
        if all(length % 2 == 1 for _, length in _runs_of_ones(w)):
            words.add(w)
    return Code(n, words, provenance="oddrun" + ("0" if leading_zero else ""))


def odd_run_count(n: int, leading_zero: bool = True) -> int:
    """Exact cardinality of odd_run_code.  With leading zero this is the
    ministring recurrence over lengths {1, 2, 4, 6, ...}; without, words
    starting with 1 contribute an odd-length head run before a leading-zero
    remainder."""
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m] = c[m - 1] + sum(c[m - l] for l in range(2, m + 1, 2))
    if leading_zero:
        return c[n]
    return c[n] + sum(c[n - l] for l in range(1, n + 1, 2))


def shorten_even_runs(x: str) -> str:
    """Turn the last 1 of every even-length 1-run into 0; the identity on
    words already having only odd runs."""
    check_word(x)
    bits = list(x)
    for start, length in _runs_of_ones(x):
        if length % 2 == 0:
            bits[start + length - 1] = "0"
    return "".join(bits)


@dataclass(frozen=True)
class PairFunction:
    """A map from the four two-bit pairs to a single bit."""

    table: tuple[int, int, int, int]  # indexed by 2*a + b for pair (a, b)

    def __call__(self, a: str, b: str) -> str:
        return str(self.table[2 * int(a) + int(b)])


# g of the star-at-00 theorem: 0 only on pair (0,0)
G_STAR_00 = PairFunction((0, 1, 1, 1))
# g of the star-at-01 theorem: 1 only on pair (0,1)
G_STAR_01 = PairFunction((0, 1, 0, 0))


def sliding_g_map(x: str, g: PairFunction) -> str:
    """First bit kept; every later bit i becomes g(x_{i-1}, x_i)."""
    check_word(x)
    out = [x[0]]
    for i in range(1, len(x)):
        out.append(g(x[i - 1], x[i]))
    return "".join(out)


def no_isolated_ones_set(n: int) -> Code:
    """Words with first bit 0 and no isolated 1 (every 1-run length >= 2)."""
    if n < 1:
        raise SpecError("n must be >= 1")
    words = set()
    for v in range(2 ** (n - 1)):
        w = "0" + format(v, f"0{n-1}b") if n > 1 else "0"
        if all(length >= 2 for _, length in _runs_of_ones(w)):
            words.add(w)
    return Code(n, words, provenance="no-isolated-ones")


def no_isolated_ones_count(n: int) -> int:
    return ministring_count(NO_ISOLATED_ONES_SET, n)


def fibonacci_set(n: int) -> Code:
    """All length-n words with no two consecutive 1s."""
    if n < 1:
        raise SpecError("n must be >= 1")
    words = {format(v, f"0{n}b") for v in range(2**n)}
    return Code(n, {w for w in words if "11" not in w}, provenance="fibonacci")


def fibonacci_count(n: int) -> int:
    """|fibonacci_set(n)| via f_m = f_{m-1} + f_{m-2}, f_0 = 1, f_1 = 2."""
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, a + b
    return b if n >= 1 else a


@dataclass
class VerificationReport:
    passed: bool
    checked_pairs: int
    failures: list[tuple[str, str]]

    MAX_FAILURES = 100

    def to_record(self) -> dict:
        return {
            "pass": self.passed,
            "checked_pairs": self.checked_pairs,
            "failures": [list(p) for p in self.failures],
        }


def verify_code(code: Code, G: ChannelGraph) -> VerificationReport:
    """Check every unordered pair of the code for distinguishability;
    failing pairs are reported sorted, capped at 100.  Rows of G's power
    over the sorted words are taken a bounded block at a time."""
    words = code.sorted_words()
    k = len(words)
    codes = pair_codes(words, code.n)
    arc = G.arc_matrix()
    rows = max(1, VERIFY_BLOCK_PAIRS // max(k, 1))
    failures: list[tuple[str, str]] = []
    for i0 in range(0, k, rows):
        # block entry [r, c] is the pair (i0 + r, i0 + 1 + c); keep c >= r
        block = power_adjacency(arc, codes[i0:i0 + rows], codes[i0 + 1:])
        bad_r, bad_c = np.nonzero(np.triu(~block))
        room = VerificationReport.MAX_FAILURES - len(failures)
        failures += [(words[i0 + r], words[i0 + 1 + c])
                     for r, c in zip(bad_r[:room], bad_c[:room])]
    return VerificationReport(not failures, k * (k - 1) // 2, failures)


FAMILIES = {
    "ministring-tribonacci": lambda n: ministring_code(TRIBONACCI_SET, n),
    "oddrun": lambda n: odd_run_code(n, leading_zero=True),
    "no111": no_run3_set,
    "no-isolated-ones": no_isolated_ones_set,
    "fibonacci": fibonacci_set,
}

FAMILY_COUNTS = {
    "ministring-tribonacci": lambda n: ministring_count(TRIBONACCI_SET, n),
    "oddrun": lambda n: odd_run_count(n, leading_zero=True),
    "no111": no_run3_count,
    "no-isolated-ones": no_isolated_ones_count,
    "fibonacci": fibonacci_count,
}
