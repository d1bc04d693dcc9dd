"""Explicit code families and converse-proof maps.

Every family `zecap construct` emits is a ministring code, one row of
`_FAMILY_SETS`: the length-n concatenations of a postfix-free
MinistringSet or, without the leading zero, the words w for which "0" + w
is one.  Each set compiles to one `model.Automaton`: `ministring_code`
lists its words, and `ministring_count` counts them exactly at any n.
Also here: unique factorization, the 111->101 normalization,
the even-run shortening map, sliding two-bit maps and code verification.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .capacity import CharacteristicEquation
from .model import (
    Automaton,
    ChannelGraph,
    Code,
    ResourceCapExceeded,
    SpecError,
    check_word,
    pack_rows,
    pair_codes,
    power_adjacency,
    spell,
    upper_bits,
)

# verify_code holds at most about this many pair outcomes at once
VERIFY_BLOCK_PAIRS = 2**20
# ministring_code refuses, before building anything, a code of more words
MAX_CODE_WORDS = 2**20


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
FIBONACCI_SET = MinistringSet(("0", "01"))


def postfix_free(S: MinistringSet) -> bool:
    """True iff no member is a proper suffix of another.  A tail member
    0 1^(L-1) ends only in finite members 1^l, and the first tail length
    L > l is at most max(l, tail start) + step, so the members up to the
    horizon, the longest finite member plus the tail's start and step,
    decide."""
    members = S.members_up_to(max(map(len, S.strings)) + sum(S.tail or ()))
    return not any(a != b and b.endswith(a) for a in members for b in members)


def decompose(x: str, S: MinistringSet) -> list[str]:
    """The unique factorization of x into ministrings of S, scanning from
    the right; postfix-freeness makes at most one member match at each
    step."""
    check_word(x)
    return _factorizer(S, len(x))(x)


def _factorizer(S: MinistringSet, n: int) -> Callable[[str], list[str]]:
    """`decompose` for binary words of length <= n, with S checked and its
    members listed once for all of them."""
    if not postfix_free(S):
        raise SpecError("ministring set is not postfix-free")
    members = S.members_up_to(n)

    def factor(x: str) -> list[str]:
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
    return factor


def _automaton(S: MinistringSet, leading_zero: bool) -> Automaton:
    """S* as an automaton over the bits or, without the leading zero, the
    words w for which "0" + w is in S*, by subset construction over one
    chain of states per finite member and a loop for the tail.  A chain
    state is the string read since the last whole member ("" between
    members), a proper prefix of a member.  Past the horizon, the longest
    finite member plus the tail's start and step, only a tail member's
    prefix 0 1^i remains, and it steps back by the tail's step, so the
    tail's states close in a loop."""
    if not postfix_free(S):
        raise SpecError("ministring set is not postfix-free")
    horizon = max(map(len, S.strings)) + sum(S.tail or ())
    members = set(S.members_up_to(2 * horizon + 1))
    prefixes = {s[:i] for s in members for i in range(1, len(s))}

    def after(chain: frozenset[str], bit: str) -> frozenset[str]:
        ends = {p + bit for p in chain}
        return frozenset({w[:-S.tail[1]] if len(w) > horizon else w
                          for w in ends & prefixes}
                         | ({""} if ends & members else set()))

    hub = frozenset({""})
    states, delta = [hub if leading_zero else after(hub, "0")], []
    for chain in states:  # the list grows as states are found
        row = [after(chain, bit) for bit in "01"]
        states += [q for q in dict.fromkeys(row) if q and q not in states]
        delta.append([states.index(q) if q else -1 for q in row])
    return Automaton(np.array(delta), np.array(["" in q for q in states]))


def _check_code_words(count: int) -> None:
    if count > MAX_CODE_WORDS:
        raise ResourceCapExceeded(f"code of about 2^{math.log2(count):.1f} "
                                  f"words exceeds cap {MAX_CODE_WORDS}")


def ministring_code(S: MinistringSet, n: int,
                    leading_zero: bool = True) -> Code:
    """All length-n concatenations of members of S; with leading_zero=False,
    the words w for which "0" + w is a length-(n+1) concatenation.

    They are the words of the set's automaton (`_automaton`), listed by
    `Automaton.words` in lexicographic order as an (a_n, n) uint8 matrix
    of bits.  A code of more than MAX_CODE_WORDS words, or words of the
    lengths up to n of more than MAX_LAYER_BYTES, raise
    ResourceCapExceeded before anything is built, so a refusal is
    immediate at any n.  The bits as ASCII digits, with a newline column,
    become the code by `Code.from_lines`, so no word string is built until
    the code's `words` are read."""
    if n < 1:
        raise SpecError("n must be >= 1")
    bits = _automaton(S, leading_zero).words(n, _check_code_words)
    newlines = np.full((len(bits), 1), ord("\n"), dtype=np.uint8)
    return Code.from_lines(n, np.hstack([bits + np.uint8(ord("0")),
                                         newlines]))


def ministring_count(S: MinistringSet, n: int,
                     leading_zero: bool = True) -> int:
    """|ministring_code(S, n, leading_zero)|, exact at any n: the count of
    the set's automaton."""
    if n < 0:
        raise SpecError("n must be >= 0")
    return _automaton(S, leading_zero).count(n)


def largest_block_class(code: Code, S: MinistringSet, block: str) -> Code:
    """Partition the code by the number of `block` factors in each word's
    decomposition and return a class of maximum cardinality (ties broken by
    the smallest count)."""
    factor = _factorizer(S, code.n)
    classes: dict[int, set[str]] = {}
    for w in code.words:
        count = factor(w).count(block)
        classes.setdefault(count, set()).add(w)
    best = max(sorted(classes), key=lambda c: (len(classes[c]), -c))
    return Code(code.n, classes[best])


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
    return [(m.start(), len(m.group())) for m in re.finditer("1+", x)]


def shorten_even_runs(x: str) -> str:
    """Turn the last 1 of every even-length 1-run into 0; the identity on
    words already having only odd runs."""
    check_word(x)
    bits = list(x)
    for start, length in _runs_of_ones(x):
        if length % 2 == 0:
            bits[start + length - 1] = "0"
    return "".join(bits)


# Maps from the four pair letters to a bit, as 4-character tables indexed
# by the letter's index 2a + b.
# g of the star-at-00 theorem: 0 only on pair (0,0)
G_STAR_00 = "0111"
# g of the star-at-01 theorem: 1 only on pair (0,1)
G_STAR_01 = "0100"


def sliding_g_map(x: str, g: str) -> str:
    """First bit kept; every later bit i becomes g of the pair letter
    x_{i-1} x_i, looked up in the table g."""
    check_word(x)
    return x[0] + "".join(g[int(x[i - 1:i + 1], 2)]
                          for i in range(1, len(x)))


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
    failing pairs are reported sorted, capped at 100.  Block by block of
    rows i0.. of `Code.sorted_lines`, G's power is built against the words
    i0.., and `upper_bits` lists the failures right of the diagonal c = r,
    unpacking only the words of those reported; none after 100."""
    lines = code.sorted_lines()
    k = len(lines)
    codes = pair_codes(lines[:, :-1])
    arc = G.arc_matrix()
    rows = max(1, VERIFY_BLOCK_PAIRS // max(k, 1))
    failures: list[tuple[str, str]] = []
    for i0 in range(0, k, rows):
        room = VerificationReport.MAX_FAILURES - len(failures)
        if not room:
            break
        bad = ~power_adjacency(arc, codes[i0:i0 + rows], codes[i0:])
        bad &= pack_rows(np.ones((1, k - i0), bool))
        r, c = upper_bits(bad, np.arange(len(bad)), room)
        failures += zip(spell(lines[i0 + r, :-1]), spell(lines[i0 + c, :-1]))
    return VerificationReport(not failures, k * (k - 1) // 2, failures)


# family -> (ministring set, leading_zero); after a 0, the tribonacci set
# gives the words with no 111 and {0, 01} the words with no 11
_FAMILY_SETS = {
    "ministring-tribonacci": (TRIBONACCI_SET, True),
    "oddrun": (ODD_RUN_SET, True),
    "no111": (TRIBONACCI_SET, False),
    "no-isolated-ones": (NO_ISOLATED_ONES_SET, True),
    "fibonacci": (FIBONACCI_SET, False),
}

FAMILIES = {name: functools.partial(ministring_code, S, leading_zero=lz)
            for name, (S, lz) in _FAMILY_SETS.items()}

FAMILY_COUNTS = {name: functools.partial(ministring_count, S, leading_zero=lz)
                 for name, (S, lz) in _FAMILY_SETS.items()}

# each family's characteristic equation: its ministrings' lengths
NAMED_EQUATIONS = {name: CharacteristicEquation(
    tuple(len(s) for s in S.strings), S.tail)
    for name, (S, _) in _FAMILY_SETS.items()}
