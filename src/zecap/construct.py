"""Explicit code families and converse-proof maps.

Every family `zecap construct` emits is a ministring code, one row of
`_FAMILY_SETS`: the length-n concatenations of a postfix-free
MinistringSet or, without the leading zero, the words w for which "0" + w
is one.  `ministring_code` and `ministring_count` are the one enumerator
and the one counter.  Also here: unique factorization, the 111->101
normalization, the even-run shortening map, sliding two-bit maps and code
verification.

Family counts use exact Python integers; recurrences stay exact at any n.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .capacity import CharacteristicEquation
from .model import (
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
# ministring_code refuses, before building anything, a code of more words,
# or layers of more bytes in all
MAX_CODE_WORDS = 2**20
MAX_LAYER_BYTES = 64 * MAX_CODE_WORDS


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
    L > l is at most max(l, tail start) + step: that horizon decides."""
    horizon = max(len(s) for s in S.strings)
    if S.tail is not None:
        horizon = max(horizon, S.tail[0]) + S.tail[1]
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


def _concatenations(prefixes: list[str], layers: list[np.ndarray],
                    width: int) -> np.ndarray:
    """Rows of `width` ASCII bytes: for each prefix in turn, the prefix
    followed by each row of the layer that fills the rest of the width."""
    rests = [layers[width - len(p)] for p in prefixes]
    out = np.empty((sum(len(r) for r in rests), width), dtype=np.uint8)
    row = 0
    for p, rest in zip(prefixes, rests):
        block = out[row:row + len(rest)]
        block[:, :len(p)] = np.frombuffer(p.encode("ascii"), dtype=np.uint8)
        block[:, len(p):] = rest
        row += len(rest)
    return out


def ministring_code(S: MinistringSet, n: int,
                    leading_zero: bool = True) -> Code:
    """All length-n concatenations of members of S; with leading_zero=False,
    the words w for which "0" + w is a length-(n+1) concatenation.

    Each length-m layer, m = 1..n, is an (a_m, m) uint8 matrix of ASCII
    bytes, built by the recurrence as one block per first member.  The
    layers and the code are counted first (`_layer_counts`), and the first
    of them over MAX_CODE_WORDS words, or the first layer that takes the
    layers' bytes, the sum of a_m * m, over MAX_LAYER_BYTES, raises
    ResourceCapExceeded before anything is built, so the counts stay
    small at any n.  The words' matrix becomes the word set by one
    `spell`, so no word is built by a Python loop."""
    if n < 1:
        raise SpecError("n must be >= 1")
    top = n if leading_zero else n + 1
    held = 0  # bytes of the layers up to m
    for m, (a, z) in zip(range(top + 1), _layer_counts(S)):
        # without the leading zero the code is the z_{n+1} words that
        # follow the 0 of a length-(n+1) concatenation
        count = a if m <= n else z
        if count > MAX_CODE_WORDS:
            what = "code" if m == top else f"length-{m} layer"
            raise ResourceCapExceeded(
                f"{what} of about 2^{math.log2(count):.1f} words exceeds "
                f"cap {MAX_CODE_WORDS}")
        if m <= n:
            held += a * m
            if held > MAX_LAYER_BYTES:
                raise ResourceCapExceeded(
                    f"layers up to length {m} of {held} bytes exceed cap "
                    f"{MAX_LAYER_BYTES}")
    if not postfix_free(S):
        raise SpecError("ministring set is not postfix-free")
    members = S.members_up_to(n + 1)
    # layers[m] holds the length-m concatenations as a first member then a
    # shorter concatenation; postfix-freeness makes them all distinct
    layers = [np.empty((1, 0), dtype=np.uint8)]
    for m in range(1, n + 1):
        layers.append(_concatenations([s for s in members if len(s) <= m],
                                      layers, m))
    if leading_zero:
        rows = layers[n]
    else:
        rows = _concatenations([s[1:] for s in members if s[0] == "0"],
                               layers, n)
    return Code(n, set(spell(rows)))


def _layer_counts(S: MinistringSet) -> Iterator[tuple[int, int]]:
    """(a_m, z_m) for m = 0, 1, 2, ...: the number of length-m
    concatenations of members of S, and of those that start with 0, by the
    exact length recurrence a_m = sum over ministring lengths l of
    a_{m-l}, a_0 = 1, where z_m sums over the members that start with 0
    only.  The tail's part, T_m = sum over tail lengths L of a_{m-L} =
    a_{m-start} + T_{m-step}, is in both, since every tail member starts
    with 0.  Only a window of a and T is kept, so no member string and no
    old count is stored."""
    start, step = S.tail or (0, 1)    # a tail starts at length >= 1
    # a finite member that is also a tail member counts once
    finite = {s for s in S.strings
              if not (S.tail and s == "0" + "1" * (len(s) - 1)
                      and len(s) >= start and (len(s) - start) % step == 0)}
    zero = [len(s) for s in finite if s[0] == "0"]
    one = [len(s) for s in finite if s[0] == "1"]
    width = max(zero + one + [start]) + 1
    a, T = {0: 1}, {}
    yield 1, 0
    for m in itertools.count(1):
        T[m] = a[m - start] + T.get(m - step, 0) if 0 < start <= m else 0
        z = T[m] + sum(a[m - l] for l in zero if l <= m)
        a[m] = z + sum(a[m - l] for l in one if l <= m)
        a.pop(m - width, None)
        T.pop(m - step, None)
        yield a[m], z


def ministring_count(S: MinistringSet, n: int,
                     leading_zero: bool = True) -> int:
    """|ministring_code(S, n, leading_zero)|, exact at any n: a_n of
    `_layer_counts`, or without the leading zero z_{n+1}."""
    if n < 0:
        raise SpecError("n must be >= 0")
    top = n if leading_zero else n + 1
    a, z = next(itertools.islice(_layer_counts(S), top, None))
    return a if leading_zero else z


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
