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
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    ChannelGraph,
    Code,
    ResourceCapExceeded,
    SpecError,
    check_word,
    pair_codes,
    power_adjacency,
    unpack_rows,
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

    Raises ResourceCapExceeded, before building anything, when the code
    would hold more than MAX_CODE_WORDS words.  Each length-m layer is an
    (a_m, m) uint8 matrix of ASCII bytes, built by the recurrence as one
    block per first member.  The words' matrix becomes the word set by one
    decode and split of its buffer, so no word is built by a Python loop."""
    if n < 1:
        raise SpecError("n must be >= 1")
    count = ministring_count(S, n, leading_zero)
    if count > MAX_CODE_WORDS:
        raise ResourceCapExceeded(f"code of about 2^{math.log2(count):.1f} "
                                  f"words exceeds cap {MAX_CODE_WORDS}")
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
    lines = np.full((len(rows), n + 1), ord("\n"), dtype=np.uint8)
    lines[:, :n] = rows
    return Code(n, set(lines.tobytes().decode("ascii").split()))


def ministring_count(S: MinistringSet, n: int,
                     leading_zero: bool = True) -> int:
    """|ministring_code(S, n, leading_zero)| by the exact length recurrence
    a_m = sum over ministring lengths l of a_{m-l}, a_0 = 1; without the
    leading zero it is the sum of a_{n+1-l} over the members of length l
    that start with 0.  The tail's part of a_m is T_m = sum over tail
    lengths L of a_{m-L} = a_{m-start} + T_{m-step}, and only a window of
    a and T is kept, so no member string and no old count is stored."""
    if n < 0:
        raise SpecError("n must be >= 0")
    top = n if leading_zero else n + 1
    start, step = S.tail or (top + 1, 1)    # no tail: T_m = 0 up to top
    # a finite member that is also a tail member counts once
    finite = {s for s in S.strings
              if not (S.tail and s == "0" + "1" * (len(s) - 1)
                      and len(s) >= start and (len(s) - start) % step == 0)}
    width = max([len(s) for s in finite] + [start if S.tail else 0]) + 1
    a, T = {0: 1}, {0: 0}
    for m in range(1, top + 1):
        T[m] = a[m - start] + T.get(m - step, 0) if m >= start else 0
        a[m] = sum(a[m - len(s)] for s in finite if len(s) <= m) + T[m]
        a.pop(m - width, None)
        T.pop(m - step, None)
    if leading_zero:
        return a[n]
    return T[n + 1] + sum(a[n + 1 - len(s)] for s in finite
                          if s[0] == "0" and len(s) <= n + 1)


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
    failing pairs are reported sorted, capped at 100.  The words come from
    `Code.sorted_lines`, and rows of G's power over them are taken a
    bounded block at a time.  Each block's upper triangle is tested on its
    packed words; only the rows that hold reported failures are unpacked,
    and no block is built once 100 failures are found."""
    lines = code.sorted_lines()
    k = len(lines)
    codes = pair_codes(lines[:, :-1])
    arc = G.arc_matrix()
    rows = max(1, VERIFY_BLOCK_PAIRS // max(k, 1))
    failures: list[tuple[str, str]] = []

    def word(i: int) -> str:
        return lines[i, :-1].tobytes().decode("ascii")

    for i0 in range(0, k, rows):
        room = VerificationReport.MAX_FAILURES - len(failures)
        if not room:
            break
        # block entry [r, c] is the pair (i0 + r, i0 + 1 + c); keep c >= r
        width = k - i0 - 1
        packed = power_adjacency(arc, codes[i0:i0 + rows], codes[i0 + 1:])
        bad = ~packed & _upper_mask(len(packed), width)
        hit = np.flatnonzero(bad.any(axis=1))[:room]
        bad_r, bad_c = np.nonzero(unpack_rows(bad[hit], width))
        failures += [(word(i0 + hit[r]), word(i0 + 1 + c))
                     for r, c in zip(bad_r[:room], bad_c[:room])]
    return VerificationReport(not failures, k * (k - 1) // 2, failures)


# _LOW_BITS[b] has the low b bits of a 64-bit word set, b = 0..64
_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], dtype="<u8")


def _upper_mask(rows: int, width: int) -> np.ndarray:
    """`pack_rows` form of the rows x width matrix that is set at [r, c]
    iff c >= r."""
    first = 64 * np.arange(-(-width // 64))    # first column of each word
    lo = np.clip(np.arange(rows)[:, None] - first, 0, 64)
    hi = np.clip(width - first, 0, 64)
    return _LOW_BITS[hi] & ~_LOW_BITS[lo]


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
