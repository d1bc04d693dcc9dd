"""Core vocabulary: binary words, the pair alphabet, confusability graphs,
digraphs and their walk sets, and the distinguishability predicate.

Words are plain strings of '0'/'1' characters.  Pair letters are the four
two-character strings "00", "01", "10", "11", totally ordered lexicographically;
every serialized artifact uses that order, and letter ab has index 2a + b.
This module alone converts between words, pair letters and uint8 matrices
of ASCII digits: `pair_codes` takes words to their pair letters,
`walk_words` and `walk_letters` take walks of pair letters back to
digits, `walk_labels` spells walks of numbered vertices, and `spell`
decodes a digit matrix to strings.  Documentation follows the 1-based
index convention; serialized positions are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

PAIR_LETTERS = ("00", "01", "10", "11")

# the one vertex cap of every search: walk sets, clique universes, and so
# exact_M's n <= 14 (2^14 pair-shift walks of length 13)
MAX_VERTICES = 2**14


class SpecError(ValueError):
    """Malformed channel/digraph/word spec text."""


class ResourceCapExceeded(RuntimeError):
    """An enumeration or search universe would exceed its configured cap."""


def check_word(w: str) -> str:
    # strip leaves a character iff w holds one other than 0 and 1
    if not w or w.strip("01"):
        raise SpecError(f"not a binary word: {w!r}")
    return w


def check_words(words: Iterable[str], n: int) -> None:
    """Raise SpecError naming the first of `words`, in the order given,
    that is not a binary word of length n."""
    for w in words:
        check_word(w)
        if len(w) != n:
            raise SpecError(f"word {w!r} has length {len(w)}, expected {n}")


@dataclass(frozen=True)
class ChannelGraph:
    """Undirected loop-free graph on the 4-letter pair alphabet."""

    edges: frozenset[frozenset[str]]
    name: str = ""

    def __post_init__(self):
        for e in sorted(self.edges, key=sorted):
            if len(e) != 2:
                raise SpecError(f"loop or malformed edge: {set(e)}")
            for v in e:
                if v not in PAIR_LETTERS:
                    raise SpecError(f"not a pair letter: {v!r}")

    def has_edge(self, a: str, b: str) -> bool:
        return a != b and frozenset((a, b)) in self.edges

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as sorted pairs, sorted; the canonical serialization order."""
        return sorted(tuple(sorted(e)) for e in self.edges)

    def to_spec(self) -> str:
        return ";".join(f"{a}-{b}" for a, b in self.edge_list())

    def arc_matrix(self) -> np.ndarray:
        """Symmetric 4x4 boolean edge matrix indexed by pair-letter index."""
        mat = np.zeros((4, 4), dtype=bool)
        for a, b in self.edge_list():
            ia, ib = PAIR_LETTERS.index(a), PAIR_LETTERS.index(b)
            mat[ia, ib] = mat[ib, ia] = True
        return mat


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..k-1; loops allowed."""

    k: int
    arcs: frozenset[tuple[int, int]]
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise SpecError("digraph needs at least one vertex")
        for a, b in self.arcs:
            if not (0 <= a < self.k and 0 <= b < self.k):
                raise SpecError(f"arc ({a},{b}) out of range for k={self.k}")

    def has_arc(self, a: int, b: int) -> bool:
        return (a, b) in self.arcs

    def without_loops(self) -> "Digraph":
        return Digraph(self.k, frozenset(a for a in self.arcs if a[0] != a[1]),
                       self.name)

    def to_spec(self) -> str:
        return ";".join(f"{a}>{b}" for a, b in sorted(self.arcs))

    def arc_matrix(self) -> np.ndarray:
        """k x k boolean matrix; entry [a, b] is set iff a>b is an arc.
        Over the vertex cap, k is refused before the matrix exists."""
        check_vertex_cap(self.k, "digraph")
        mat = np.zeros((self.k, self.k), dtype=bool)
        for a, b in self.arcs:
            mat[a, b] = True
        return mat


@dataclass
class Code:
    """A set of distinct equal-length binary words.

    `words` is the source of truth and may change after construction:
    `sorted_lines` recomputes its matrix from the set on every call.  The
    words are validated on their joined bytes in one vectorized test; only
    when it fails are they walked, in sorted order, to name the first bad
    word, so the message does not depend on the set's hash order."""

    n: int
    words: set[str] = field(default_factory=set)

    def __post_init__(self):
        self._lines()

    def _lines(self) -> np.ndarray:
        """The words in set order as a (len, n + 1) uint8 matrix: each row
        is a word's ASCII bytes and then a newline byte."""
        k, width = len(self.words), max(self.n, 0) + 1
        # "replace" keeps one byte per character, so a non-ASCII character
        # is one "?" byte and fails the digit test
        data = np.frombuffer("\n".join([*self.words, ""]).encode(
            "ascii", "replace"), dtype=np.uint8)
        if data.size == k * width and (self.n >= 1 or not k):
            lines = data.reshape(k, width)
            # with only digits before the last column, the k newlines that
            # end the words fill that column, so every word is n digits
            # (bytes below "0" wrap to large uint8 differences)
            if (lines[:, :-1] - np.uint8(ord("0")) <= 1).all():
                return lines
        check_words(sorted(self.words), self.n)
        raise AssertionError("the joined test refused valid words")

    def sorted_lines(self) -> np.ndarray:
        """The word file's bytes as a (len, n + 1) uint8 matrix: the words
        in lexicographic order, one per row in ASCII, each followed by a
        newline byte.  `[:, :-1]` is the words' digit matrix."""
        lines = self._lines()
        # the rows' low bits, packed big-endian eight to a byte, sort as the
        # words do (a newline's low bit is 0 in every row); lexsort's last
        # key is its primary one
        keys = np.packbits(lines & 1, axis=1)
        return lines[np.lexsort(keys.T[::-1])]

    def __len__(self) -> int:
        return len(self.words)


def parse_channel_spec(text: str, name: str = "") -> ChannelGraph:
    """Parse "ab-cd;ef-gh" edge lists over the pair alphabet."""
    edges: set[frozenset[str]] = set()
    if text.strip():
        for token in text.split(";"):
            token = token.strip()
            parts = token.split("-")
            if len(parts) != 2:
                raise SpecError(f"malformed edge token: {token!r}")
            edges.add(frozenset(parts))
    return ChannelGraph(frozenset(edges), name=name)


def parse_digraph_spec(text: str, k: int, name: str = "") -> Digraph:
    """Parse "a>b;c>d" arc lists on vertices 0..k-1."""
    arcs: set[tuple[int, int]] = set()
    if text.strip():
        for token in text.split(";"):
            token = token.strip()
            parts = token.split(">")
            if len(parts) != 2:
                raise SpecError(f"malformed arc token: {token!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise SpecError(f"malformed arc token: {token!r}") from None
            arcs.add((a, b))
    return Digraph(k, frozenset(arcs), name=name)


def distinguishable(x: str, y: str, G: ChannelGraph) -> bool:
    """True iff some coordinate pair of x and y falls on an edge of G."""
    if len(x) != len(y):
        raise SpecError(f"length mismatch: {len(x)} vs {len(y)}")
    edges = G.edges
    for i in range(len(x) - 1):
        a = x[i:i + 2]
        b = y[i:i + 2]
        if a != b and frozenset((a, b)) in edges:
            return True
    return False


def pair_codes(rows: np.ndarray) -> np.ndarray:
    """(k, n-1) pair letters of a (k, n) uint8 matrix of words in ASCII
    "0"/"1" bytes (as `Code.sorted_lines()[:, :-1]`): entry [w, i] is the
    pair-letter index of row w's digits i and i+1."""
    bits = rows - np.uint8(ord("0"))
    return 2 * bits[:, :-1] + bits[:, 1:]


def walk_words(walks: np.ndarray) -> np.ndarray:
    """Inverse of `pair_codes`: the (k, m+1) uint8 matrix of ASCII digits of
    the words that k pair-shift walks of m letters spell.  A walk spells its
    first letter's first bit, then each letter's second bit."""
    bits = np.hstack([walks[:, :1] >> 1, walks & 1])
    return bits.astype(np.uint8, copy=False) + np.uint8(ord("0"))


def walk_letters(walks: np.ndarray) -> np.ndarray:
    """The (k, 2m) uint8 matrix of ASCII digits of k walks of m pair letters,
    each letter written out as the word ab that it spells alone."""
    return walk_words(walks.reshape(-1, 1)).reshape(len(walks),
                                                    2 * walks.shape[1])


def walk_labels(walks: np.ndarray, k: int) -> np.ndarray:
    """The (len, m * d) uint8 matrix of ASCII digits of walks of m vertices
    of 0..k-1, each vertex in d decimal digits, zero-padded, where d is the
    number of digits of k - 1: so distinct walks spell apart, and one
    digit per vertex for k <= 10."""
    d = len(str(k - 1))
    digits = walks[:, :, None] // 10 ** np.arange(d - 1, -1, -1) % 10
    return (digits + ord("0")).astype(np.uint8).reshape(len(walks),
                                                        d * walks.shape[1])


def spell(chars: np.ndarray) -> list[str]:
    """The rows of a uint8 matrix of ASCII codes as strings: a newline
    column is appended, and the bytes are decoded once and split at the
    newlines.  No row may hold a newline byte."""
    k, width = chars.shape
    lines = np.full((k, width + 1), ord("\n"), dtype=np.uint8)
    lines[:, :width] = chars
    return lines.tobytes().decode("ascii").split("\n")[:-1]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """The packed rows of a boolean matrix, the one format every adjacency
    here is held in: C-contiguous little-endian uint64 words ("<u8"), bit j
    of a row at bit j % 64 of word j // 64, zero-padded to whole words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 8), np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def unpack_rows(rows: np.ndarray, count: int) -> np.ndarray:
    """The first `count` bits of each `pack_rows` row, as a boolean matrix."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=count,
                         bitorder="little").view(bool)


def upper_bits(rows: np.ndarray, diag: np.ndarray, limit: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Clears, in place, each `pack_rows` row's bits at or left of column
    diag[r], and returns (r, c) of the bits left in row-major order, the
    first `limit` of them when given, unpacking only the words listed."""
    word = diag >> 6
    rows[np.arange(rows.shape[1]) < word[:, None]] = 0
    low = (np.uint64(2) << (diag & 63).astype(np.uint64)) - np.uint64(1)
    rows[np.arange(len(rows)), word] &= ~low
    r, c = np.nonzero(rows)
    # each word holds a bit, so the first `limit` bits lie in `limit` words
    f = np.flatnonzero(unpack_rows(rows[r[:limit], c[:limit], None], 64))
    f = f[:limit]
    at = f >> 6    # the listed word of each bit
    # the columns are formed in place, with few temporaries
    f &= 63
    c = c[at] << 6
    c |= f
    return r[at], c


def power_adjacency(arc: np.ndarray, A: np.ndarray, B: np.ndarray
                    ) -> np.ndarray:
    """Coordinatewise power of a (di)graph between two walk arrays.

    A and B are integer arrays of shapes (|A|, L) and (|B|, L); the result
    is the |A| x |B| matrix of `any_i arc[A[:, i], B[:, i]]` in `pack_rows`
    form.  It is built one coordinate at a time as a row gather of the
    packed k x |B| table of arc[:, B[:, i]], so no larger array exists.
    The table is packed from blocks of at most 2^24 unpacked entries, each
    gathered by `take`, which leaves it C-contiguous for `pack_rows`
    (a column gather by indexing would leave it Fortran-ordered, and
    packing that is about ten times slower)."""
    width = -(-B.shape[0] // 64)
    out = np.zeros((A.shape[0], width), dtype="<u8")
    table = np.empty((arc.shape[0], width), dtype="<u8")
    step = max(1, 2**24 // max(B.shape[0], 1))
    for i in range(A.shape[1]):
        for r in range(0, arc.shape[0], step):
            table[r:r + step] = pack_rows(arc[r:r + step].take(B[:, i],
                                                               axis=1))
        out |= table[A[:, i]]
    return out


def check_vertex_cap(count: int, what: str) -> None:
    """Raise ResourceCapExceeded when a search would hold more than
    MAX_VERTICES vertices; called before anything of that size exists."""
    if count > MAX_VERTICES:
        raise ResourceCapExceeded(
            f"{what} of {count} vertices exceeds cap {MAX_VERTICES}")


def enumerate_walks(P: Digraph, n: int) -> np.ndarray:
    """V^n(P): every length-n vertex sequence whose consecutive pairs are
    arcs of P, in lexicographic order, one per row of an array of the
    narrowest unsigned type that holds P's vertices.  Each layer is counted
    before it is built (the first by `arc_matrix`), so a walk set over
    MAX_VERTICES raises ResourceCapExceeded early."""
    if n < 1:
        raise SpecError("walk length must be >= 1")
    arc = P.arc_matrix()
    walks = np.arange(P.k).reshape(P.k, 1)
    for _ in range(n - 1):
        succ = arc[walks[:, -1]]  # row i: the vertices that extend walk i
        check_vertex_cap(int(succ.sum()), "walk set")
        rows, last = np.nonzero(succ)
        walks = np.column_stack([walks[rows], last])
    # the array lives as long as the search; keep it narrow
    return walks.astype(np.min_scalar_type(P.k - 1))


def count_walks(P: Digraph, n: int) -> int:
    """|V^n(P)| by exact integer transfer-matrix counting."""
    if n < 1:
        raise SpecError("walk length must be >= 1")
    counts = [1] * P.k
    succ = [[b for (a, b) in P.arcs if a == v] for v in range(P.k)]
    for _ in range(n - 1):
        nxt = [0] * P.k
        for v in range(P.k):
            for u in succ[v]:
                nxt[v] += counts[u]
        counts = nxt
    return sum(counts)


def all_words(n: int) -> Iterator[str]:
    """All binary words of length n in lexicographic order."""
    for v in range(2**n):
        yield format(v, f"0{n}b")


# Named graphs from the triangle/star theorems and the Sperner examples.

def _triangle(a: str, b: str, c: str, name: str) -> ChannelGraph:
    return parse_channel_spec(f"{a}-{b};{a}-{c};{b}-{c}", name=name)


def _star(center: str, name: str) -> ChannelGraph:
    others = [p for p in PAIR_LETTERS if p != center]
    return parse_channel_spec(";".join(f"{center}-{p}" for p in others),
                              name=name)


TRIANGLE_F = _triangle("00", "01", "10", "F")
TRIANGLE_G = _triangle("00", "01", "11", "G")
STAR_L = _star("00", "L")
STAR_Q = _star("01", "Q")

NAMED_CHANNELS = {g.name: g for g in (TRIANGLE_F, TRIANGLE_G, STAR_L, STAR_Q)}

FIBONACCI_DIGRAPH = parse_digraph_spec("0>0;0>1;1>0", 2, name="fibonacci")
SINGLE_ARC_DIGRAPH = parse_digraph_spec("0>1", 2, name="arc01")


def pair_shift_digraph() -> Digraph:
    """De Bruijn shift on the pair alphabet: arc (ab) -> (cd) iff b == c.
    Vertex i is PAIR_LETTERS[i]; walks of length m correspond bijectively to
    binary words of length m+1."""
    arcs = set()
    for i, p in enumerate(PAIR_LETTERS):
        for j, q in enumerate(PAIR_LETTERS):
            if p[1] == q[0]:
                arcs.add((i, j))
    return Digraph(4, frozenset(arcs), name="pair-shift")


def complete_digraph(k: int, loops: bool = False) -> Digraph:
    arcs = {(a, b) for a in range(k) for b in range(k) if loops or a != b}
    return Digraph(k, frozenset(arcs), name=f"K{k}")


def cycle_sym_digraph(k: int) -> Digraph:
    """k-cycle with both arc directions on every edge."""
    arcs = set()
    for v in range(k):
        arcs.add((v, (v + 1) % k))
        arcs.add(((v + 1) % k, v))
    return Digraph(k, frozenset(arcs), name=f"C{k}sym")


NAMED_DIGRAPHS = {
    "fibonacci": FIBONACCI_DIGRAPH,
    "pair-shift": pair_shift_digraph(),
    "C5sym": cycle_sym_digraph(5),
    "K5": complete_digraph(5),
}
