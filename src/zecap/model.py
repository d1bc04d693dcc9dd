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

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

PAIR_LETTERS = ("00", "01", "10", "11")

# the one vertex cap of every search: walk sets, clique universes, and so
# exact_M's n <= 14 (2^14 pair-shift walks of length 13)
MAX_VERTICES = 2**14

# the most unpacked entries of arc that `power_adjacency` gathers at once
TABLE_ENTRIES = 2**24

# `Automaton.words` refuses, before building anything, words whose
# lengths 1..n would take more bytes
MAX_LAYER_BYTES = 64 * 2**20


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


class Code:
    """A set of distinct equal-length binary words, held in one of two
    forms.

    `Code(n, words)` holds the set, and `Code.from_lines(n, lines)` holds
    the sorted word-file matrix alone, as `sorted_lines` returns it.  The
    first read of `words` spells a held matrix into the set and drops the
    matrix; from then on, as for a code built from a set, the set is the
    source of truth and may change: `sorted_lines` and `len` recompute
    from it.  Either form is checked once, in one vectorized test; only
    when it fails are the words walked, in sorted order, to name the
    first bad word, so the message does not depend on the set's hash
    order."""

    def __init__(self, n: int, words: set[str] | None = None):
        self.n = n
        self._words = set() if words is None else words
        self._lines: np.ndarray | None = None
        self._set_lines()

    @classmethod
    def from_lines(cls, n: int, lines: np.ndarray) -> "Code":
        """The code whose word file is the bytes of `lines`, a (k, n + 1)
        uint8 matrix: each row a word's ASCII digits and then a newline
        byte, in any order.  A bad row raises the SpecError that the set
        of the rows' words, each row but its last byte, would raise; a row
        whose last byte is not a newline, and a repeated word, are named
        too.  Rows whose words already strictly ascend are held as they
        are, through a read-only view, so `lines` must not be written to
        afterwards."""
        code = cls.__new__(cls)
        code.n, code._words = n, None
        k, width = lines.shape
        if not (width == n + 1 and (n >= 1 or not k)
                and _digits(lines[:, :-1])
                and (lines[:, -1] == ord("\n")).all()):
            rows = sorted(bytes(r).decode("ascii", "replace") for r in lines)
            check_words([r[:-1] for r in rows], n)
            for r in rows:
                if r[-1] != "\n":
                    raise SpecError(f"word {r[:-1]!r} is not followed by "
                                    "a newline")
            raise SpecError(f"an empty matrix of width {width}, expected "
                            f"{n + 1}")
        lines, same = _sorted_lines(lines)
        if same.size:
            word = bytes(lines[same[0], :-1]).decode("ascii")
            raise SpecError(f"word {word!r} repeats")
        lines = lines.view()
        lines.flags.writeable = False
        code._lines = lines
        return code

    @property
    def words(self) -> set[str]:
        if self._words is None:
            self._words = set(spell(self._lines[:, :-1]))
            self._lines = None
        return self._words

    def _set_lines(self) -> np.ndarray:
        """The set's words in set order as a (len, n + 1) uint8 matrix:
        each row is a word's ASCII bytes and then a newline byte."""
        k, width = len(self._words), max(self.n, 0) + 1
        # "replace" keeps one byte per character, so a non-ASCII character
        # is one "?" byte and fails the digit test
        data = np.frombuffer("\n".join([*self._words, ""]).encode(
            "ascii", "replace"), dtype=np.uint8)
        if data.size == k * width and (self.n >= 1 or not k):
            lines = data.reshape(k, width)
            # with only digits before the last column, the k newlines that
            # end the words fill that column, so every word is n digits
            if _digits(lines[:, :-1]):
                return lines
        check_words(sorted(self._words), self.n)
        raise AssertionError("the joined test refused valid words")

    def sorted_lines(self) -> np.ndarray:
        """The word file's bytes as a (len, n + 1) uint8 matrix: the words
        in lexicographic order, one per row in ASCII, each followed by a
        newline byte.  `[:, :-1]` is the words' digit matrix.  A held
        matrix is returned itself, read-only."""
        if self._words is None:
            return self._lines
        lines = _sorted_lines(self._set_lines())[0]
        # a set in word order already comes back as its joined bytes,
        # which are read-only
        return lines if lines.flags.writeable else lines.copy()

    def __len__(self) -> int:
        return len(self._lines if self._words is None else self._words)


def _digits(chars: np.ndarray) -> bool:
    """True iff every byte is an ASCII "0" or "1" (bytes below "0" wrap to
    large uint8 differences)."""
    return bool((chars - np.uint8(ord("0")) <= 1).all())


def _sorted_lines(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a word-file matrix in word order, and the index of each
    sorted row that equals the next.  Rows whose words already strictly
    ascend, which also rules out repeats, are returned as they are, with
    no sort and no gather."""
    lines = np.ascontiguousarray(lines)
    # each row as one bytes value, compared bytewise: ASCII digits and
    # then a newline compare as the words do
    rows = lines.view(f"S{lines.shape[1]}")[:, 0]
    if (rows[1:] > rows[:-1]).all():
        return lines, np.empty(0, np.intp)
    # the rows' low bits, packed big-endian eight to a byte, sort as the
    # words do (a newline's low bit is 0 in every row); lexsort's last key
    # is its primary one
    order = np.lexsort(np.packbits(lines & 1, axis=1).T[::-1])
    rows = rows[order]
    return lines[order], np.flatnonzero(rows[1:] == rows[:-1])


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
    form.  It is built one coordinate at a time from the packed k x |B|
    table of arc[:, B[:, i]], by walk prefix: consecutive rows of A that
    agree on their first i coordinates share the OR of those coordinates'
    table rows, so one row is held per run of such rows.  At coordinate i
    each run splits where A[:, i] changes, each new run copies its
    parent's row, and the table row of its own letter is ORed in, 2^16
    words at a time; the runs are expanded to |A| rows only at the end,
    where rows of A repeat.  Walks in lexicographic order share long
    prefixes, so most coordinates gather far fewer than |A| rows, and no
    array exists beyond the runs' rows before and after a split.  Only
    consecutive rows are grouped, so any order of A gives the same
    result.  The tables of as many coordinates as fit in TABLE_ENTRIES
    unpacked entries are packed together, and a table larger than that
    is packed in blocks of rows (`_coordinate_tables`)."""
    width = -(-B.shape[0] // 64)
    head = np.zeros(A.shape[0], dtype=bool)  # rows that start a run
    head[:1] = True
    start = np.flatnonzero(head)
    out = np.zeros((len(start), width), dtype="<u8")
    span = max(1, TABLE_ENTRIES // max(arc.shape[0] * B.shape[0], 1))
    block = max(1, 2**16 // max(width, 1))
    change = A[1:] != A[:-1]
    for i in range(A.shape[1]):
        if i % span == 0:
            tables = _coordinate_tables(arc, B[:, i:i + span].T)
        table = tables[i % span]
        head[1:] |= change[:, i]
        runs = np.flatnonzero(head)
        if len(runs) > len(start):
            # each new run copies the row of the run it splits from
            out = out.take(np.searchsorted(start, runs, "right") - 1, axis=0)
            start = runs
        letter = A[:, i].take(start)
        for r in range(0, len(start), block):
            out[r:r + block] |= table.take(letter[r:r + block], axis=0)
    if len(start) < A.shape[0]:
        out = np.repeat(out, np.diff(start, append=A.shape[0]), axis=0)
    return out


def _coordinate_tables(arc: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The packed tables arc[:, c] of the rows c of `cols`, as one
    (len(cols), k, width) array, gathered in blocks of rows of arc of at
    most TABLE_ENTRIES entries.  `take` leaves each block C-contiguous for
    `pack_rows` (a column gather by indexing would leave it
    Fortran-ordered, and packing that is about ten times slower)."""
    c, nb = cols.shape
    step = max(1, TABLE_ENTRIES // max(c * nb, 1))
    tables = np.empty((c, arc.shape[0], -(-nb // 64)), dtype="<u8")
    for r in range(0, arc.shape[0], step):
        rows = arc[r:r + step]
        bits = rows.take(cols, axis=1).reshape(len(rows) * c, nb)
        tables[:, r:r + step] = pack_rows(bits).reshape(
            len(rows), c, tables.shape[2]).swapaxes(0, 1)
    return tables


def check_vertex_cap(count: int, what: str) -> None:
    """Raise ResourceCapExceeded when a search would hold more than
    MAX_VERTICES vertices; called before anything of that size exists."""
    if count > MAX_VERTICES:
        raise ResourceCapExceeded(
            f"{what} of {count} vertices exceeds cap {MAX_VERTICES}")


@dataclass(frozen=True, eq=False)
class Automaton:
    """A deterministic finite automaton over the symbols 0..r-1.

    `delta` is a (states, r) integer table: delta[q, a] is the state that
    symbol a leads to from q, or -1, the dead state.  The start state is
    0, and `accept` is a boolean mask of the accepting states.  It counts
    the words it accepts exactly, and lists those of one length in
    lexicographic order."""

    delta: np.ndarray
    accept: np.ndarray

    @functools.cached_property
    def _succ(self) -> list[list[int]]:
        """Each state's successors that are not the dead state, one per
        symbol that leads there, in symbol order."""
        return [row[row >= 0].tolist() for row in self.delta]

    def counts(self) -> Iterator[list[int]]:
        """c_0, c_1, ...: c_m[q] is the number of length-m words that lead
        from q to an accepting state, an exact Python int, by the
        right-language recurrence c_0 = accept, c_m[q] = the sum over a
        of c_{m-1}[delta[q, a]], the dead state counting 0."""
        c = [int(a) for a in self.accept]
        while True:
            yield c
            c = [sum(map(c.__getitem__, row)) for row in self._succ]

    def count(self, n: int) -> int:
        """The number of accepted words of length n."""
        return next(itertools.islice(self.counts(), n, None))[0]

    def words(self, n: int, check: Callable[[int], None]) -> np.ndarray:
        """The accepted words of length n >= 1 in lexicographic order, one
        per row of an array of the narrowest unsigned type that holds the
        symbols.  The array is Fortran-ordered: each position's symbols
        are contiguous.

        q's words of length m are, for each symbol a in order, a followed
        by delta[q, a]'s words of length m - 1 (`_build`).  They are built
        only for the states that 0 reaches by exactly n - m symbols, from
        the words of length m - 1 alone.  Before any is written, `check`
        is called with the number of words, and ResourceCapExceeded is
        raised when the words of the lengths 1..m take more than
        MAX_LAYER_BYTES for some m <= n.  That bounds the work, as the
        words built at length m take a few times the bytes of the words
        of length m, and the memory: the words built at one length are no
        more rows than the words of length n (the words of states reached
        by distinct prefixes extend to distinct words), so what is alive
        at once, two lengths or the last length and the result, takes at
        most twice their bytes.  As each length of a nonempty set adds at
        least m bytes, the count stops by m = 11 585 at any n, and an
        empty set is found once the counts vanish."""
        dtype = np.min_scalar_type(self.delta.shape[1] - 1)
        counts, held = [], 0
        for m, c in zip(range(n + 1), self.counts()):
            counts.append(c)
            if not any(c):  # nor are there longer words
                break
            if m == n:
                check(c[0])
            held += c[0] * m * dtype.itemsize
            if held > MAX_LAYER_BYTES:
                raise ResourceCapExceeded(
                    f"byte count {held} of the words up to length {m} "
                    f"exceeds cap {MAX_LAYER_BYTES}")
        if not counts[-1][0]:
            return np.empty((0, n), dtype)
        live = [[0]]  # the states built at the lengths n, n - 1, ..., 1
        for m in range(n - 1, 0, -1):
            live.append(list({t for q in live[-1] for t in self._succ[q]
                              if counts[m][t]}))
        return self._build(live[::-1], dtype).T

    def _build(self, live: list[list[int]], dtype: np.dtype) -> np.ndarray:
        """The words of `words`, each a column, so that every copy moves
        whole rows: live[m - 1] lists the states whose words of length m
        are built.  q's words of length m are its parts, for each symbol a
        in order, a followed by delta[q, a]'s words of length m - 1; a part
        depends only on a and delta[q, a], so it is built once, a symbol
        row and a copy of the words it extends, for every state that has
        it."""
        blocks = {q: [np.empty((0, 1), dtype)]
                  for q in np.flatnonzero(self.accept).tolist()}
        for m, states in enumerate(live, 1):
            pairs = {q: [(a, t) for a, t in enumerate(self.delta[q].tolist())
                         if t in blocks] for q in states}
            parts = {}
            for a, t in dict.fromkeys(itertools.chain(*pairs.values())):
                parts[a, t] = part = np.empty(
                    (m, sum(b.shape[1] for b in blocks[t])), dtype)
                part[0] = a
                np.concatenate(blocks[t], axis=1, out=part[1:])
            blocks = {q: [parts[p] for p in qp] for q, qp in pairs.items()}
        return np.concatenate(blocks[0], axis=1)


def _walk_automaton(P: Digraph, n: int) -> Automaton:
    """V^*(P) as an automaton over P's vertices, for walks of n >= 1
    vertices: state v + 1 is a walk that ends at v, and the start state 0
    takes any first vertex."""
    if n < 1:
        raise SpecError("walk length must be >= 1")
    # int16 holds every state, as arc_matrix caps P.k at MAX_VERTICES
    arcs = np.vstack([np.ones((1, P.k), bool), P.arc_matrix()])
    return Automaton(np.where(arcs, np.arange(1, P.k + 1, dtype=np.int16),
                              np.int16(-1)), np.ones(P.k + 1, bool))


def enumerate_walks(P: Digraph, n: int) -> np.ndarray:
    """V^n(P): every length-n vertex sequence whose consecutive pairs are
    arcs of P, in lexicographic order, one per row of an array of the
    narrowest unsigned type that holds P's vertices, as
    `Automaton.words` lists them.  A walk set over MAX_VERTICES, or of
    more than MAX_LAYER_BYTES over its lengths, raises
    ResourceCapExceeded before any walk is built."""
    return np.ascontiguousarray(_walk_automaton(P, n).words(
        n, lambda count: check_vertex_cap(count, "walk set")))


def count_walks(P: Digraph, n: int) -> int:
    """|V^n(P)|, exact, by the counts of the walk automaton."""
    return _walk_automaton(P, n).count(n)


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
