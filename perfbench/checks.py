"""Independent correctness checks for the benchmark's outputs.

Nothing here calls zecap.  Sizes and counts come from golden tables, and
witnesses and reports are re-checked from their definitions with plain numpy,
so a change to zecap's own predicates cannot make a wrong answer pass.
Witnesses are never compared byte for byte: any valid maximum code passes.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

PAIR_LETTERS = ("00", "01", "10", "11")

# Exact answers.  M(G, n) is keyed by (channel, n); omega_power_markov on the
# pair-shift digraph with walk length m answers M(G, m + 1).
GOLDEN_M = {
    ("F", 12): 1201, ("G", 12): 924, ("L", 12): 616, ("Q", 12): 233,
    ("F", 11): 653,
    ("F", 6): 31, ("G", 6): 28, ("L", 6): 21, ("Q", 6): 13,
    ("F", 5): 17,
}
GOLDEN_OMEGA_S = {
    ("C5sym", "K5", 3): 10, ("C6sym", "K6", 3): 8,
    ("arc01", "fibonacci", 11): 84,
    ("C5sym", "K5", 2): 4, ("C6sym", "K6", 2): 4,
    ("arc01", "fibonacci", 6): 10,
}
GOLDEN_FAMILY_COUNTS = {
    ("ministring-tribonacci", 18): 35890, ("oddrun", 18): 21794,
    ("no111", 18): 66012, ("no-isolated-ones", 18): 10252,
    ("fibonacci", 18): 6765,
    ("oddrun", 14): 2069, ("fibonacci", 13): 610,
    ("ministring-tribonacci", 8): 81, ("oddrun", 8): 61, ("no111", 8): 149,
    ("no-isolated-ones", 8): 37, ("fibonacci", 8): 55,
    ("oddrun", 6): 19, ("fibonacci", 5): 13,
}
# Rates in bits of the four named characteristic equations, to 10 digits.
GOLDEN_RATES = {
    "ministring-tribonacci": 0.8791464216,
    "oddrun": 0.8495491611,
    "no-isolated-ones": 0.8113704628,
    "fibonacci": 0.6942419136,
}
RATE_TOL = 1e-9

# Each family as a regular language over {0, 1}.
FAMILY_PATTERNS = {
    "ministring-tribonacci": re.compile(r"(?:0|01|011)*"),
    "oddrun": re.compile(r"(?:0|01(?:11)*)*"),
    "no111": re.compile(r"(?:0|10|110)*(?:|1|11)"),
    "no-isolated-ones": re.compile(r"(?:0|011+)*"),
    "fibonacci": re.compile(r"(?:0|10)*1?"),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def word_matrix(words: list[str], n: int, alphabet: str = "01") -> np.ndarray:
    """(len(words), n) uint8 array of symbol indices; checks that the words
    are distinct, of length n and over the alphabet."""
    require(len(set(words)) == len(words), "witness has repeated words")
    for w in words:
        require(len(w) == n and all(c in alphabet for c in w),
                f"bad word {w!r} (expected length {n} over {alphabet!r})")
    if not words:
        return np.zeros((0, n), dtype=np.uint8)
    raw = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return (raw - ord("0")).reshape(len(words), n)


def edge_matrix(edges) -> np.ndarray:
    """4x4 symmetric bool matrix of a channel given as pair-letter edges."""
    mat = np.zeros((4, 4), dtype=bool)
    for a, b in edges:
        i, j = PAIR_LETTERS.index(a), PAIR_LETTERS.index(b)
        mat[i, j] = mat[j, i] = True
    return mat


def distinguishable_matrix(W: np.ndarray, emat: np.ndarray) -> np.ndarray:
    """dist[u, v]: some coordinate pair of words u and v is an edge."""
    letters = 2 * W[:, :-1] + W[:, 1:]
    dist = np.zeros((len(W), len(W)), dtype=bool)
    for col in letters.T:
        dist |= emat[col[:, None], col[None, :]]
    return dist


def check_size(reported: int, golden: int) -> None:
    require(reported == golden, f"size {reported}, expected {golden}")


def check_distinguishable_code(words: list[str], n: int, edges,
                               size: int) -> None:
    """A maximum code: `size` distinct length-n words, pairwise
    distinguishable for the channel."""
    require(len(words) == size, f"witness has {len(words)} words, size {size}")
    dist = distinguishable_matrix(word_matrix(words, n), edge_matrix(edges))
    np.fill_diagonal(dist, True)
    require(bool(dist.all()), "witness has an indistinguishable pair")


def pair_walks_to_words(walks: list[str]) -> list[str]:
    """Words of pair-shift walks written as concatenated pair letters."""
    words = []
    for s in walks:
        letters = [s[i:i + 2] for i in range(0, len(s), 2)]
        require(len(s) % 2 == 0 and all(p in PAIR_LETTERS for p in letters),
                f"not a pair-letter walk: {s!r}")
        require(all(a[1] == b[0] for a, b in zip(letters, letters[1:])),
                f"not a pair-shift walk: {s!r}")
        words.append(letters[0] + "".join(p[1] for p in letters[1:]))
    return words


def check_symmetric_clique(words: list[str], n: int, k: int, d_arcs, p_arcs,
                           size: int) -> None:
    """A symmetric clique of D^n on walks of P: distinct walks of P, and
    every ordered pair has a coordinate arc of D (loops ignored)."""
    require(len(words) == size, f"witness has {len(words)} words, size {size}")
    W = word_matrix(words, n, alphabet="0123456789"[:k])
    P = np.zeros((k, k), dtype=bool)
    for a, b in p_arcs:
        P[a, b] = True
    require(bool(P[W[:, :-1], W[:, 1:]].all()), "witness word is not a walk")
    D = np.zeros((k, k), dtype=bool)
    for a, b in d_arcs:
        D[a, b] = a != b
    fwd = np.zeros((len(W), len(W)), dtype=bool)
    for col in W.T:
        fwd |= D[col[:, None], col[None, :]]
    sym = fwd & fwd.T
    np.fill_diagonal(sym, True)
    require(bool(sym.all()), "witness pair lacks an arc in some direction")


def check_family_file(family: str, n: int, words: list[str],
                      reported: int) -> None:
    """The word file holds exactly the family: the golden count of distinct
    length-n words, each in the family's language."""
    expected = GOLDEN_FAMILY_COUNTS[(family, n)]
    require(reported == expected,
            f"{family} n={n} reports {reported} words, expected {expected}")
    word_matrix(words, n)
    require(len(words) == expected,
            f"{family} n={n} file has {len(words)} words, expected {expected}")
    pattern = FAMILY_PATTERNS[family]
    bad = next((w for w in words if not pattern.fullmatch(w)), None)
    require(bad is None, f"{bad!r} is not in family {family}")


def check_verify_record(words: list[str], n: int, edges, rc: int,
                        record: dict, expect_pass: bool) -> None:
    """A verify record agrees with a direct check of every pair: pass flag,
    exit code, checked pair count and the listed failing pairs."""
    W = word_matrix(words, n)
    dist = distinguishable_matrix(W, edge_matrix(edges))
    upper = np.triu(~dist, k=1)
    n_fail = int(upper.sum())
    truly_pass = n_fail == 0
    require(truly_pass == expect_pass,
            f"expected verify {'pass' if expect_pass else 'fail'}, but the "
            f"code has {n_fail} failing pairs")
    out = record["outputs"]
    require(out["pass"] == truly_pass and rc == (0 if truly_pass else 1),
            f"verify says pass={out['pass']} rc={rc}; {n_fail} pairs fail")
    k = len(words)
    require(out["checked_pairs"] == k * (k - 1) // 2,
            f"checked_pairs {out['checked_pairs']} != C({k},2)")
    listed = out["failures"]
    require(len(listed) == min(100, n_fail),
            f"{len(listed)} failures listed, {n_fail} exist")
    index = {w: i for i, w in enumerate(words)}
    for x, y in listed:
        i, j = index.get(x), index.get(y)
        require(i is not None and j is not None and i != j
                and not dist[i, j], f"listed pair {x},{y} is not a failure")


def equation_value(x: float, head, tail) -> float:
    total = sum(x ** l for l in head)
    if tail is not None:
        start, step = tail
        total += x ** start / (1.0 - x ** step)
    return total


def check_capacity_record(family: str, head, tail, tol: float,
                          record: dict) -> None:
    """The root solves sum x^l = 1 within tol, and the rate matches the
    recorded value."""
    out = record["outputs"]
    root = out["root"]
    require(0.0 < root < 1.0, f"root {root} outside (0,1)")
    # a re-evaluation may round differently in the last bits
    residual = abs(equation_value(root, head, tail) - 1.0)
    require(residual <= tol + 4 * sys.float_info.epsilon,
            f"{family}: residual {residual} exceeds tol {tol}")
    rate = math.log2(1.0 / root)
    require(abs(rate - GOLDEN_RATES[family]) <= RATE_TOL
            and abs(out["rate_bits"] - rate) <= RATE_TOL,
            f"{family}: rate {out['rate_bits']} != {GOLDEN_RATES[family]}")
