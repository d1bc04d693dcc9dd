"""Acceptance battery: every criterion below prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 6a (the sliding star-00 map landing exactly in the
no-isolated-ones set) is expected to fail: the map fixes 001, whose
trailing 1 is isolated, so the claimed containment is false at the right
boundary.  The assertion is kept as stated; see the analysis printed by
the test.
"""

import itertools
import math
import time

import networkx as nx
import pytest

from zecap.model import (
    FIBONACCI_DIGRAPH,
    NAMED_CHANNELS,
    SINGLE_ARC_DIGRAPH,
    STAR_L,
    STAR_Q,
    TRIANGLE_F,
    TRIANGLE_G,
    all_words,
    complete_digraph,
    cycle_sym_digraph,
    distinguishable,
    enumerate_walks,
    pair_shift_digraph,
    parse_channel_spec,
)
from zecap.search import exact_M, omega_power_markov, omega_s
from zecap.capacity import (
    CharacteristicEquation,
    empirical_rates,
    solve_characteristic,
)
from zecap.construct import (
    FAMILIES,
    FAMILY_COUNTS,
    G_STAR_00,
    G_STAR_01,
    NAMED_EQUATIONS,
    ODD_RUN_SET,
    TRIBONACCI_SET,
    largest_block_class,
    ministring_code,
    ministring_count,
    shorten_even_runs,
    sliding_g_map,
    verify_code,
)

GOLDEN_RATE = math.log2((1 + math.sqrt(5)) / 2)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)


def bk_oracle_M(G, n) -> int:
    """Exhaustive independent oracle: enumerate every maximal clique of the
    distinguishability graph with networkx's Bron-Kerbosch."""
    words = list(all_words(n))
    g = nx.Graph()
    g.add_nodes_from(words)
    for x, y in itertools.combinations(words, 2):
        if distinguishable(x, y, G):
            g.add_edge(x, y)
    return max((len(c) for c in nx.find_cliques(g)), default=1)


def dilworth_antichain(elements, leq) -> int:
    g = nx.Graph()
    left = [("L", e) for e in elements]
    g.add_nodes_from(left, bipartite=0)
    g.add_nodes_from((("R", e) for e in elements), bipartite=1)
    for u in elements:
        for v in elements:
            if u != v and leq(u, v):
                g.add_edge(("L", u), ("R", v))
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
    return len(elements) - len(matching) // 2


def test_criterion_1_analytic_constants():
    t0 = time.perf_counter()
    half = solve_characteristic(CharacteristicEquation((2, 2)))
    tri = solve_characteristic(CharacteristicEquation((1, 2, 3)))
    odd = solve_characteristic(CharacteristicEquation((1,), tail=(2, 2)))
    iso = solve_characteristic(CharacteristicEquation((1,), tail=(3, 1)))
    gold = solve_characteristic(CharacteristicEquation((1, 2)))
    elapsed = time.perf_counter() - t0
    checks = [
        abs(half.rate_bits - 0.5) <= 1e-7,
        abs(tri.rate_bits - 0.878) <= 2e-3,
        tri.residual <= 1e-12,
        abs(odd.rate_bits - 0.849) <= 1e-3,
        abs(iso.rate_bits - 0.81) <= 5e-3,
        abs(gold.rate_bits - 0.69424) <= 1e-4,
        elapsed < 1.0,
    ]
    report("1 (analytic constants)", all(checks),
           f"rates 0.5/{tri.rate_bits:.4f}/{odd.rate_bits:.4f}/"
           f"{iso.rate_bits:.4f}/{gold.rate_bits:.5f} in {elapsed:.3f}s")
    assert all(checks)


def test_criterion_2_triangle_sandwich():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 13):
        lower = len(largest_block_class(
            ministring_code(TRIBONACCI_SET, n), TRIBONACCI_SET, "011"))
        exact = exact_M(TRIANGLE_F, n, lex_min=False).size
        upper = FAMILY_COUNTS["no111"](n)
        ok &= lower <= exact <= upper
        if n <= 6:
            ok &= exact == bk_oracle_M(TRIANGLE_F, n)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 300
    report("2 (triangle sandwich + naive oracle)", ok,
           f"n=3..12 with oracle cross-check to n=6 in {elapsed:.1f}s")
    assert ok


def test_criterion_3_embedding_identity():
    shift = pair_shift_digraph()
    ok = True
    for n in range(2, 11):
        m_val = exact_M(TRIANGLE_F, n, lex_min=False).size
        w_val = omega_power_markov(TRIANGLE_F, shift, n - 1,
                                   lex_min=False).size
        ok &= m_val == w_val
    report("3 (de Bruijn embedding identity)", ok, "n=2..10 exact equality")
    assert ok


def test_criterion_4_supermultiplicative_and_monotone():
    ok = True
    for name in ("F", "G", "L", "Q"):
        g = NAMED_CHANNELS[name]
        sizes = {n: exact_M(g, n, lex_min=False).size for n in range(1, 11)}
        for n in range(1, 10):
            ok &= sizes[n + 1] >= sizes[n]
            for m in range(1, 11 - n):
                ok &= sizes[n + m] >= sizes[n] * sizes[m]
    report("4 (supermultiplicativity + monotonicity)", ok,
           "F/G/L/Q, all n+m <= 10")
    assert ok


def test_criterion_5_odd_run_converse():
    ok = True
    # (a) the run-shortening map lands in B_n; (b) collisions are never
    # distinguishable for the second triangle
    for n in range(1, 15):
        groups: dict[str, list[str]] = {}
        for w in all_words(n):
            y = shorten_even_runs(w)
            runs_ok = all(part and len(part) % 2 == 1
                          for part in y.split("0") if part)
            ok &= runs_ok
            groups.setdefault(y, []).append(w)
        for group in groups.values():
            for x, y in itertools.combinations(group, 2):
                ok &= not distinguishable(x, y, TRIANGLE_G)
    # (c) exact_M(G,n) <= |B_n| (n <= 12) and |B_n| < 3|C_n| (10 <= n <= 14)
    for n in range(1, 13):
        ok &= exact_M(TRIANGLE_G, n, lex_min=False).size \
            <= ministring_count(ODD_RUN_SET, n, leading_zero=False)
    for n in range(10, 15):
        ok &= ministring_count(ODD_RUN_SET, n, leading_zero=False) \
            < 3 * ministring_count(ODD_RUN_SET, n)
    report("5 (odd-run converse mechanics)", ok,
           "map range, collision pairs, |B_n| bounds, n <= 14")
    assert ok


def test_criterion_6a_star00_map_lands_in_no_isolated_ones():
    # stated claim: every leading-0 input maps into the no-isolated-ones
    # set.  This is false at the right boundary: 001 is a fixed point of
    # the map and its final 1 is isolated.  Kept as stated; expected FAIL.
    failures = []
    for n in range(2, 11):
        target = FAMILIES["no-isolated-ones"](n).words
        for w in all_words(n):
            if w[0] == "0" and sliding_g_map(w, G_STAR_00) not in target:
                failures.append((n, w, sliding_g_map(w, G_STAR_00)))
    ok = not failures
    report("6a (star-00 map lands in no-isolated-ones set)", ok,
           "holds except for trailing lone 1s, e.g. "
           f"{failures[0][1]} -> {failures[0][2]}" if failures
           else "n=2..10")
    assert ok, (
        "claim is false at the right boundary: the map fixes words ending "
        f"in 001 (first counterexample {failures[0]}); every interior 1-run "
        "of an image does have length >= 2 (see "
        "test_construct.TestSlidingGMap)")


def test_criterion_6b_star01_map_lands_in_fibonacci_set():
    ok = True
    for n in range(1, 11):
        fib = FAMILIES["fibonacci"](n).words
        for w in all_words(n):
            ok &= sliding_g_map(w, G_STAR_01) in fib
    report("6b (star-01 map lands in Fibonacci set)", ok, "all words n<=10")
    assert ok


def test_criterion_6c_injectivity_and_subgraph_bound():
    ok = True
    single_edge = parse_channel_spec("00-01")
    for n in range(2, 11):
        code_l = exact_M(STAR_L, n).witness
        images_l = [sliding_g_map(w, G_STAR_00) for w in code_l]
        ok &= len(set(images_l)) == len(images_l)
        code_q = exact_M(STAR_Q, n).witness
        images_q = [sliding_g_map(w, G_STAR_01) for w in code_q]
        ok &= len(set(images_q)) == len(images_q)
        ok &= exact_M(STAR_Q, n, lex_min=False).size >= \
            exact_M(single_edge, n, lex_min=False).size
    report("6c (map injectivity on optimal codes + subgraph bound)", ok,
           "L and Q optimal codes, n <= 10")
    assert ok


def test_criterion_7_sperner_suite():
    ok = True
    for n in range(1, 11):
        fib_words = ["".join(map(str, w))
                     for w in enumerate_walks(FIBONACCI_DIGRAPH, n)]

        def leq(u, v):
            return all(a <= b for a, b in zip(u, v))

        expected = dilworth_antichain(fib_words, leq)
        got = omega_s(SINGLE_ARC_DIGRAPH, FIBONACCI_DIGRAPH, n,
                      lex_min=False).size
        ok &= got == expected
        if n == 10:
            rate = math.log2(got) / n
            ok &= abs(rate - GOLDEN_RATE) <= 0.15
            detail = f"Fib(10)={got}, rate {rate:.4f}"
    report("7 (Sperner antichain cross-check)", ok, detail)
    assert ok


def test_criterion_8_pentagon_report():
    t0 = time.perf_counter()
    c5, k5 = cycle_sym_digraph(5), complete_digraph(5)
    values = {n: omega_s(c5, k5, n, lex_min=False).size for n in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    ok = values[1] == 2 and elapsed <= 120
    report("8 (pentagon within loopless complete type)", ok,
           f"omega_s = {values}, n=1 rate {math.log2(values[1]):.1f}, "
           f"{elapsed:.1f}s; no upper-bound claim")
    assert ok


def test_criterion_9_counting_and_convergence():
    ok = True
    # exact recurrences to n = 80
    a = [ministring_count(TRIBONACCI_SET, n) for n in range(0, 81)]
    ok &= all(a[n] == a[n - 1] + a[n - 2] + a[n - 3] for n in range(3, 81))
    c = [FAMILY_COUNTS["oddrun"](n) for n in range(0, 81)]
    ok &= all(c[n] == c[n - 1] + sum(c[n - 2 * k]
                                     for k in range(1, n // 2 + 1))
              for n in range(1, 81))
    g = [FAMILY_COUNTS["no-isolated-ones"](n) for n in range(0, 81)]
    ok &= all(g[n] == g[n - 1] + sum(g[n - l] for l in range(3, n + 1))
              for n in range(1, 81))
    f = [FAMILY_COUNTS["fibonacci"](n) for n in range(0, 81)]
    ok &= all(f[n] == f[n - 1] + f[n - 2] for n in range(2, 81))
    ok &= max(a[80], c[80], g[80], f[80]) > 0
    # ratio rates at n = 64 vs analytic roots
    fams = {"ministring-tribonacci": a, "oddrun": c,
            "no-isolated-ones": g, "fibonacci": f}
    worst = 0.0
    for fam, counts in fams.items():
        _, ratio = empirical_rates(counts[1:66])
        analytic = solve_characteristic(NAMED_EQUATIONS[fam]).rate_bits
        worst = max(worst, abs(ratio[63] - analytic))
        ok &= abs(ratio[63] - analytic) <= 1e-6
    report("9 (exact counts + rate convergence)", ok,
           f"recurrences to n=80, worst |ratio - analytic| = {worst:.2e}")
    assert ok


def test_constructions_verify_against_their_channels():
    # supporting check used by several criteria: the explicit families are
    # genuine codes for their channels
    for n in range(2, 13):
        cls = largest_block_class(ministring_code(TRIBONACCI_SET, n),
                                  TRIBONACCI_SET, "011")
        assert verify_code(cls, TRIANGLE_F).passed
    for n in range(2, 13):
        assert verify_code(FAMILIES["oddrun"](n), TRIANGLE_G).passed
