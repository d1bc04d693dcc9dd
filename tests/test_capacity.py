import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zecap.model import (
    Digraph,
    FIBONACCI_DIGRAPH,
    SpecError,
    count_walks,
    parse_digraph_spec,
    pair_shift_digraph,
)
from zecap.capacity import (
    CapacityValue,
    CharacteristicEquation,
    NAMED_EQUATIONS,
    NoRootError,
    beta_sequence,
    empirical_rates,
    perron_growth,
    solve_characteristic,
)
from zecap.construct import (
    FAMILY_COUNTS,
    _FAMILY_SETS,
)

GOLDEN_RATE = math.log2((1 + math.sqrt(5)) / 2)


class TestSolveCharacteristic:
    def test_golden_ratio(self):
        v = solve_characteristic(CharacteristicEquation((1, 2)))
        assert abs(v.rate_bits - GOLDEN_RATE) < 1e-10
        assert abs(v.rate_bits - 0.69424) < 1e-4

    def test_half_rate(self):
        v = solve_characteristic(CharacteristicEquation((2, 2)))
        assert abs(v.rate_bits - 0.5) < 1e-10
        assert abs(v.root - 1 / math.sqrt(2)) < 1e-10

    def test_tribonacci(self):
        v = solve_characteristic(CharacteristicEquation((1, 2, 3)))
        assert abs(v.rate_bits - 0.8791) < 1e-4

    def test_odd_run_tail(self):
        v = solve_characteristic(CharacteristicEquation((1,), tail=(2, 2)))
        assert abs(v.rate_bits - 0.8494) < 1e-3

    def test_no_isolated_ones_tail(self):
        v = solve_characteristic(CharacteristicEquation((1,), tail=(3, 1)))
        assert abs(v.rate_bits - 0.81) < 5e-3

    def test_residual_and_bracket(self):
        eq = CharacteristicEquation((1, 2, 3))
        v = solve_characteristic(eq, tol=1e-12)
        assert v.residual <= 1e-12
        assert eq.value(v.root - 1e-11) < 1.0 < eq.value(v.root + 1e-11)

    def test_single_length_has_no_root(self):
        with pytest.raises(NoRootError):
            solve_characteristic(CharacteristicEquation((3,)))

    def test_bad_tol(self):
        with pytest.raises(SpecError):
            solve_characteristic(CharacteristicEquation((1, 2)), tol=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_tol(self, tol):
        # nan never meets the test and inf meets it at the first midpoint
        with pytest.raises(SpecError, match="finite positive"):
            solve_characteristic(CharacteristicEquation((1, 2)), tol=tol)

    def test_tail_closed_form_matches_truncation(self):
        eq = CharacteristicEquation((1,), tail=(2, 2))
        x = 0.5
        truncated = x + sum(x**l for l in range(2, 300, 2))
        assert abs(eq.value(x) - truncated) < 1e-15


class TestBetaSequence:
    def test_k0_is_golden(self):
        seq = beta_sequence(0)
        assert abs(seq[0].rate_bits - 0.69424) < 1e-4

    def test_strictly_increasing(self):
        rates = [v.rate_bits for v in beta_sequence(10)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_bounded_by_full_tail_rate(self):
        beta = solve_characteristic(NAMED_EQUATIONS["oddrun"]).rate_bits
        for v in beta_sequence(10):
            assert v.rate_bits < beta

    def test_k20_close_to_limit(self):
        beta = solve_characteristic(NAMED_EQUATIONS["oddrun"]).rate_bits
        assert abs(beta_sequence(20)[-1].rate_bits - beta) <= 1e-6


def has_cycle_dfs(k, arcs):
    """Independent oracle: a three-color depth-first search finds a back
    arc (a loop counts) iff the digraph has a cycle."""
    succ = {v: [b for a, b in arcs if a == v] for v in range(k)}
    state = [0] * k  # 0 unseen, 1 on the stack, 2 done

    def visit(v):
        state[v] = 1
        for w in succ[v]:
            if state[w] == 1 or (state[w] == 0 and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(k))


class TestPerronGrowth:
    def test_full_shift(self):
        full = parse_digraph_spec("0>0;0>1;1>0;1>1", 2)
        assert abs(perron_growth(full).rate_bits - 1.0) < 1e-9

    def test_fibonacci(self):
        v = perron_growth(FIBONACCI_DIGRAPH)
        assert abs(v.rate_bits - 0.69424) < 1e-4
        golden = solve_characteristic(CharacteristicEquation((1, 2)))
        assert abs(v.rate_bits - golden.rate_bits) <= 1e-6

    def test_pair_shift(self):
        assert abs(perron_growth(pair_shift_digraph()).rate_bits - 1.0) < 1e-9

    def test_acyclic_is_zero(self):
        assert perron_growth(parse_digraph_spec("0>1", 2)).rate_bits == 0.0

    @pytest.mark.parametrize("spec", ["0>1;1>0;1>2;2>3;3>2",
                                      "0>1;1>0;2>3;3>2;0>2"])
    def test_chained_cycles_grow_polynomially(self, spec):
        # walk counts 13, 23, 43, 83 at n = 10, 20, 40, 80: rate 0
        v = perron_growth(parse_digraph_spec(spec, 4))
        assert abs(v.rate_bits) < 1e-12
        assert v.residual < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda k: st.tuples(
        st.just(k), st.sets(st.tuples(st.integers(0, k - 1),
                                      st.integers(0, k - 1))))))
    def test_matches_dfs_and_spectral_radius(self, k_arcs):
        k, arcs = k_arcs
        P = Digraph(k, frozenset(arcs))
        v = perron_growth(P)
        if has_cycle_dfs(k, arcs):
            radius = max(abs(np.linalg.eigvals(P.arc_matrix().astype(float))))
            assert abs(v.rate_bits - math.log2(radius)) < 1e-9
        else:
            assert (v.rate_bits, v.root, v.residual) == (0.0, 1.0, 0.0)

    def test_long_chain_is_exactly_zero(self):
        chain = Digraph(300, frozenset((i, i + 1) for i in range(299)))
        v = perron_growth(chain)
        assert (v.rate_bits, v.residual, v.root) == (0.0, 0.0, 1.0)

    def test_matches_walk_count_growth(self):
        v = perron_growth(FIBONACCI_DIGRAPH)
        lo, hi = count_walks(FIBONACCI_DIGRAPH, 40), \
            count_walks(FIBONACCI_DIGRAPH, 41)
        assert abs(v.rate_bits - math.log2(hi / lo)) < 1e-9


class TestEquationsMatchFamilies:
    @pytest.mark.parametrize("family", sorted(NAMED_EQUATIONS))
    @pytest.mark.parametrize("x", [0.3, 0.5, 0.55])
    def test_value_is_ministring_length_sum(self, family, x):
        S, _ = _FAMILY_SETS[family]
        total = sum(x**l for l in S.lengths_up_to(200))
        assert abs(NAMED_EQUATIONS[family].value(x) - total) < 1e-9


class TestEmpiricalRates:
    def test_tribonacci_prefix(self):
        naive, ratio = empirical_rates([1, 2, 4, 7])
        assert ratio == pytest.approx(
            [1.0, 1.0, math.log2(7 / 4)])
        assert naive[0] == 0.0

    def test_constant_counts(self):
        naive, ratio = empirical_rates([1, 1, 1, 1])
        assert all(r == 0.0 for r in naive + ratio)

    def test_fibonacci_convergence(self):
        # the 5-digit print 0.69424 is itself 1.9e-6 off the true constant,
        # so the tight comparison is against log2 of the golden ratio
        counts = [FAMILY_COUNTS["fibonacci"](n) for n in range(1, 41)]
        _, ratio = empirical_rates(counts)
        assert abs(ratio[-1] - GOLDEN_RATE) < 1e-6

    def test_zero_count_rejected(self):
        with pytest.raises(SpecError):
            empirical_rates([1, 0, 2])

    def test_too_short(self):
        with pytest.raises(SpecError):
            empirical_rates([5])


class TestAnalyticVsEmpirical:
    @pytest.mark.parametrize("family", sorted(NAMED_EQUATIONS))
    def test_ratio_rate_matches_root_at_n64(self, family):
        counts = [FAMILY_COUNTS[family](n) for n in range(1, 66)]
        _, ratio = empirical_rates(counts)
        analytic = solve_characteristic(NAMED_EQUATIONS[family]).rate_bits
        assert abs(ratio[63] - analytic) <= 1e-6
