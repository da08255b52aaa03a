"""Determinant criterion: witness values, antisymmetry, error estimates, and
the sign-change search."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_widths import (DomainError, NeumannParams, NodeVectors, NotFound,
                            builtin_witnesses, cvd_witness, det_D, eval_neumann,
                            neumann_evaluator, neumann_pair_evaluator)
from neumann_widths.cvd import (ENCODING_CAPS, ENTRY_POLICY, _best_approximations,
                                _det_exact, _det_full_pivot, _random_nodes)

# determinants at the built-in q = 0.21 witnesses, frozen from a 40-digit
# direct-summation evaluation
D_NEG_BETA0 = -2.7490707450445169e-10
D_POS_BETA0 = 1.09109869190109031e-6
D_NEG_BETA1 = -5.1709070375633059e-10
D_POS_BETA1 = 3.99375164827956107e-6


def fraction_det3(m):
    """Exact 3x3 determinant by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def kernels_for(beta):
    params = NeumannParams(0.21, beta)
    return neumann_evaluator(params), neumann_pair_evaluator(params)


class TestNodeVectors:
    def test_validation(self):
        with pytest.raises(DomainError):
            NodeVectors(x=(0.0, 1.0), y=(0.0, 1.0))  # even length
        with pytest.raises(DomainError):
            NodeVectors(x=(1.0, 0.5, 2.0), y=(0.1, 0.2, 0.3))  # not increasing
        with pytest.raises(DomainError):
            NodeVectors(x=(0.1, 0.2, 7.0), y=(0.1, 0.2, 0.3))  # out of range

    def test_builtin_json_roundtrip_is_exact(self):
        neg, pos = builtin_witnesses()
        for nodes in (neg, pos):
            back = NodeVectors.from_json_dict(nodes.to_json_dict())
            assert back.x == nodes.x and back.y == nodes.y

    def test_float_json_roundtrip_within_ulp(self):
        nodes = NodeVectors(x=(0.1, 1.7, 2.9), y=(0.4, 3.3, 5.1))
        back = NodeVectors.from_json_dict(nodes.to_json_dict())
        for a, b in zip(nodes.x + nodes.y, back.x + back.y):
            assert b == pytest.approx(a, rel=1e-15)

    def test_limit_denominator_is_fractions(self):
        # uniform floats, pi/3600 lattice nodes (the benchmark's), small
        # p/q multiples of pi, and halves, where the cap-1 choice is a tie
        rng = random.Random(31)
        values = ([rng.uniform(0.0, 2.0 * math.pi) for _ in range(400)]
                  + [k * math.pi / 3600 for k in rng.sample(range(7200), 200)]
                  + [p * math.pi / q for q in range(1, 25) for p in range(2 * q)])
        ratios = [(v / math.pi).as_integer_ratio() for v in values]
        ratios += [(k, 2) for k in range(-5, 6, 2)] + [(-355, 113 * 2**40)]
        for num, den in ratios:
            expected = [Fraction(num, den).limit_denominator(cap) for cap in ENCODING_CAPS]
            assert list(_best_approximations(num, den, ENCODING_CAPS)) == [
                (g.numerator, g.denominator) for g in expected]


class TestDeterminants:
    def test_one_by_one(self):
        kernel, _ = kernels_for(0.0)
        nodes = NodeVectors(x=(1.0,), y=(2.0,))
        res = det_D(kernel, nodes, epsilon=1)
        assert res.value == pytest.approx(kernel(-1.0), abs=1e-15)

    @pytest.mark.parametrize("beta,expected_neg,expected_pos", [
        (0.0, D_NEG_BETA0, D_POS_BETA0),
        (1.0, D_NEG_BETA1, D_POS_BETA1),
    ])
    def test_witness_values(self, beta, expected_neg, expected_pos):
        kernel, pair = kernels_for(beta)
        neg, pos = builtin_witnesses()
        r_neg = det_D(kernel, neg, kernel_pair=pair, entry_tol=1e-16)
        r_pos = det_D(kernel, pos, kernel_pair=pair, entry_tol=1e-16)
        assert r_neg.value == pytest.approx(expected_neg, rel=1e-5)
        assert r_pos.value == pytest.approx(expected_pos, rel=1e-9)
        assert r_neg.significant and r_pos.significant

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_error_estimate_below_ten_percent(self, beta):
        kernel, pair = kernels_for(beta)
        for nodes in builtin_witnesses():
            res = det_D(kernel, nodes, kernel_pair=pair, entry_tol=1e-16)
            assert res.error_estimate < 0.1 * abs(res.value)

    def test_epsilon_antisymmetry(self):
        kernel, _ = kernels_for(0.0)
        neg, _ = builtin_witnesses()
        plus = det_D(kernel, neg, epsilon=1)
        minus = det_D(kernel, neg, epsilon=-1)
        scale = 6 * 0.25**3
        assert abs(plus.value + minus.value) <= 1e-16 * scale

    def test_row_swap_flips_sign(self):
        kernel, _ = kernels_for(0.0)
        neg, _ = builtin_witnesses()
        m = [[kernel(xi - yj) for yj in neg.y] for xi in neg.x]
        swapped = [m[1], m[0], m[2]]
        assert _det_full_pivot(swapped)[0] == -_det_full_pivot(m)[0]

    def test_exact_elimination_on_integers(self):
        m = [[(v, 0.0) for v in row]
             for row in ((2.0, 1.0, 1.0), (1.0, 3.0, 2.0), (1.0, 0.0, 0.0))]
        assert _det_exact(m) == -1.0  # cofactor expansion by hand

    @pytest.mark.parametrize("rows", [
        ((0, 1, 2), (3, 4, 5), (6, 7, 9)),  # zero pivot at step 0: row swap
        ((1, 2, 3), (2, 4, 5), (3, 7, 7)),  # zero pivot at step 1: row swap
        ((0, 1, 2), (0, 4, 5), (0, 7, 9)),  # zero column at step 0
        ((1, 2, 3), (2, 4, 5), (3, 6, 7)),  # zero column at step 1
    ])
    def test_exact_elimination_swaps_and_zero_columns(self, rows):
        # entries v * (3/8 + 2^-60) as exact (hi, lo) words keep every zero
        # pivot of the integer pattern, over a common power-of-two denominator
        m = [[(v * 0.375, v * 2.0**-60) for v in row] for row in rows]
        exact = fraction_det3([[Fraction(hi) + Fraction(lo) for hi, lo in row]
                               for row in m])
        assert _det_exact(m) == float(exact)

    def test_exact_elimination_rounds_near_rank_one_once(self):
        # hi = u_i v_j is rank one up to rounding, so the determinant lives in
        # the rounding errors and the lo words; it must come out as the
        # correctly rounded exact value of hi + lo every time
        rng = random.Random(20240)
        for _ in range(2000):
            u = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            m = [[(ui * vj, rng.uniform(-1.0, 1.0) * 2.0 ** -rng.randint(50, 90))
                  for vj in v] for ui in u]
            exact = fraction_det3([[Fraction(hi) + Fraction(lo) for hi, lo in row]
                                   for row in m])
            assert _det_exact(m) == float(exact)

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_neumann_fallback_is_exact_in_pair_entries(self, epsilon):
        params = NeumannParams(0.7, 1.0)
        pair = neumann_pair_evaluator(params)
        nodes = NodeVectors.from_pi_rationals(((0, 1), (1, 1), (7, 4)),
                                              ((0, 1), (1, 4), (7, 4)))
        res = det_D(neumann_evaluator(params), nodes, epsilon=epsilon, kernel_pair=pair)
        assert res.used_extended
        exact = fraction_det3([[epsilon * sum(map(Fraction, pair(xi - yj)))
                                for yj in nodes.y] for xi in nodes.x])
        assert res.value == float(exact)

    def test_near_singular_triggers_extended(self):
        kernel = math.cos  # rank-2 kernel: every 3x3 determinant vanishes
        nodes = NodeVectors(x=(0.3, 1.1, 2.0), y=(0.5, 1.9, 4.0))
        res = det_D(kernel, nodes)
        assert res.used_extended
        assert not res.significant
        assert abs(res.value) <= 1e-13


def scalar_kernels(params):
    """The same kernel as plain callables: det_D evaluates them per entry."""
    return (lambda t: eval_neumann(params, t, ENTRY_POLICY),
            neumann_pair_evaluator(params))


class TestKernelObjectMatchesScalar:
    """det_D over the kernel object's block pass equals det_D over plain
    per-entry callables of the same kernel, with its pair evaluator, in every
    DetResult field; the kernel object's result does not depend on
    ``kernel_pair``."""

    @pytest.mark.parametrize("epsilon", [1, -1])
    @pytest.mark.parametrize("size", [1, 3, 5, 7])
    def test_det_fields(self, size, epsilon):
        rng = random.Random(100 + size)
        fallbacks = 0
        for q, beta in ((0.05, 0.0), (0.21, 1.0), (0.5, 0.5), (0.8, 1.7), (0.95, 3.2)):
            params = NeumannParams(q, beta)
            kernel = neumann_evaluator(params)
            scalar, pair = scalar_kernels(params)
            for _ in range(4):
                nodes = _random_nodes(rng, size)
                expected = det_D(scalar, nodes, epsilon=epsilon, kernel_pair=pair)
                for with_pair in (pair, None):
                    assert det_D(kernel, nodes, epsilon=epsilon,
                                 kernel_pair=with_pair) == expected
                fallbacks += expected.used_extended
        if size == 7:
            assert fallbacks > 0  # the exact fallback ran on block words too

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_near_singular_fallback(self, epsilon):
        params = NeumannParams(0.7, 1.0)
        scalar, pair = scalar_kernels(params)
        nodes = NodeVectors.from_pi_rationals(((0, 1), (1, 1), (7, 4)),
                                              ((0, 1), (1, 4), (7, 4)))
        res = det_D(neumann_evaluator(params), nodes, epsilon=epsilon)
        assert res.used_extended
        assert res == det_D(scalar, nodes, epsilon=epsilon, kernel_pair=pair)

    def test_witness_search(self):
        params = NeumannParams(0.21, 1.0)
        scalar, _ = scalar_kernels(params)
        assert (cvd_witness(neumann_evaluator(params), 1, search_budget=400, rng_seed=5)
                == cvd_witness(scalar, 1, search_budget=400, rng_seed=5))


# The node file of the golden cvd cases: at q = 0.7, beta = 1 its determinant
# takes the exact fallback.
NEAR_SINGULAR = NodeVectors.from_json_dict(json.loads(
    (Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))["vectors"])


def kernel_matrix(q, beta, nodes, epsilon=1):
    """The entries det_D forms: eps * (hi + lo) of the block pass."""
    kernel = neumann_evaluator(NeumannParams(q, beta))
    hi, lo = kernel.pairs(np.subtract.outer(nodes.x, nodes.y))
    return (epsilon * (hi + lo)).tolist()


def minors_cofactor_norm(a):
    """sum_{i,j} |cofactor_ij| from m^2 separate eliminations, one per minor."""
    m = len(a)
    if m == 1:
        return 1.0
    return sum(abs(_det_full_pivot([[a[r][c] for c in range(m) if c != j]
                                     for r in range(m) if r != i])[0])
               for i in range(m) for j in range(m))


class TestCofactorNorm:
    """The cofactor sum from the one elimination's L and U agrees with the
    O(m^5) minors route, including at and near rank m - 1."""

    @staticmethod
    def assert_matches_minors(a):
        assert _det_full_pivot(a)[1] == pytest.approx(minors_cofactor_norm(a),
                                                      rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_witnesses(self, beta):
        for nodes in builtin_witnesses():
            self.assert_matches_minors(kernel_matrix(0.21, beta, nodes))

    def test_random_matrices(self):
        # 200 matrices of order 3/5/7: uniform entries, and Neumann kernel
        # matrices over random nodes (the benchmark's determinants)
        rng = random.Random(4242)
        for k in range(200):
            size = (3, 5, 7)[k % 3]
            if k % 2:
                nodes = _random_nodes(rng, size)
                a = kernel_matrix(rng.uniform(0.05, 0.95), rng.choice((0.0, 0.5, 1.0)), nodes)
            else:
                a = [[rng.uniform(-1.0, 1.0) for _ in range(size)] for _ in range(size)]
            self.assert_matches_minors(a)

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_near_singular_golden_nodes(self, epsilon):
        self.assert_matches_minors(kernel_matrix(0.7, 1.0, NEAR_SINGULAR, epsilon))

    def test_rank_two_integers(self):
        # the last pivot is exactly 0; the cofactors are -3, 6, -3 / 6, -12, 6 /
        # -3, 6, -3.  The computed factors themselves carry the rounding: the
        # exact cofactor sum of the computed L and U is 47.999999999999986
        det, norm = _det_full_pivot([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        assert det == 0.0
        assert abs(norm - 48.0) <= 3 * math.ulp(48.0)

    def test_rank_one_is_zero(self):
        assert _det_full_pivot([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]]) == (0.0, 0.0)


def true_det(q, beta, nodes, epsilon=1):
    """det(eps * N(x_i - y_j)) at 40 digits, with
    N(t) = Re(-e^(-i beta pi/2) log(1 - q e^(it))) at the differences x_i - y_j
    as the program rounds them."""
    with mp.workdps(40):
        rot = mp.expj(-mp.mpf(beta) * mp.pi / 2)
        return mp.det(mp.matrix([[epsilon * mp.re(-rot * mp.log(1 - mp.mpf(q) * mp.expj(xi - yj)))
                                  for yj in nodes.y] for xi in nodes.x]))


class TestDeterminantOracle:
    """Every det_D value lies within its error estimate of the 40-digit
    determinant, and a value marked significant has the true sign."""

    @staticmethod
    def assert_within_estimate(q, beta, nodes, epsilon=1):
        res = det_D(neumann_evaluator(NeumannParams(q, beta)), nodes, epsilon=epsilon)
        truth = true_det(q, beta, nodes, epsilon)
        assert abs(res.value - truth) <= res.error_estimate, (q, beta, nodes)
        if res.significant:
            assert (res.value > 0) == (truth > 0), (q, beta, nodes)
        return res

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_random_nodes(self, size, q):
        rng = random.Random(int(1000 * q) + size)
        for beta in (0.0, 0.5, 1.0):
            for _ in range(2):
                self.assert_within_estimate(q, beta, _random_nodes(rng, size))

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_near_singular_golden_nodes(self, epsilon):
        res = self.assert_within_estimate(0.7, 1.0, NEAR_SINGULAR, epsilon)
        assert res.used_extended


class TestWitnessSearch:
    def test_seeded_with_builtin_is_immediate(self):
        kernel, _ = kernels_for(0.0)
        neg, pos = cvd_witness(kernel, 1, search_budget=10, seeds=builtin_witnesses())
        assert det_D(kernel, neg).value < 0.0 < det_D(kernel, pos).value

    def test_random_search_rediscovers_sign_change(self):
        kernel, _ = kernels_for(1.0)
        neg, pos = cvd_witness(kernel, 1, search_budget=100_000, rng_seed=0)
        r_neg, r_pos = det_D(kernel, neg), det_D(kernel, pos)
        assert r_neg.value < 0.0 < r_pos.value
        assert r_neg.significant and r_pos.significant

    def test_rank_deficient_kernel_not_found(self):
        with pytest.raises(NotFound):
            cvd_witness(math.cos, 1, search_budget=300, rng_seed=1)

    def test_search_is_deterministic(self):
        kernel, _ = kernels_for(0.0)
        a = cvd_witness(kernel, 1, search_budget=5_000, rng_seed=7)
        b = cvd_witness(kernel, 1, search_budget=5_000, rng_seed=7)
        assert a == b

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one(self, budget):
        kernel, _ = kernels_for(0.0)
        with pytest.raises(DomainError):
            cvd_witness(kernel, 1, search_budget=budget)

    def test_budget_of_one_samples_once(self):
        with pytest.raises(NotFound, match=r"budget 1 \(observed range \[(\S+), \1\]\)"):
            cvd_witness(math.cos, 1, search_budget=1)

    def test_seed_size_mismatch(self):
        kernel, _ = kernels_for(0.0)
        with pytest.raises(DomainError):
            cvd_witness(kernel, 2, search_budget=10, seeds=builtin_witnesses())


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_random_nodes_always_valid(seed):
    nodes = _random_nodes(random.Random(seed), 5)
    assert len(nodes.x) == 5
    assert all(a < b for a, b in zip(nodes.x, nodes.x[1:]))
    assert all(0.0 <= v < 2 * math.pi for v in nodes.x + nodes.y)
