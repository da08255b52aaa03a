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
from neumann_widths import cvd
from neumann_widths.cvd import (ENCODING_CAPS, ENTRY_POLICY, _best_approximations,
                                _det_exact, _det_full_pivot, _random_nodes)
from neumann_widths.kernels import TWO_PI, eval_neumann_closed

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

    @staticmethod
    def assert_negated(plus, minus):
        assert minus.value.hex() == (-plus.value).hex()
        assert (minus.error_estimate, minus.used_extended, minus.epsilon) == (
            plus.error_estimate, plus.used_extended, -1)

    def test_epsilon_is_a_sign_on_the_result(self):
        # the order is odd: eps = -1 negates the eps = +1 value bit for bit,
        # with the same estimate and fallback, on either entry path
        rng = random.Random(720)
        fallbacks = 0
        for k in range(160):
            params = NeumannParams(rng.uniform(0.05, 0.99),
                                   rng.choice((0.0, 0.5, 1.0, 1.7, 3.2)))
            nodes = _random_nodes(rng, (1, 3, 5, 7)[k % 4])
            kernels = [neumann_evaluator(params)]
            if k % 8 == 0:
                kernels.append(lambda t: eval_neumann(params, t, ENTRY_POLICY))
            for kernel in kernels:
                plus = det_D(kernel, nodes, epsilon=1)
                self.assert_negated(plus, det_D(kernel, nodes, epsilon=-1))
                fallbacks += plus.used_extended
        assert fallbacks > 0

    def test_epsilon_sign_at_the_exact_fallback(self):
        params = NeumannParams(0.7, 1.0)
        nodes = NodeVectors.from_pi_rationals(((0, 1), (1, 1), (7, 4)),
                                              ((0, 1), (1, 4), (7, 4)))
        scalar, pair = scalar_kernels(params)
        for kernel, pair in ((neumann_evaluator(params), None), (scalar, pair),
                             (math.cos, None)):
            plus = det_D(kernel, nodes, epsilon=1, kernel_pair=pair)
            assert plus.used_extended
            self.assert_negated(plus, det_D(kernel, nodes, epsilon=-1, kernel_pair=pair))

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
    """det_D over the kernel object, whose elimination takes closed-form
    entries, agrees with det_D over plain per-entry callables of the same
    kernel, with its pair evaluator, which take the series: within the kernel
    object's estimate, with the same sign wherever both are significant, and
    bit for bit wherever both take the exact fallback, which reads the same
    series words.  The kernel object's result does not depend on
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
                series = det_D(scalar, nodes, epsilon=epsilon, kernel_pair=pair)
                res = det_D(kernel, nodes, epsilon=epsilon, kernel_pair=pair)
                assert det_D(kernel, nodes, epsilon=epsilon) == res
                assert abs(res.value - series.value) <= res.error_estimate
                if res.significant and series.significant:
                    assert (res.value > 0) == (series.value > 0)
                if res.used_extended and series.used_extended:
                    assert res.value == series.value
                fallbacks += res.used_extended
        if size == 7:
            assert fallbacks > 0  # the exact fallback ran on block words too

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_near_singular_fallback(self, epsilon):
        params = NeumannParams(0.7, 1.0)
        scalar, pair = scalar_kernels(params)
        nodes = NodeVectors.from_pi_rationals(((0, 1), (1, 1), (7, 4)),
                                              ((0, 1), (1, 4), (7, 4)))
        res = det_D(neumann_evaluator(params), nodes, epsilon=epsilon)
        series = det_D(scalar, nodes, epsilon=epsilon, kernel_pair=pair)
        assert res.used_extended and series.used_extended
        assert res.value == series.value

    def test_search_finds_the_same_witnesses(self):
        params = NeumannParams(0.21, 1.0)
        scalar, _ = scalar_kernels(params)
        block = cvd_witness(neumann_evaluator(params), 1, search_budget=400, rng_seed=5)
        plain = cvd_witness(scalar, 1, search_budget=400, rng_seed=5)
        assert [nodes for nodes, _ in block] == [nodes for nodes, _ in plain]


# The node file of the golden cvd cases: at q = 0.7, beta = 1 its determinant
# takes the exact fallback.
NEAR_SINGULAR = NodeVectors.from_json_dict(json.loads(
    (Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))["vectors"])


def kernel_matrix(q, beta, nodes, epsilon=1):
    """eps times the entries det_D eliminates, the closed form's values."""
    values, _ = eval_neumann_closed(NeumannParams(q, beta),
                                    np.subtract.outer(nodes.x, nodes.y))
    return (epsilon * values).tolist()


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
        (neg, _), (pos, _) = cvd_witness(kernel, 1, search_budget=10,
                                         seeds=builtin_witnesses())
        assert (neg, pos) == builtin_witnesses()
        assert det_D(kernel, neg).value < 0.0 < det_D(kernel, pos).value

    def test_random_search_rediscovers_sign_change(self):
        kernel, _ = kernels_for(1.0)
        (neg, _), (pos, _) = cvd_witness(kernel, 1, search_budget=100_000, rng_seed=0)
        r_neg, r_pos = det_D(kernel, neg), det_D(kernel, pos)
        assert r_neg.value < 0.0 < r_pos.value
        assert r_neg.significant and r_pos.significant

    @pytest.mark.parametrize("q, beta, l, seed", [(0.21, 0.0, 1, 3), (0.5, 0.5, 1, 0),
                                                  (0.9, 1.0, 2, 4), (0.21, 0.0, 2, 1)])
    def test_results_are_det_d_at_the_witnesses(self, q, beta, l, seed):
        # each returned result is det_D at its nodes, eps = +1, bit for bit
        kernel = neumann_evaluator(NeumannParams(q, beta))
        (neg, r_neg), (pos, r_pos) = cvd_witness(kernel, l, search_budget=5_000,
                                                 rng_seed=seed)
        assert neg.size == pos.size == 2 * l + 1
        assert r_neg.value < 0.0 < r_pos.value
        for nodes, res in ((neg, r_neg), (pos, r_pos)):
            assert res == det_D(kernel, nodes, epsilon=1)
            assert res.significant

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

    def test_seed_of_wrong_size_second_takes_no_determinant(self, monkeypatch):
        taken = count_determinants(monkeypatch)
        kernel, _ = kernels_for(0.0)
        seeds = (builtin_witnesses()[0], _random_nodes(random.Random(0), 5))
        with pytest.raises(DomainError, match="seed size 5"):
            cvd_witness(kernel, 1, search_budget=10, seeds=seeds)
        assert taken == []

    @pytest.mark.parametrize("spec, l, budget, seed", [
        (("heat", [1.0, 0.0]), 1, 400, 0), (("neumann", [0.01, 0.0]), 3, 50, 0)],
        ids=["heat", "neumann"])
    def test_budget_is_one_determinant_per_sample(self, monkeypatch, spec, l, budget, seed):
        # a search that finds nothing takes exactly the budget's determinants,
        # all of them at the sampled nodes, and reports their range
        taken = count_determinants(monkeypatch)
        kernel = frozen_kernel(spec)
        with pytest.raises(NotFound) as exc:
            cvd_witness(kernel, l, search_budget=budget, rng_seed=seed)
        rng = random.Random(seed)
        values = [det_D(kernel, _random_nodes(rng, 2 * l + 1)).value for _ in range(budget)]
        assert [res.value for res in taken] == values
        assert f"observed range [{min(values):.3e}, {max(values):.3e}])" in str(exc.value)


def count_determinants(monkeypatch) -> list:
    """Make the witness search record every ``det_D`` result it takes."""
    taken = []

    def recording(*args, **kwargs):
        taken.append(det_D(*args, **kwargs))
        return taken[-1]

    monkeypatch.setattr(cvd, "det_D", recording)
    return taken


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_random_nodes_always_valid(seed):
    nodes = _random_nodes(random.Random(seed), 5)
    assert len(nodes.x) == 5
    assert all(a < b for a, b in zip(nodes.x, nodes.x[1:]))
    assert all(0.0 <= v < 2 * math.pi for v in nodes.x + nodes.y)


def uniform_reference_nodes(rng: random.Random, size: int) -> tuple[tuple, tuple]:
    """The witness search's draw written with ``rng.uniform``: sorted uniform
    nodes in [0, 2pi), redrawn until every gap exceeds 1e-9."""
    def draw():
        while True:
            v = sorted(rng.uniform(0.0, TWO_PI) for _ in range(size))
            if all(b - a > 1e-9 for a, b in zip(v, v[1:])):
                return tuple(v)

    return draw(), draw()


class ScriptedRandom(random.Random):
    """A Random whose ``random()`` (and so ``uniform``) returns ``values``
    in turn: repeated values force the draw's redraw."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestRandomNodePairs:
    SIZES = range(1, 16, 2)

    def test_floats_and_stream_are_the_uniform_draws(self):
        # the nodes are the reference's floats, bit for bit, the stream is
        # left where the reference leaves it, and the carried pairs rebuild
        # the reference's floats
        for seed in range(300):
            for size in self.SIZES:
                rng, ref_rng = random.Random(seed), random.Random(seed)
                nodes = _random_nodes(rng, size)
                ref = uniform_reference_nodes(ref_rng, size)
                assert (nodes.x, nodes.y) == ref
                assert rng.getstate() == ref_rng.getstate()
                assert nodes.pi_rationals is not None
                for pairs, v in zip(nodes.pi_rationals, ref):
                    assert tuple(num * math.pi / den for num, den in pairs) == v

    def test_redraw_keeps_to_the_uniform_draws(self):
        # the first x draw repeats a value, so both take the next three;
        # every value is some k / 2^53, as random() gives
        values = [0.5, 0.25, 0.5, 0.75, 0.125, 0.875, 0.375, 0.625, 0.0625]
        nodes = _random_nodes(ScriptedRandom(values), 3)
        assert (nodes.x, nodes.y) == uniform_reference_nodes(ScriptedRandom(values), 3)
        assert nodes.to_json_dict() == {
            "x": [[int(r * 2**53), 2**52] for r in (0.125, 0.75, 0.875)],
            "y": [[int(r * 2**53), 2**52] for r in (0.0625, 0.375, 0.625)]}

    def test_printed_pairs_are_the_nodes_over_2_52(self):
        for seed in range(300):
            for size in self.SIZES:
                nodes = _random_nodes(random.Random(seed), size)
                doc = nodes.to_json_dict()
                for key, v in (("x", nodes.x), ("y", nodes.y)):
                    assert all(den == 2**52 and 0 <= num < 2**53 for num, den in doc[key])
                    assert [num * math.pi / den for num, den in doc[key]] == list(v)
                back = NodeVectors.from_json_dict(doc)
                assert (back.x, back.y) == (nodes.x, nodes.y)


# Seeded witness searches with their exact outcomes: the nodes
# (``to_json_dict``), each DetResult with its floats as ``float.hex``, or the
# NotFound message.  Every case is decided by the seeds and random samples
# alone; any later form of the search must return these bit for bit.  Besides
# the Neumann kernel the cases use two plain callables: a periodic heat
# kernel, whose determinants of odd order are all nonnegative (so the search
# spends its whole budget) until a multiple of cos(2t) is added, and a
# rank-two cosine pair plus a tiny higher harmonic, whose sample determinants
# are mostly insignificant.
FROZEN_SEARCHES = json.loads(
    (Path(__file__).parent / "cvd_witness_frozen.json").read_text(encoding="utf-8"))


def frozen_kernel(spec):
    kind, args = spec
    if kind == "neumann":
        return neumann_evaluator(NeumannParams(*args))
    if kind == "heat":  # sum_k exp(-s k^2) cos(kt) over |k| <= 11, plus a cos(2t)
        s, a = args
        return lambda t: 1.0 + 2.0 * sum(math.exp(-s * k * k) * math.cos(k * t)
                                         for k in range(1, 12)) + a * math.cos(2.0 * t)
    e, = args  # cos t + e cos 2t + e^2
    return lambda t: math.cos(t) + e * math.cos(2.0 * t) + e * e


def frozen_outcome(case) -> dict:
    """What ``cvd_witness`` returns on ``case``, in the table's form."""
    seeds = builtin_witnesses() if case["builtin_seeds"] else ()
    try:
        found = cvd_witness(frozen_kernel(case["kernel"]), case["l"], case["search_budget"],
                            case["rng_seed"], seeds)
    except NotFound as exc:
        return {"not_found": str(exc)}
    return {label: {"nodes": nodes.to_json_dict(), "value": res.value.hex(),
                    "error_estimate": res.error_estimate.hex(), "epsilon": res.epsilon,
                    "used_extended": res.used_extended}
            for label, (nodes, res) in zip(("negative", "positive"), found)}


@pytest.mark.parametrize("case", FROZEN_SEARCHES, ids=[
    f"{i:02d}-{c['kernel'][0]}" for i, c in enumerate(FROZEN_SEARCHES)])
def test_frozen_witness_search(case):
    expected = {key: case[key] for key in ("negative", "positive", "not_found") if key in case}
    assert frozen_outcome(case) == expected
