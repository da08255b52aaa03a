"""Kernel evaluator checks: frozen oracle values, closed-form cross-checks,
tail-control contracts, and the basic symmetry properties."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neumann_widths import (DEFAULT_POLICY, EvalPolicy, KernelSpec, NeumannParams,
                            TolUnreachable, eval_bernoulli, eval_gq, eval_hq, eval_neumann,
                            eval_neumann_pair, eval_pq, eval_pq_theta,
                            eval_psi_beta1, pq_floor)
from neumann_widths import kernels
from neumann_widths.kernels import (TWO_PI, _certified_sum, _cosine_block_sum,
                                    _neumann_coefficients, _pq_terms, _reduce_phase,
                                    _two_sum_error)
from neumann_widths.sk_spline import derivative_pq, lambda_fourier, verify_cy2n
from neumann_widths.widths import conv_square_wave, exact_width, theta_equation_lhs

# independently derived closed-form constants
LN2 = 0.6931471805599453
LI2_HALF = 0.5822405264650125           # pi^2/12 - ln(2)^2/2
ALT_LI2_HALF = 0.4484142069236462       # sum (-1)^(k+1) 0.5^k / k^2
ATANH_HALF = 0.5493061443340548
PQ_HALF_AT_0 = 2.2661860071294871       # 1/2 + 2 sum 1/(2^j + 2^-j)
N_021_ENTRY = 0.1095770743289803        # q=0.21, beta=0, t = pi/18 - 13pi/36

qs = st.floats(min_value=0.05, max_value=0.9)
betas = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
ts = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def neumann_log_oracle(q, beta, t):
    """Independent closed form: Re(e^(-i beta pi/2) * (-ln(1 - q e^(it))))."""
    return (cmath.exp(-1j * beta * math.pi / 2) * (-cmath.log(1 - q * cmath.exp(1j * t)))).real


def neumann_mp_series(q, beta, t):
    """sum_k q^k/k cos(k t - beta pi/2) at 40 digits, summed until the
    geometric tail is below 1e-45."""
    with mp.workdps(40):
        q, t, phase = mp.mpf(q), mp.mpf(t), mp.mpf(beta) * mp.pi / 2
        total, k = mp.mpf(0), 0
        while k == 0 or q ** (k + 1) / ((k + 1) * (1 - q)) >= mp.mpf("1e-45"):
            k += 1
            total += q**k / k * mp.cos(k * t - phase)
        return total


_ORACLE_RNG = random.Random(20261018)
ORACLE_POINTS = [(q, _ORACLE_RNG.uniform(-6.0, 6.0), _ORACLE_RNG.uniform(-20.0, 20.0))
                 for q in [0.05, 0.3, 0.5, 0.8, 0.9, 0.95]
                 + [_ORACLE_RNG.uniform(0.01, 0.95) for _ in range(18)]]

# eval_neumann_pair words (q, beta, t, abs_tol, hi, lo), frozen as float.hex
PAIR_PINS = [
    (0.46, -1.27, -10.844, 1e-14, "-0x1.37e5f1bd59fedp-2", "-0x1.05aeb1813b400p-56"),
    (0.843, -4.94, 0.083, 1e-16, "-0x1.f7a9ef2525c08p-3", "0x1.374adac8eb112p-52"),
    (0.873, -4.19, 1.628, 1e-14, "-0x1.0068a743e7cc7p-1", "-0x1.a03a0db53d518p-53"),
    (0.606, -4.59, -3.629, 1e-16, "-0x1.a7a5c4712051fp-2", "-0x1.3962c8b318640p-56"),
    (0.688, -0.48, 6.752, 1e-14, "0x1.856730657daa2p-5", "0x1.65c0a41bbc0a0p-55"),
    (0.169, -2.62, -11.672, 1e-16, "0x1.0702629adc4e8p-4", "-0x1.fbd769790bf30p-58"),
    (0.501, 4.24, 2.713, 1e-14, "-0x1.3993160d67528p-2", "0x1.998f5ed49c000p-55"),
    (0.755, -1.16, 7.383, 1e-16, "-0x1.93040815b018bp-1", "0x1.55c13ab7ea1acp-52"),
    (0.117, -2.09, 5.227, 1e-14, "-0x1.171a7006b1fd8p-4", "0x1.3dd966b7fd000p-56"),
    (0.709, -0.78, -12.369, 1e-16, "-0x1.07db5f68dc223p-5", "-0x1.7c95b23e0b38ep-59"),
    (0.273, -2.9, -6.564, 1e-14, "-0x1.2e873172233ffp-3", "0x1.00ce78d00df80p-55"),
    (0.789, -3.01, 11.592, 1e-16, "-0x1.b95dd859315d6p-1", "-0x1.dc06947d39a5ep-55"),
]


class TestNeumann:
    @pytest.mark.parametrize("q,beta,t", ORACLE_POINTS)
    def test_against_40_digit_series(self, q, beta, t):
        # abs_tol bounds the truncation; each term's argument k u - phase,
        # u = fmod(t, 2pi), is off by about eps k (|t| + 2pi), which the
        # coefficients q^k/k sum to eps (|t| + 2pi) q/(1-q): allow 4x that
        eps = np.finfo(float).eps
        bound = DEFAULT_POLICY.abs_tol + 4.0 * eps * (abs(t) + TWO_PI) / (1.0 - q)
        got = eval_neumann(NeumannParams(q, beta), t)
        assert abs(got - float(neumann_mp_series(q, beta, t))) <= bound

    @pytest.mark.parametrize("q,beta,t,tol,hi,lo", PAIR_PINS)
    def test_pair_words_are_pinned(self, q, beta, t, tol, hi, lo):
        got = eval_neumann_pair(NeumannParams(q, beta), t, EvalPolicy(abs_tol=tol))
        assert got == (float.fromhex(hi), float.fromhex(lo))

    def test_odd_symmetry_at_zero(self):
        assert eval_neumann(NeumannParams(0.5, 1.0), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_log_closed_form_at_zero(self):
        assert eval_neumann(NeumannParams(0.5, 0.0), 0.0) == pytest.approx(LN2, abs=2e-14)

    def test_determinant_entry_value(self):
        t = math.pi / 18 - 13 * math.pi / 36
        val = eval_neumann(NeumannParams(0.21, 0.0), t, EvalPolicy(abs_tol=1e-15))
        assert val == pytest.approx(N_021_ENTRY, abs=2e-15)

    @given(q=qs, beta=betas, t=ts)
    @settings(max_examples=40, deadline=None)
    def test_against_log_closed_form(self, q, beta, t):
        got = eval_neumann(NeumannParams(q, beta), t)
        assert got == pytest.approx(neumann_log_oracle(q, beta, t), abs=5e-13)

    def test_tol_unreachable(self):
        with pytest.raises(TolUnreachable):
            eval_neumann(NeumannParams(0.99, 0.0), 1.0, EvalPolicy(abs_tol=1e-14, max_terms=10))

    def test_pair_matches_value(self):
        params = NeumannParams(0.7, 0.3)
        hi, lo = eval_neumann_pair(params, 1.234)
        assert hi + lo == pytest.approx(eval_neumann(params, 1.234), abs=1e-16)


NEAR_ONE = NeumannParams(0.99, 0.3)
ENTRY_POLICY = EvalPolicy(abs_tol=1e-16)  # det_D's per-entry policy


def block_pairs(params, t, policy=ENTRY_POLICY):
    """The block pass det_D takes over an array of differences t."""
    coef = _neumann_coefficients(params, policy)
    return _cosine_block_sum(coef, _reduce_phase(params.beta), t)

# One call per tail-checked series; each policy runs out of terms in that
# series.  exact_width: at q = 0.5, n = 1, abs_tol = 1e-15 its theta residual
# converges after 23 terms, so the 24-term cap is hit in the peak series.
# derivative_pq: at q = 0.5, n = 16 the eigenvalue tails converge after two
# terms, so the 3-term cap is hit in gamma_5's strip-kernel tail; verify_cy2n
# at the same point hits it in the lane sum over all 32 midpoints.
TAIL_CHECKED = {
    "eval_neumann": (lambda pol: eval_neumann(NEAR_ONE, 1.0, pol), 1e-14, 3),
    "eval_neumann_block": (lambda pol: block_pairs(NEAR_ONE, np.array([1.0, 7.0]), pol),
                           1e-14, 3),
    "eval_psi_beta1": (lambda pol: eval_psi_beta1(NEAR_ONE.spec(), 1.0, pol), 1e-14, 3),
    "eval_pq": (lambda pol: eval_pq(0.99, 1.0, pol), 1e-14, 3),
    "theta_equation_lhs": (lambda pol: theta_equation_lhs(NEAR_ONE, 1, 0.6, pol), 1e-14, 3),
    "conv_square_wave": (lambda pol: conv_square_wave(NEAR_ONE, 1, 0.4, pol), 1e-14, 3),
    "exact_width": (lambda pol: exact_width(NeumannParams(0.5, 0.3), 1, pol), 1e-15, 24),
    "lambda_fourier": (lambda pol: lambda_fourier(NEAR_ONE, 4, 1, 0.1, pol), 1e-14, 3),
    "derivative_pq": (lambda pol: derivative_pq(NeumannParams(0.5, 0.3), 16, 0.05, 1, pol),
                      1e-14, 3),
    "verify_cy2n": (lambda pol: verify_cy2n(NeumannParams(0.5, 0.3), 16, 0.05, pol), 1e-14, 3),
}


@pytest.mark.parametrize("name", sorted(TAIL_CHECKED))
def test_tol_unreachable_contract(name):
    evaluate, abs_tol, max_terms = TAIL_CHECKED[name]
    with pytest.raises(TolUnreachable) as info:
        evaluate(EvalPolicy(abs_tol=abs_tol, max_terms=max_terms))
    assert info.value.terms_used == max_terms
    assert info.value.tail_bound > abs_tol


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
def test_lane_sum_is_the_scalar_sum_per_lane(q):
    # P_q's terms at 33 points as lanes: with exactly the terms the tail rule
    # needs, every lane equals the scalar sum bit for bit; one term fewer and
    # both raise with the same tail
    u = np.random.default_rng(11).uniform(-1.0, 7.0, 33)
    need = next(j for j in range(1, 10_000) if 2.0 * q ** (j + 1) / (1.0 - q) <= 1e-14)
    policy = EvalPolicy(abs_tol=1e-14, max_terms=need)
    s, c = _certified_sum(_pq_terms(q, u, 1, np.cos), 1e-14, policy, "lanes")
    assert list(zip(s.tolist(), c.tolist())) == [
        _certified_sum(_pq_terms(q, v), 1e-14, policy, "scalar") for v in u.tolist()]
    short = EvalPolicy(abs_tol=1e-14, max_terms=need - 1)
    with pytest.raises(TolUnreachable) as lanes:
        _certified_sum(_pq_terms(q, u, 1, np.cos), 1e-14, short, "lanes")
    with pytest.raises(TolUnreachable) as scalar:
        _certified_sum(_pq_terms(q, u[0]), 1e-14, short, "scalar")
    assert lanes.value.tail_bound == scalar.value.tail_bound


def two_branch_error(a, b, s):
    """The compensated update ``_two_sum_error`` replaced: Fast2Sum with the
    larger magnitude first."""
    return (a - s) + b if abs(a) >= abs(b) else (b - s) + a


# magnitudes up to 2^1000: no sum, and no intermediate of TwoSum, overflows
SUMMANDS = st.floats(min_value=-2.0**1000, max_value=2.0**1000)
TINY = 5e-324


@settings(max_examples=400, deadline=None)
@given(SUMMANDS, SUMMANDS)
@example(0.0, -0.0)
@example(-0.0, -0.0)
@example(TINY, -TINY)
@example(3 * TINY, 2.0**-1022)
@example(1.0, 1e-17)
@example(1e-17, -1.0)
@example(2.0**1000, -(2.0**947))
def test_two_sum_error_is_exact(a, b):
    s = a + b
    error = _two_sum_error(a, b, s)
    assert error == Fraction(a) + Fraction(b) - Fraction(s)
    assert error.hex() == two_branch_error(a, b, s).hex()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(SUMMANDS, SUMMANDS), min_size=1, max_size=16))
def test_two_sum_error_is_exact_over_arrays(pairs):
    a, b = (np.array(v) for v in zip(*pairs))
    s = a + b
    error = _two_sum_error(a, b, s)
    assert error.tolist() == [Fraction(x) + Fraction(y) - Fraction(x + y) for x, y in pairs]
    # the retired lane update: both branches computed, one kept per lane
    retired = np.where(np.abs(a) >= np.abs(b), (a - s) + b, (b - s) + a)
    assert [e.hex() for e in error.tolist()] == [e.hex() for e in retired.tolist()]


def scalar_pairs(params, t, policy=ENTRY_POLICY):
    return [eval_neumann_pair(params, v, policy) for v in t.ravel().tolist()]


def entry_pairs(s, c):
    return list(zip(s.ravel().tolist(), c.ravel().tolist()))


# seeded differences on both sides of [0, 2pi), and the points where fmod
# and the phase meet exact values
BLOCK_T = np.concatenate([np.random.default_rng(23).uniform(-20.0, 20.0, 33),
                          [0.0, -0.0, math.pi, TWO_PI, -TWO_PI]]).reshape(2, 19, 1)


@pytest.mark.parametrize("q", [0.05, 0.21, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.7, 3.2])
def test_block_pass_is_the_scalar_pair_per_entry(q, beta):
    params = NeumannParams(q, beta)
    s, c = block_pairs(params, BLOCK_T)
    assert s.shape == c.shape == BLOCK_T.shape
    assert entry_pairs(s, c) == scalar_pairs(params, BLOCK_T)


@pytest.mark.parametrize("rows", [1, 7, 64, 650])
def test_block_chunks_continue_bit_for_bit(monkeypatch, rows):
    # K = 650 at q = 0.95: chunk boundaries fall inside K (and at its end
    # for 650), and each chunk must carry on from the last one's sums
    params = NeumannParams(0.95, 0.5)
    assert len(_neumann_coefficients(params, ENTRY_POLICY)) == 650
    monkeypatch.setattr(kernels, "_BLOCK_ROWS", rows)
    assert entry_pairs(*block_pairs(params, BLOCK_T)) == scalar_pairs(params, BLOCK_T)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
def test_block_pass_stops_where_the_scalar_sum_stops(q):
    # with K terms allowed both succeed; with K - 1 both raise the same error
    params = NeumannParams(q, 0.3)
    need = len(_neumann_coefficients(params, ENTRY_POLICY))
    exact = EvalPolicy(abs_tol=1e-16, max_terms=need)
    assert entry_pairs(*block_pairs(params, BLOCK_T, exact)) == scalar_pairs(
        params, BLOCK_T, exact)
    short = EvalPolicy(abs_tol=1e-16, max_terms=need - 1)
    with pytest.raises(TolUnreachable) as block:
        block_pairs(params, BLOCK_T, short)
    with pytest.raises(TolUnreachable) as scalar:
        eval_neumann_pair(params, 1.0, short)
    assert (str(block.value), block.value.terms_used, block.value.tail_bound) == (
        str(scalar.value), scalar.value.terms_used, scalar.value.tail_bound)


class TestIntegratedKernel:
    def test_dilogarithm_value(self):
        spec = NeumannParams(0.5, -1.0).spec()
        assert eval_psi_beta1(spec, 0.0) == pytest.approx(LI2_HALF, abs=2e-14)

    def test_alternating_value(self):
        spec = NeumannParams(0.5, 1.0).spec()
        assert eval_psi_beta1(spec, math.pi) == pytest.approx(ALT_LI2_HALF, abs=2e-14)

    @given(q=qs, beta=betas, t=ts)
    @settings(max_examples=30, deadline=None)
    def test_phase_four_periodicity(self, q, beta, t):
        a = eval_psi_beta1(NeumannParams(q, beta).spec(), t)
        b = eval_psi_beta1(NeumannParams(q, beta + 4.0).spec(), t)
        assert a == pytest.approx(b, abs=5e-14)

    def test_general_spec_tail_contract(self):
        # psi(k) = 2^-k with its exact geometric tail
        spec = KernelSpec(psi=lambda k: 0.5**k, beta=0.3,
                          tail_bound=lambda k: 0.5**k)
        tight = eval_psi_beta1(spec, 0.7, EvalPolicy(abs_tol=1e-15))
        loose = eval_psi_beta1(spec, 0.7, EvalPolicy(abs_tol=1e-6))
        assert abs(tight - loose) <= 1e-6 + 1e-15


class TestBernoulli:
    @pytest.mark.parametrize("t,expected", [(0.0, 0.0), (math.pi, 0.0),
                                            (math.pi / 2, math.pi / 4)])
    def test_closed_values(self, t, expected):
        assert eval_bernoulli(t) == pytest.approx(expected, abs=1e-15)

    def test_against_partial_sums(self):
        # slow oracle: one million sine terms at seeded random points
        rng = np.random.default_rng(20240817)
        pts = rng.uniform(0.5, 2 * math.pi - 0.5, size=100)
        k = np.arange(1, 10**6 + 1)
        for t in pts:
            partial = float(np.sum(np.sin(k * t) / k))
            assert eval_bernoulli(t) == pytest.approx(partial, abs=1e-5)

    @given(t=st.floats(min_value=0.05, max_value=6.2))
    @settings(max_examples=50, deadline=None)
    def test_two_pi_periodic(self, t):
        # away from the jump at t = 0 (mod 2pi), where the sawtooth is
        # genuinely discontinuous
        assert eval_bernoulli(t) == pytest.approx(eval_bernoulli(t + 2 * math.pi), abs=5e-15)


class TestPq:
    def test_value_at_zero(self):
        assert eval_pq(0.5, 0.0) == pytest.approx(PQ_HALF_AT_0, abs=2e-14)

    def test_alternating_at_pi(self):
        q = 0.5
        alt = 0.5 + 2 * math.fsum((-1) ** j / (q**j + q**-j) for j in range(1, 120))
        assert eval_pq(q, math.pi) == pytest.approx(alt, abs=2e-14)

    def test_above_floor_sample(self):
        # the plain series resolves the floor comfortably up to q = 0.8; the
        # theta-quotient form covers the near-degenerate large-q regime
        for q in (0.1, 0.5, 0.8):
            floor = pq_floor(q)
            for t in np.linspace(0.0, 2 * math.pi, 101):
                assert eval_pq(q, float(t)) > floor

    def test_theta_form_matches_series(self):
        for q in (0.1, 0.5, 0.8):
            for t in np.linspace(0.0, 2 * math.pi, 50):
                series = eval_pq(q, float(t), EvalPolicy(abs_tol=1e-15))
                theta = eval_pq_theta(q, float(t))
                assert abs(series - theta) <= 1e-13 + 1e-8 * abs(theta)

    def test_theta_form_resolves_tiny_minima(self):
        # near t = pi the q = 0.9 values sit far below float64 series noise;
        # the quotient form keeps them positive and relatively accurate
        val = eval_pq_theta(0.9, math.pi)
        assert val == pytest.approx(2.718445e-19, rel=1e-5)
        assert val > pq_floor(0.9)


class TestGqHq:
    def test_trivial_zeros(self):
        assert eval_gq(0.37, 3, math.pi / 2) == pytest.approx(0.0, abs=1e-16)
        assert eval_hq(0.37, 3, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_atanh_value(self):
        assert eval_gq(0.5, 1, 0.0) == pytest.approx(ATANH_HALF, abs=1e-15)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_series_agreement_on_grid(self, q, n):
        xs = np.linspace(0.0, 2 * math.pi, 1000)
        terms = max(3, int(-40 * math.log(10) / ((2 * n) * math.log(q))) + 2)
        nu = np.arange(terms)[:, None]
        coef = q ** ((2 * nu + 1) * n) / ((2 * nu + 1) * n)
        g_series = (coef * np.cos((2 * nu + 1) * xs[None, :])).sum(axis=0)
        h_series = (coef * np.sin((2 * nu + 1) * xs[None, :])).sum(axis=0)
        for i, x in enumerate(xs):
            assert eval_gq(q, n, float(x)) == pytest.approx(g_series[i], abs=2e-14)
            assert eval_hq(q, n, float(x)) == pytest.approx(h_series[i], abs=2e-14)

    def test_tiny_amplitude_keeps_relative_accuracy(self):
        # the log1p form must not collapse when q^n is far below 1
        q, n = 0.2, 30
        a = q**n
        x = 2.0
        expected = a * math.cos(x) / n  # leading series term
        assert eval_gq(q, n, x) == pytest.approx(expected, rel=1e-10)


class TestPolicies:
    @given(q=qs, beta=betas, t=ts)
    @settings(max_examples=30, deadline=None)
    def test_two_pi_periodicity(self, q, beta, t):
        params = NeumannParams(q, beta)
        assert abs(eval_neumann(params, t) - eval_neumann(params, t + 2 * math.pi)) <= 2e-14

    @given(q=qs, beta=betas, t=ts)
    @settings(max_examples=30, deadline=None)
    def test_tolerance_consistency(self, q, beta, t):
        spec = NeumannParams(q, beta).spec()
        t1, t2 = 1e-10, 1e-14
        a = eval_psi_beta1(spec, t, EvalPolicy(abs_tol=t1))
        b = eval_psi_beta1(spec, t, EvalPolicy(abs_tol=t2))
        assert abs(a - b) <= t1 + t2

    def test_policy_validation(self):
        with pytest.raises(Exception):
            EvalPolicy(abs_tol=0.0)
        with pytest.raises(Exception):
            EvalPolicy(abs_tol=1e-14, max_terms=0)

    def test_params_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(Exception):
                NeumannParams(bad, 0.0)
