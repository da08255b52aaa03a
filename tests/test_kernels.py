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

from neumann_widths import (DEFAULT_POLICY, DomainError, EvalPolicy, KernelSpec,
                            NeumannParams, TolUnreachable, eval_bernoulli, eval_gq, eval_hq,
                            eval_neumann, eval_neumann_pair, eval_pq, eval_pq_theta,
                            eval_psi_beta1, pq_floor)
from neumann_widths import kernels
from neumann_widths.kernels import (TWO_PI, _certified_sum, _cosine_block_sum,
                                    _neumann_row, _pq_terms, _reduce_phase,
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


ENTRY_POLICY = EvalPolicy(abs_tol=1e-16)  # det_D's per-entry policy


def neumann_mp_closed(q, beta, t):
    """-Re(e^(-i beta pi/2) log(1 - q e^(it))) at 40 digits, with the exact
    phase beta pi/2 (beta not reduced in floats)."""
    with mp.workdps(40):
        rot = mp.expj(-mp.mpf(beta) * mp.pi / 2)
        return mp.re(-rot * mp.log(1 - mp.mpf(q) * mp.expj(mp.mpf(t))))


def closed_form_t(rng, count):
    """Differences near 0, 2pi, -2pi and pi at scales down to 1e-12, and
    uniform ones in (-2pi, 2pi), with the four exact points."""
    near = [c + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(0.0, 12.0)
            for c in (0.0, TWO_PI, -TWO_PI, math.pi) for _ in range(count)]
    return np.array(near + [rng.uniform(-TWO_PI, TWO_PI) for _ in range(count)]
                    + [0.0, math.pi, TWO_PI, -TWO_PI])


_CLOSED_RNG = random.Random(20261020)
# q = 1 - 10^-k up to k = 8, and random q; integer, half-integer, negative
# and random beta, which take every rounding of the phase
CLOSED_QS = [1.0 - 10.0**-k for k in range(1, 9)] + [
    _CLOSED_RNG.uniform(0.0, 1.0) for _ in range(8)]
CLOSED_BETAS = [0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 3.5, -1.0, -0.5, 1e-9, -1e-9] + [
    _CLOSED_RNG.uniform(-8.0, 8.0) for _ in range(8)]
CLOSED_T = closed_form_t(_CLOSED_RNG, 4)


def ulp_error(computed, exact):
    """|computed - exact| in ulps of the float nearest the mpmath value exact."""
    return float(abs(mp.mpf(computed) - exact)) / math.ulp(float(exact))


class TestClosedForm:
    """``eval_neumann_closed``: every value within its stated bound of the
    40-digit closed form and of the series."""

    def test_each_function_within_one_ulp(self):
        # the bound assumes each sin, cos, log and atan2 within one ulp: each
        # is held to it on the arguments the closed form passes it
        t = closed_form_t(random.Random(20261021), 150)
        s = np.sin(0.5 * t)
        worst = {}
        with mp.workdps(40):
            cases = [("np.sin", v, mp.sin(x)) for xs in (0.5 * t, t)
                     for v, x in zip(np.sin(xs), xs)]
            for q in CLOSED_QS:
                p, qs2 = 1.0 - q, q * (s * s)
                z, y, x = p * p + 4.0 * qs2, q * np.sin(t), p + 2.0 * qs2
                cases += [("np.log", v, mp.log(a)) for v, a in zip(np.log(z), z)]
                cases += [("np.arctan2", v, mp.atan2(a, b))
                          for v, a, b in zip(np.arctan2(y, x), y, x)]
            for beta in CLOSED_BETAS:
                phi = kernels._reduce_phase(beta)
                cases += [("math.cos", math.cos(phi), mp.cos(phi)),
                          ("math.sin", math.sin(phi), mp.sin(phi))]
            for name, computed, exact in cases:
                worst[name] = max(worst.get(name, 0.0), ulp_error(computed, exact))
        assert len(worst) == 5 and max(worst.values()) <= 1.0, worst

    @pytest.mark.parametrize("q", CLOSED_QS)
    def test_within_bound_of_40_digits(self, q):
        for beta in CLOSED_BETAS:
            value, bound = kernels.eval_neumann_closed(NeumannParams(q, beta), CLOSED_T)
            for t, v, b in zip(CLOSED_T, value, bound):
                assert abs(v - neumann_mp_closed(q, beta, t)) <= b, (q, beta, t)

    @pytest.mark.parametrize("q", [0.05, 0.21, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.7, 3.2, -2.3])
    def test_within_bound_of_the_series(self, q, beta):
        # the series words det_D's exact fallback takes, abs_tol 1e-16
        params = NeumannParams(q, beta)
        t = closed_form_t(random.Random(int(100 * q) + int(10 * beta)), 3)
        value, bound = kernels.eval_neumann_closed(params, t)
        for ti, v, b in zip(t, value, bound):
            hi, lo = eval_neumann_pair(params, ti, ENTRY_POLICY)
            assert abs(v - (hi + lo)) <= b + 1e-16, (q, beta, ti)


NEAR_ONE = NeumannParams(0.99, 0.3)


def block_pairs(params, t, policy=ENTRY_POLICY):
    """The block pass det_D takes over an array of differences t."""
    coef = _neumann_row(params, policy)
    return _cosine_block_sum(coef, _reduce_phase(params.beta), t)

# One call per tail-checked series; each policy runs out of terms in that
# series.  exact_width: at q = 0.5, n = 1, abs_tol = 1e-15 its theta residual
# converges after 23 terms, so the 24-term cap is hit in the peak series.
# derivative_pq: at q = 0.5, n = 16 the eigenvalue tails converge after two
# terms, so the 3-term cap is hit in gamma_5's strip-kernel tail.  verify_cy2n
# sums no series over its midpoints (one FFT); at q = 0.99, n = 4 its
# eigenvalue tails need more than three terms, so it hits the cap there.
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
    "verify_cy2n": (lambda pol: verify_cy2n(NeumannParams(0.99, 0.3), 4, 0.05, pol), 1e-14, 3),
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
    assert len(_neumann_row(params, ENTRY_POLICY)) == 650
    monkeypatch.setattr(kernels, "_BLOCK_ROWS", rows)
    assert entry_pairs(*block_pairs(params, BLOCK_T)) == scalar_pairs(params, BLOCK_T)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
def test_block_pass_stops_where_the_scalar_sum_stops(q):
    # with K terms allowed both succeed; with K - 1 both raise the same error
    params = NeumannParams(q, 0.3)
    need = len(_neumann_row(params, ENTRY_POLICY))
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


# q from 1e-300, whose powers underflow at once, to 1 - 1e-12, whose K is
# far beyond any cap; abs_tol down to the smallest subnormal
ROW_QS = (1e-300, 1e-20, 0.06, 0.21, 0.5, 0.9, 0.95, 0.999, 1.0 - 1e-12)
ROW_TOLS = (1e-14, 1e-16, 1e-300, 5e-324)
ROW_CAP = 10**6


def scalar_row(q, tol, cap):
    """The coefficient row by its scalar definition: q**k / k for k = 1..K,
    K the first k with tail q**(k+1) / ((k+1)(1-q)) <= tol (None when no
    k up to cap qualifies), and the tails after k = 1..min(K, cap)."""
    tails = []
    for k in range(1, cap + 1):
        tails.append(q ** (k + 1) / ((k + 1) * (1.0 - q)))
        if tails[-1] <= tol:
            return [q**i / i for i in range(1, k + 1)], k, tails
    return None, None, tails


@pytest.mark.parametrize("tol", ROW_TOLS)
@pytest.mark.parametrize("q", ROW_QS)
def test_coefficient_row_is_the_scalar_definition(q, tol):
    # bit for bit q**k / k up to K; with fewer terms allowed than K, the
    # scalar sum's error in every field
    row, need, tails = scalar_row(q, tol, ROW_CAP)
    params = NeumannParams(q, 0.0)
    caps = {1, ROW_CAP} | ({need - 1, need} if need else set())
    for cap in sorted(caps - {0}):
        policy = EvalPolicy(abs_tol=tol, max_terms=cap)
        if need is not None and cap >= need:
            got = _neumann_row(params, policy)
            assert got.dtype == np.float64 and len(got) == need
            assert np.array_equal(got.view(np.uint64), np.array(row).view(np.uint64))
            continue
        with pytest.raises(TolUnreachable) as info:
            _neumann_row(params, policy)
        tail = tails[cap - 1]
        assert (str(info.value), info.value.terms_used, info.value.tail_bound) == (
            f"eval_neumann: tail {tail:.3e} still above {tol:.3e} after {cap} terms",
            cap, tail)
        assert type(info.value.tail_bound) is float


@pytest.mark.parametrize("tol", ROW_TOLS)
@pytest.mark.parametrize("q", [q for q in ROW_QS if q < 0.9999])
def test_power_row_is_sized_close_to_k(monkeypatch, q, tol):
    # one row of exactly K libm powers, q^1 .. q^K, at every abs_tol down to
    # the smallest subnormal
    sizes = []
    powers = kernels._libm_powers
    monkeypatch.setattr(kernels, "_libm_powers",
                        lambda q, exponents: sizes.append(len(exponents)) or powers(q, exponents))
    need = len(_neumann_row(NeumannParams(q, 0.0), EvalPolicy(abs_tol=tol)))
    assert sizes == [need]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.2])
def test_block_pass_starts_from_positive_zero(beta):
    # at q = 5e-324 the first term q cos(u - phase) rounds to -0.0 where
    # |cos| < 1/2; the scalar loop adds it to 0.0, and so must the block
    params = NeumannParams(5e-324, beta)
    s, c = block_pairs(params, BLOCK_T)
    assert [(a.hex(), b.hex()) for a, b in entry_pairs(s, c)] == [
        (a.hex(), b.hex()) for a, b in scalar_pairs(params, BLOCK_T)]


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

    @pytest.mark.parametrize("abs_tol", [math.inf, -math.inf, math.nan, -1e-14])
    def test_policy_needs_a_positive_finite_tolerance(self, abs_tol):
        # an infinite abs_tol would stop every certified series after one term
        with pytest.raises(DomainError, match="abs_tol must be a positive finite number"):
            EvalPolicy(abs_tol=abs_tol)

    def test_params_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(Exception):
                NeumannParams(bad, 0.0)
