"""Theta roots, exact width values, and the asymptotic decomposition."""

import itertools
import math
import random
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_widths import (BracketFailure, Branch, EvalPolicy, NeumannParams, NeumannWidthsError,
                            TolUnreachable,
                            conv_square_wave, exact_width, solve_theta, theta_cos_bound,
                            theta_equation_lhs, verify_cy2n)
from neumann_widths.kernels import eval_gq, eval_hq
from neumann_widths.oracles import theta_sign_scan
from neumann_widths import widths
from neumann_widths.widths import _bisect_theta

WIDTH_CHI2 = 0.6561351817594581   # (4/pi) * Legendre-chi_2(1/2)
WIDTH_03_0_2 = 0.0572443630601780  # theta = 1/2 alternating sum, q=0.3, n=2

qs = st.floats(min_value=0.05, max_value=0.9)
betas = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


class TestThetaRoots:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_trivial_roots(self, q, n):
        for beta in (0.0, 2.0, -2.0, 4.0):
            assert solve_theta(NeumannParams(q, beta), n).theta == 0.5
        for beta in (1.0, 3.0, -1.0, -3.0):
            assert solve_theta(NeumannParams(q, beta), n).theta == 0.0

    def test_branch_classification(self):
        assert solve_theta(NeumannParams(0.4, 0.3), 2).branch is Branch.HALF
        assert solve_theta(NeumannParams(0.4, 2.3), 2).branch is Branch.HALF
        assert solve_theta(NeumannParams(0.4, 1.3), 2).branch is Branch.ZERO
        assert solve_theta(NeumannParams(0.4, 3.3), 2).branch is Branch.ZERO

    def test_root_in_branch_interval(self):
        root = solve_theta(NeumannParams(0.5, 0.5), 2)
        assert 0.5 < root.theta < 1.0
        assert abs(root.residual) <= 1e-13

    def test_against_dense_sign_scan(self):
        # independent oracle: 1e5-point scan localizes the unique root
        params = NeumannParams(0.5, 0.5)
        root = solve_theta(params, 2)
        intervals = theta_sign_scan(params, 2, points=100_000)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= root.theta <= hi

    @given(q=qs, beta=betas, n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_residual_bound(self, q, beta, n):
        root = solve_theta(NeumannParams(q, beta), n)
        assert 0.0 <= root.theta < 1.0
        assert abs(root.residual) <= 1e-13

    def test_underflow_limit_root(self):
        # q^n underflows: the nu=0 cosine alone fixes the root
        root = solve_theta(NeumannParams(0.1, 0.5), 400)
        assert root.theta == pytest.approx(0.75, abs=1e-15)
        assert abs(root.residual) <= 1e-13

    def test_underflow_limit_root_last_phase_quarter(self):
        # beta mod 4 in [3, 4): the nu=0 cosine vanishes at theta = beta/2 - 3/2
        root = solve_theta(NeumannParams(0.5, 3.5), 1100)
        assert root.theta == 0.25
        assert abs(root.residual) <= 1e-15

    def test_residual_is_summed_on_first_read(self, monkeypatch):
        # the root comes from the closed form; only reading the residual sums
        # its series, so a cap that series cannot meet fails there and in
        # exact_width, but not in solve_theta, and the sign check never sums it
        params, policy = NeumannParams(0.9, 0.5), EvalPolicy(max_terms=5)
        root = solve_theta(params, 1, policy)
        assert root.theta == solve_theta(params, 1).theta
        for read in (lambda: root.residual, lambda: exact_width(params, 1, policy)):
            with pytest.raises(TolUnreachable, match="theta equation"):
                read()
        assert solve_theta(params, 1).residual == theta_equation_lhs(params, 1, root.theta)

        expected = verify_cy2n(params, 2)
        widths._solve_theta_cached.cache_clear()
        monkeypatch.setattr(widths, "theta_equation_lhs", None)
        assert verify_cy2n(params, 2) == expected

    @pytest.mark.parametrize("q", [0.01, 0.015, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_roots_where_q_pow_n_is_subnormal(self, q):
        # every n from 3 below the first subnormal q^n to the first zero one,
        # where the closed form's size q^n/n leaves too few bits to bisect on
        first_subnormal = next(n for n in itertools.count(1) if q**n < sys.float_info.min)
        first_zero = next(n for n in itertools.count(first_subnormal) if q**n == 0.0)
        for beta in (0.3, 0.5, 1.3, 1.98, 2.7, 3.5):
            for n in range(first_subnormal - 3, first_zero + 1):
                theta = solve_theta(NeumannParams(q, beta), n).theta
                exact = theta_series_root(q, beta, n)
                assert abs(mp.mpf(theta) - exact) <= 4 * math.ulp(float(exact)), (q, beta, n)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_q_near_one_names_its_limit(self, k):
        # q = 1 - 10^-k: where 1 - q^n < ~1e-8 the closed form's log1p has no
        # value at the bracket end, which is a numerical error, not a ValueError
        q = 1.0 - 10.0**-k
        for beta in (0.3, 0.5, 1.3, 2.5):
            for n in (1, 2, 3, 5, 10):
                try:
                    solve_theta(NeumannParams(q, beta), n)
                except NeumannWidthsError as exc:
                    assert k >= 9 and not isinstance(exc, ValueError), (k, beta, n)
                    assert "below its float limit of about 1e-8" in str(exc)

    def test_underflow_width_is_zero(self):
        r = exact_width(NeumannParams(0.1, 0.5), 400)
        assert r.width == 0.0
        assert r.gamma_n == 0.0
        assert r.sandwich_lo == r.sandwich_hi == 0.0


class TestSquareWaveConv:
    def test_chi2_value(self):
        val = conv_square_wave(NeumannParams(0.5, 1.0), 1, 0.0)
        assert val == pytest.approx(-WIDTH_CHI2, abs=2e-14)

    def test_zero_at_origin_for_cosine_phase(self):
        for q, n in ((0.3, 1), (0.7, 4)):
            assert conv_square_wave(NeumannParams(q, 0.0), n, 0.0) == pytest.approx(0.0, abs=1e-14)

    @given(q=qs, beta=betas, n=st.integers(min_value=1, max_value=8),
           t=st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_antiperiodicity(self, q, beta, n, t):
        params = NeumannParams(q, beta)
        a = conv_square_wave(params, n, t)
        b = conv_square_wave(params, n, t + math.pi / n)
        assert abs(a + b) <= 2e-14


class TestExactWidth:
    def test_chi2_width(self):
        report = exact_width(NeumannParams(0.5, 1.0), 1)
        assert report.width == pytest.approx(WIDTH_CHI2, abs=2e-14)
        assert report.theta == 0.0
        assert report.y0 == 0.0

    def test_alternating_width(self):
        report = exact_width(NeumannParams(0.3, 0.0), 2)
        assert report.theta == 0.5
        assert report.width == pytest.approx(WIDTH_03_0_2, abs=2e-15)

    @given(q=qs, beta=betas, n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_and_gamma(self, q, beta, n):
        r = exact_width(NeumannParams(q, beta), n)
        ratio = q ** (2 * n) / (1.0 - q ** (2 * n))
        assert 1.0 - (4.0 / 9.0) * ratio <= r.peak <= 1.0 + (4.0 / 9.0) * ratio
        assert abs(r.gamma_n) <= 16.0 / (9.0 * math.pi)
        assert r.sandwich_lo <= r.sandwich_hi

    @given(q=qs, beta=betas, n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_beta_shift_invariance(self, q, beta, n):
        # snap beta to a 1/64 grid so beta + 4 is exact in floating point and
        # the invariance can be asserted bit-for-bit
        beta = round(beta * 64.0) / 64.0
        a = exact_width(NeumannParams(q, beta), n)
        b = exact_width(NeumannParams(q, beta + 4.0), n)
        assert a.width == b.width
        assert a.theta == b.theta

    def test_width_positive_and_scaled(self):
        r = exact_width(NeumannParams(0.4, 0.7), 3)
        assert 0.0 < r.width < 1.0
        assert r.width == pytest.approx((4 / math.pi) * (0.4**3 / 3) * r.peak, rel=1e-15)


class TestCosBound:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_trivial_phases(self, beta):
        lhs, rhs = theta_cos_bound(NeumannParams(0.5, beta), 3)
        assert lhs <= rhs + 1e-13

    def test_generic_case(self):
        lhs, rhs = theta_cos_bound(NeumannParams(0.6, 0.7), 1)
        assert lhs <= rhs + 1e-13
        assert rhs == pytest.approx(0.6**2 / (3 * (1 - 0.6**2)), rel=1e-15)

    @given(q=qs, beta=betas, n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_holds_on_grid(self, q, beta, n):
        lhs, rhs = theta_cos_bound(NeumannParams(q, beta), n)
        assert lhs <= rhs + 1e-13


def test_theta_equation_lhs_vanishes_at_root():
    params = NeumannParams(0.8, 2.6)
    root = solve_theta(params, 4)
    assert abs(theta_equation_lhs(params, 4, root.theta)) <= 1e-13
    # and is clearly nonzero away from the root
    assert abs(theta_equation_lhs(params, 4, root.theta + 0.2)) > 1e-3


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.7, 3.2])
@pytest.mark.parametrize("n", [1, 2, 5, 10, 25])
def test_root_uniqueness_dense_scan(q, beta, n):
    # independent vectorized scan of the equation's left side over [0, 1):
    # exactly one sign change when the root is interior, none when it sits
    # at the left endpoint
    import numpy as np

    thetas = np.arange(20_000) / 20_000.0
    phase = (beta % 4.0) * math.pi / 2.0
    terms = max(2, int(-18.0 * math.log(10.0) / (2 * n * math.log(q))) + 2)
    nu = np.arange(terms)[:, None]
    coef = q ** (2 * nu * n) / (2 * nu + 1)
    lhs = (coef * np.cos((2 * nu + 1) * thetas[None, :] * math.pi - phase)).sum(axis=0)

    signs = np.sign(lhs[np.abs(lhs) > 1e-12])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    root = solve_theta(NeumannParams(q, beta), n)
    assert changes == (1 if root.theta > 0.0 else 0)
    if changes == 1:
        # the change straddles the computed root
        idx = int(np.argmax(np.sign(lhs[1:] * lhs[:-1]) < 0))
        assert thetas[idx] <= root.theta <= thetas[idx + 1] + 1e-12


def theta_series_root(q, beta, n):
    """The root in [0, 1) of the theta series to 40 digits, from the float
    q and beta taken exactly: sum_nu q^(2 nu n)/(2 nu + 1)
    cos((2 nu + 1) theta pi - beta pi/2), summed until a term is below
    1e-60, solved on whichever half of [0, 1] has the sign change."""
    with mp.workdps(40):
        ratio, phase = (mp.mpf(q) ** n) ** 2, mp.mpf(beta) * mp.pi / 2

        def lhs(theta):
            total, coef, m = mp.mpf(0), mp.mpf(1), 1
            while coef > mp.mpf(10) ** -60:
                total += coef / m * mp.cos(m * mp.pi * theta - phase)
                coef, m = coef * ratio, m + 2
            return total

        lo = mp.mpf(0) if lhs(0) * lhs(mp.mpf(1) / 2) <= 0 else mp.mpf(1) / 2
        return mp.findroot(lhs, (lo, lo + mp.mpf(1) / 2), solver="anderson")


def retired_bisection(params, n, lo, hi):
    """The theta bisection that ``widths._bisect_theta`` replaced, kept as
    its reference: a fixed 64 steps, each evaluating eval_gq and eval_hq
    afresh.  Returns theta and the number of steps before the bracket
    stopped moving (its midpoint equal to an end), or None and 0 where the
    closed form has no sign change on [lo, hi] (q^n near the underflow)."""
    def closed(theta):
        x = theta * math.pi
        half = params.beta_mod4 * (math.pi / 2.0)
        return eval_gq(params.q, n, x) * math.cos(half) + eval_hq(params.q, n, x) * math.sin(half)

    f_lo, f_hi = closed(lo), closed(hi)
    if f_lo == 0.0:
        return lo, 0
    if f_hi == 0.0 or f_lo * f_hi > 0.0:
        return None, 0
    neg_lo, moving = f_lo < 0.0, 0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid != lo and mid != hi:
            moving += 1
        f_mid = closed(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), moving


def theta_grid(count, seed=2023):
    """Seeded (q, beta, n) with q up to 1 - 1e-5, beta in [-8, 8] off the
    integers, n up to 3000 and q^n > 0."""
    rng = random.Random(seed)
    grid = []
    while len(grid) < count:
        q = rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-5.0, -1.0)
        beta, n = rng.uniform(-8.0, 8.0), rng.randint(1, 3000)
        if 0.0 < q and q**n > 0.0 and beta % 1.0:
            grid.append((q, beta, n))
    return grid


def test_bisection_is_the_retired_loop_bit_for_bit(monkeypatch):
    # same theta bits, and one closed-form evaluation (one atan) per end and
    # per step that moves the bracket, none after it stops moving
    calls = []
    atan = math.atan
    monkeypatch.setattr(math, "atan", lambda x: calls.append(1) or atan(x))
    for q, beta, n in theta_grid(3000):
        params = NeumannParams(q, beta)
        bracket = (0.5, 1.0) if solve_branch(params) is Branch.HALF else (0.0, 0.5)
        ref, moving = retired_bisection(params, n, *bracket)
        calls.clear()
        if ref is None:
            with pytest.raises(BracketFailure):
                _bisect_theta(params, n, *bracket)
            continue
        theta = _bisect_theta(params, n, *bracket)
        assert theta.hex() == ref.hex(), (q, beta, n)
        assert len(calls) == 2 + moving, (q, beta, n)


def solve_branch(params):
    beta_r = params.beta_mod4
    return Branch.HALF if beta_r < 1.0 or 2.0 <= beta_r < 3.0 else Branch.ZERO
