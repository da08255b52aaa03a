"""Theta roots, exact width values, and the asymptotic decomposition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_widths import (Branch, NeumannParams, conv_square_wave, exact_width,
                            solve_theta, theta_cos_bound, theta_equation_lhs)
from neumann_widths.oracles import theta_sign_scan

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
