"""Oracle self-checks: the brute-force paths must mirror the certified
evaluators without sharing code with them."""

import itertools
import math

import pytest

from neumann_widths import (DomainError, NeumannParams, conv_square_wave,
                            eval_neumann, eval_pq, eval_psi_beta1, exact_width,
                            slow_series, solve_theta, supnorm_square_conv,
                            theta_equation_series, theta_sign_scan)
from neumann_widths.widths import theta_equation_lhs


class TestSupnorm:
    @pytest.mark.parametrize("q,beta,n", [(0.5, 1.0, 1), (0.3, 0.0, 2),
                                          (0.5, 0.5, 2), (0.8, 1.7, 5)])
    def test_matches_exact_width(self, q, beta, n):
        params = NeumannParams(q, beta)
        max_abs, argmax = supnorm_square_conv(params, n)
        report = exact_width(params, n)
        assert abs(max_abs - report.width) <= 1e-10
        assert abs(argmax - report.y0) <= 1e-8

    def test_argmax_at_zero_for_odd_beta(self):
        _, argmax = supnorm_square_conv(NeumannParams(0.6, 1.0), 3)
        assert min(argmax, math.pi / 3 - argmax) <= 1e-8

    def test_max_is_attained_value(self):
        params = NeumannParams(0.4, 2.3)
        max_abs, argmax = supnorm_square_conv(params, 2)
        assert abs(conv_square_wave(params, 2, argmax)) == pytest.approx(max_abs, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            supnorm_square_conv(NeumannParams(0.5, 0.0), 1, grid_points=32)

    def test_deterministic(self):
        params = NeumannParams(0.7, 0.9)
        assert supnorm_square_conv(params, 3) == supnorm_square_conv(params, 3)


class TestThetaSignScan:
    def test_even_beta_single_change_containing_half(self):
        intervals = theta_sign_scan(NeumannParams(0.5, 0.0), 2, points=2000)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo <= 0.5 <= hi

    def test_odd_beta_zero_at_left_endpoint(self):
        intervals = theta_sign_scan(NeumannParams(0.5, 1.0), 2, points=2000)
        assert (0.0, 0.0) in intervals
        assert len(intervals) == 1

    def test_generic_single_change(self):
        intervals = theta_sign_scan(NeumannParams(0.7, 2.3), 3, points=100_000)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        root = solve_theta(NeumannParams(0.7, 2.3), 3)
        assert lo <= root.theta <= hi

    def test_points_validation(self):
        with pytest.raises(DomainError):
            theta_sign_scan(NeumannParams(0.5, 0.0), 1, points=100)


THETA_GRID_Q = (0.05, 0.3, 0.6, 0.8, 0.9, 0.95)
THETA_GRID_BETA = (0.0, 0.5, 1.0, 1.7, 2.0, 3.2, -0.4)
THETA_GRID_N = (1, 2, 3, 7, 20, 60)


class TestThetaEquationSeries:
    @pytest.mark.parametrize("q", THETA_GRID_Q)
    def test_matches_certified_left_side(self, q):
        for beta, n in itertools.product(THETA_GRID_BETA, THETA_GRID_N):
            params = NeumannParams(q, beta)
            for theta in (0.0, 0.1, 0.25, 0.37, 0.5, 0.63, 0.8, 0.99):
                assert abs(theta_equation_series(params, n, theta)
                           - theta_equation_lhs(params, n, theta)) <= 1e-14

    @pytest.mark.parametrize("q", THETA_GRID_Q)
    def test_vanishes_at_solved_root(self, q):
        for beta, n in itertools.product(THETA_GRID_BETA, THETA_GRID_N):
            params = NeumannParams(q, beta)
            root = solve_theta(params, n).theta
            assert abs(theta_equation_series(params, n, root)) <= 1e-13


class TestSlowSeries:
    def test_mirrors_neumann(self):
        q, beta, t, terms = 0.6, 0.7, 1.1, 200
        params = NeumannParams(q, beta)
        got = slow_series(lambda k: q**k / k, beta * math.pi / 2, t, terms)
        tail = params.tail_bound(terms)
        assert abs(got - eval_neumann(params, t)) <= tail + 1e-13

    def test_mirrors_integrated_kernel(self):
        q, beta, t, terms = 0.6, -0.3, 0.4, 200
        spec = NeumannParams(q, beta).spec()
        got = slow_series(lambda k: q**k / k**2, (beta + 1) * math.pi / 2, t, terms)
        assert abs(got - eval_psi_beta1(spec, t)) <= 1e-13

    def test_mirrors_pq(self):
        q, t, terms = 0.5, 2.2, 120
        got = 0.5 + slow_series(lambda j: 2.0 / (q**j + q**-j), 0.0, t, terms)
        assert abs(got - eval_pq(q, t)) <= 1e-13

    def test_terms_validation(self):
        with pytest.raises(DomainError):
            slow_series(lambda k: 0.5**k, 0.0, 1.0, 0)
