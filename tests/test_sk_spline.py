"""Eigenvalue paths, the fundamental-spline solve, derivative representations,
and the sign-condition verifier, cross-validated against one another."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_widths import (DEFAULT_POLICY, EigenValue, NeumannParams, Partition2n,
                            SignDegenerate, SingularSystem, UnderflowLimit,
                            classify_sign_pattern, derivative_eigen, derivative_pq,
                            eigen_assembly, eval_bernoulli, eval_pq, lambda_finite_sum,
                            lambda_fourier, solve_fundamental_spline, solve_theta,
                            verify_cy2n)
from neumann_widths.compensated import KahanSum
from neumann_widths.thresholds import check_tail_condition


def y0_of(q, beta, n):
    return solve_theta(NeumannParams(q, beta), n).y0


class TestPartition:
    def test_nodes_and_midpoints(self):
        p = Partition2n(3)
        assert len(p.nodes) == 7
        assert p.nodes[0] == 0.0
        assert p.nodes[-1] == pytest.approx(2 * math.pi, rel=1e-15)
        assert all(a < b for a, b in zip(p.nodes, p.nodes[1:]))
        mids = p.midpoints
        assert len(mids) == 6
        for k, t in enumerate(mids, start=1):
            assert p.nodes[k - 1] < t < p.nodes[k]


class TestEigenvaluePaths:
    def test_finite_vs_fourier(self):
        params = NeumannParams(0.3, 0.7)
        n, y = 5, 0.1
        for j in range(n):
            a = lambda_finite_sum(params.spec(), n, n - j, y)
            b = lambda_fourier(params, n, j, y)
            assert abs(a - b) <= 1e-12

    def test_lambda_n_is_real(self):
        params = NeumannParams(0.3, 0.7)
        lam = lambda_finite_sum(params.spec(), 5, 5, 0.1)
        assert abs(lam.imag) <= 1e-12
        ev = EigenValue(l=5, value=lam)
        assert ev.rho == lam.real and ev.sigma == lam.imag
        assert abs(ev.value) > 0.0

    def test_beta_shift_leaves_lambdas(self):
        a = lambda_finite_sum(NeumannParams(0.4, 0.6).spec(), 4, 2, 0.2)
        b = lambda_finite_sum(NeumannParams(0.4, 4.6).spec(), 4, 2, 0.2)
        assert abs(a - b) <= 1e-13

    def test_sign_degenerate_raises(self):
        with pytest.raises(SignDegenerate):
            lambda_fourier(NeumannParams(0.3, 0.0), 4, 1, 0.0)
        # the finite node sum still works at the same point
        lam = lambda_finite_sum(NeumannParams(0.3, 0.0).spec(), 4, 3, 0.0)
        assert abs(lam) > 0.0


BOUND_Q, BOUND_BETA = 0.2, 0.3
# indices where the tail condition already holds and q^(2n) is still far
# above the phase-rounding noise floor, so the magnitude bounds below are
# resolvable in double precision
BOUND_NS = (6, 7, 8)


def _bound_assembly(n):
    y0 = y0_of(BOUND_Q, BOUND_BETA, n)
    return eigen_assembly(NeumannParams(BOUND_Q, BOUND_BETA), n, y0)


@pytest.mark.parametrize("n", BOUND_NS)
class TestFourierTailBounds:
    """Magnitude bounds on the r-decomposition at the peak shift, in the
    regime where the tail condition holds."""

    def test_regime(self, n):
        assert check_tail_condition(BOUND_Q, n).holds

    def test_r_bound(self, n):
        assembly = _bound_assembly(n)
        q = BOUND_Q
        cap = 0.75 * q ** (2 * n) / (1 - q ** (2 * n))
        assert all(abs(r) <= cap for r in assembly.r)

    def test_r0_refined_bound(self, n):
        assembly = _bound_assembly(n)
        q = BOUND_Q
        cap = 8.0 / (9 * n**2) * q ** (3 * n) / (1 - q ** (2 * n))
        assert abs(assembly.r[0]) <= cap

    def test_r0_second_part_vanishes(self, n):
        assert _bound_assembly(n).r2[0] == 0.0

    def test_R_below_r(self, n):
        assembly = _bound_assembly(n)
        assert all(abs(R) <= abs(r) + 1e-18
                   for R, r in zip(assembly.R, assembly.r))

    def test_z_below_twice_r(self, n):
        assembly = _bound_assembly(n)
        z = assembly.derivative_pq(1)[1].z  # z_j at the first midpoint t_1
        for j in range(n):
            assert abs(z[j]) <= 2 * abs(assembly.r[j]) + 1e-18

    def test_lambda_lower_bound(self, n):
        assembly = _bound_assembly(n)
        q = BOUND_Q
        for j, mag in enumerate(assembly.lam_abs):
            assert mag >= 0.9 * q ** (n - j) / (n - j) ** 2

    def test_delta_bound(self, n):
        assembly = _bound_assembly(n)
        for j in range(1, math.isqrt(n) + 1):
            cap = 8.0 * j * (2 * n - j) / (7.0 * (n - j) ** 2)
            assert abs(assembly.delta(j)) <= cap


class TestFundamentalSpline:
    def test_interpolation_residual(self):
        q, beta, n = 0.3, 0.0, 4
        y0 = y0_of(q, beta, n)
        sol = solve_fundamental_spline(NeumannParams(q, beta).spec(), n, y0)
        assert sol.residual <= 1e-10
        assert abs(sol.coeff_sum) <= 1e-10

    def test_derivative_is_piecewise_constant(self):
        q, beta, n = 0.3, 0.7, 3
        sol = solve_fundamental_spline(NeumannParams(q, beta).spec(), n, 0.1)

        def deriv_at(t):
            return math.fsum(sol.alpha[l] * eval_bernoulli(t - l * math.pi / n)
                             for l in range(1, 2 * n + 1))

        scale = max(abs(d) for d in sol.midpoint_derivs)
        for k, t_k in enumerate(Partition2n(n).midpoints, start=1):
            for shift in (-math.pi / (4 * n), math.pi / (4 * n)):
                assert abs(deriv_at(t_k + shift) - sol.midpoint_derivs[k - 1]) \
                    <= 1e-12 * scale

    def test_paths_agree(self):
        for q, beta, n, y in [(0.3, 0.7, 5, 0.1), (0.2, 0.3, 4, 0.11),
                              (0.5, 1.0, 3, 0.0)]:
            params = NeumannParams(q, beta)
            sol = solve_fundamental_spline(params.spec(), n, y)
            for k in range(1, 2 * n + 1):
                d_solve = sol.midpoint_derivs[k - 1]
                d_eig = derivative_eigen(params, n, y, k)
                d_pq, _ = derivative_pq(params, n, y, k)
                assert d_solve == pytest.approx(d_eig, rel=1e-9)
                assert d_eig == pytest.approx(d_pq, rel=1e-12)

    def test_singular_system_raised_when_condition_explodes(self):
        # lambda_n ~ 2 q^n / n^2 sits below the elimination noise floor here
        q, beta, n = 0.2, 0.0, 20
        y0 = y0_of(q, beta, n)
        with pytest.raises(SingularSystem):
            solve_fundamental_spline(NeumannParams(q, beta).spec(), n, y0)


class TestGammaLedger:
    def test_ledger_reconstructs_value(self):
        params = NeumannParams(0.3, 0.7)
        n, k = 5, 3
        y0 = y0_of(0.3, 0.7, n)
        value, ledger = derivative_pq(params, n, y0, k)
        psi_n = 0.3**n / n
        t_k = k * math.pi / n - math.pi / (2 * n)
        rebuilt = ((-1) ** (k + 1) * math.pi / (4 * n * psi_n)
                   * (eval_pq(0.3, t_k - y0) * ledger.s + math.fsum(ledger.gamma)))
        assert value == pytest.approx(rebuilt, rel=1e-12)
        assert ledger.gamma_total == pytest.approx(sum(abs(g) for g in ledger.gamma))
        assert ledger.min_abs_lambda > 0.0

    def test_budget_holds_at_admissible_n(self):
        q = 0.2
        for n in (13, 17):
            params = NeumannParams(q, 0.3)
            y0 = y0_of(q, 0.3, n)
            for k in (1, n, 2 * n):
                _, ledger = derivative_pq(params, n, y0, k)
                assert ledger.gamma_total <= ledger.gamma_budget

    def test_pq_plus_corrections_nonnegative(self):
        # the bracket (P_q + s * sum gamma) stays nonnegative where both
        # threshold conditions hold
        q, beta, n = 0.2, 0.5, 13
        params = NeumannParams(q, beta)
        y0 = y0_of(q, beta, n)
        assembly = eigen_assembly(params, n, y0)
        for k in range(1, 2 * n + 1):
            gs = assembly.gammas(k)
            t_k = assembly.midpoint(k)
            assert eval_pq(q, t_k - y0) + assembly.s * math.fsum(gs) >= 0.0

    def test_needs_n_at_least_two(self):
        with pytest.raises(Exception):
            derivative_pq(NeumannParams(0.3, 0.5), 1, 0.2, 1)


class TestSignCondition:
    def test_holds_at_first_admissible_index(self):
        res = verify_cy2n(NeumannParams(0.2, 0.0), 13)
        assert res.holds
        assert res.epsilon in (1, -1)
        assert len(res.pattern) == 26
        assert all(e in (0, 1) for e in res.pattern)

    def test_below_threshold_runs_and_reports(self):
        # informational: n is below the guaranteed index, no claim asserted
        res = verify_cy2n(NeumannParams(0.5, 1.0), 2)
        assert isinstance(res.holds, bool)
        assert len(res.derivatives) == 4

    def test_classifier_epsilon_flip(self):
        values = [3.0, -2.0, 1.5, -0.5]
        holds, eps, pattern, signs = classify_sign_pattern(values, 1e-12)
        holds2, eps2, pattern2, signs2 = classify_sign_pattern([-v for v in values], 1e-12)
        assert holds and holds2
        assert eps2 == -eps
        assert pattern2 == pattern
        assert signs2 == tuple(-s for s in signs)

    @given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_classifier_flip_invariance(self, values):
        holds, _, pattern, _ = classify_sign_pattern(values, 1e-12)
        holds2, _, pattern2, _ = classify_sign_pattern([-v for v in values], 1e-12)
        assert holds == holds2
        assert pattern == pattern2

    def test_classifier_zero_entries_allowed(self):
        holds, eps, pattern, _ = classify_sign_pattern([1.0, 0.0, 1.0, -1.0], 1e-12)
        assert holds and eps == 1
        assert pattern == (1, 0, 1, 1)

    def test_classifier_rejects_wrong_sign(self):
        holds, _, _, _ = classify_sign_pattern([1.0, 1.0], 1e-12)
        assert not holds

    def test_custom_shift_accepted(self):
        params = NeumannParams(0.2, 0.5)
        res = verify_cy2n(params, 13, y=0.8 * y0_of(0.2, 0.5, 13))
        assert isinstance(res.holds, bool)


# The q at the low end of each cy2n-ladder stratum of the benchmark, one beta
# per beta class (0, a non-integer in (0, 1), 1, a non-integer in (1, 2)),
# and n from 2 up to E - 1, the last n before |lambda_n|^2 underflows.
LADDER_QS = (0.05, 0.12, 0.19, 0.26)
BETA_CLASSES = (0.0, 0.37, 1.0, 1.63)
# the array pass against the scalar loops: bound on |d_array - d_scalar|
# relative to max_k |d_k| (the verify_cy2n docstring)
ARRAY_PASS_REL_BOUND = 1e-15


def underflow_edge(q):
    """Smallest n at which (2 q^n / n^2)^2, the scale of |lambda_n|^2,
    underflows to zero."""
    n = 2
    while (2.0 * q**n / n**2) ** 2 != 0.0:
        n += 1
    return n


def scalar_derivatives(assembly):
    """Midpoint derivatives via P_q from per-midpoint scalar j-loops (Kahan
    gamma_1, fsum gamma_3 and gamma_4, a Kahan strip tail and eval_pq): the
    loops the array pass replaced, kept as its reference."""
    a = assembly
    n, q, s, psi_n = a.n, a.q, a.s, a.psi_n
    root = math.isqrt(n)
    inv_scale = psi_n / n
    cos_half = [math.cos(j * math.pi / (2 * n)) for j in range(n)]
    x = a.R[0] * n / psi_n
    g2 = -x / (2.0 * (2.0 + x)) * s
    values = []
    for k in range(1, 2 * n + 1):
        d = a.midpoint(k) - a.y

        def z(j):
            c = math.cos(j * d)
            if abs(a.r[j]) <= 1e-300:
                return -a.R[j] * c * s
            return abs(a.r[j]) * math.cos(j * d + cmath.phase(a.r[j])) - a.R[j] * c * s

        acc = KahanSum(z(0) / a.lam_abs[0] ** 2)
        for j in range(1, n):
            acc.add(2.0 * z(j) / (a.lam_abs[j] ** 2 * cos_half[j]))
        g1 = psi_n / n * acc.value
        g3 = 2.0 * s * math.fsum(math.cos(j * d) * inv_scale / (a.lam_abs[j] * cos_half[j])
                                 for j in range(root + 1, n))
        g4 = -2.0 * s * math.fsum(a.delta(j) * math.cos(j * d) * inv_scale
                                  / (a.lam_abs[j] * cos_half[j]) for j in range(1, root + 1))
        tail, j = KahanSum(), root
        while True:
            j += 1
            tail.add(2.0 * math.cos(j * d) / (q**j + q**-j))
            if 2.0 * q ** (j + 1) / (1.0 - q) <= DEFAULT_POLICY.abs_tol:
                break
        gs = (g1, g2, g3, g4, -s * tail.value)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        values.append(sign_k * math.pi / (4.0 * n * psi_n)
                      * (eval_pq(q, d) * s + math.fsum(gs)))
    return values


class TestArrayPass:
    @pytest.mark.parametrize("q", LADDER_QS)
    def test_verdicts_match_scalar_loops(self, q):
        for n in (2, 10, underflow_edge(q) - 1):
            for beta in BETA_CLASSES:
                params = NeumannParams(q, beta)
                y0 = y0_of(q, beta, n)
                res = verify_cy2n(params, n)
                ref = scalar_derivatives(eigen_assembly(params, n, y0))
                zero_tol = 1e-9 * math.pi / (4.0 * n * (q**n / n)) * eval_pq(q, 0.0)
                holds, epsilon, pattern, signs = classify_sign_pattern(ref, zero_tol)
                assert (res.holds, res.epsilon, res.pattern, res.signs, res.zero_tol) == \
                    (holds, epsilon, pattern, signs, zero_tol), (q, beta, n)
                scale = max(abs(v) for v in ref)
                assert all(abs(u - v) <= ARRAY_PASS_REL_BOUND * scale
                           for u, v in zip(res.derivatives, ref)), (q, beta, n)

    def test_blocks_cover_every_midpoint(self):
        # 2n = 150 midpoints span three blocks; the one-midpoint calls agree
        params = NeumannParams(0.2, 0.37)
        n = 75
        y0 = y0_of(0.2, 0.37, n)
        res = verify_cy2n(params, n)
        assembly = eigen_assembly(params, n, y0)
        assert len(res.derivatives) == 2 * n
        for k in (1, 64, 65, 128, 129, 150):
            assert res.derivatives[k - 1] == assembly.derivative_pq(k)[0]


class TestUnderflowEdge:
    # at q = 0.01, |lambda_n|^2 ~ (2 q^n / n^2)^2 is zero in double from n = 80 on
    PARAMS = NeumannParams(0.01, 0.0)

    def test_verify_names_the_limit(self):
        with pytest.raises(UnderflowLimit, match=r"n=90 \(q\^n/n = "):
            verify_cy2n(self.PARAMS, 90)

    def test_single_midpoint_routes_name_the_limit(self):
        y0 = y0_of(0.01, 0.0, 90)
        with pytest.raises(UnderflowLimit):
            derivative_pq(self.PARAMS, 90, y0, 1)
        with pytest.raises(UnderflowLimit):
            derivative_eigen(self.PARAMS, 90, y0, 1)

    def test_last_n_before_the_edge_still_verifies(self):
        q = 0.01
        res = verify_cy2n(NeumannParams(q, 0.0), underflow_edge(q) - 1)
        assert res.holds
