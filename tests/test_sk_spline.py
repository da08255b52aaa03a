"""Eigenvalue paths, the fundamental-spline solve, derivative representations,
and the sign-condition verifier, cross-validated against one another."""

import cmath
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_widths import sk_spline
from neumann_widths import (DEFAULT_POLICY, NeumannParams, Partition2n,
                            SignDegenerate, SingularSystem, UnderflowLimit,
                            classify_sign_pattern, derivative_eigen, derivative_pq,
                            eigen_assembly, eval_bernoulli, eval_pq, lambda_finite_sum,
                            lambda_fourier, solve_fundamental_spline, solve_theta,
                            verify_cy2n)
from neumann_widths.kernels import TWO_PI, _certified_sum, _pq_terms
from neumann_widths.thresholds import check_tail_condition, gamma_budget


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
        assert abs(lam) > 0.0

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
    def test_exact_residual_rounds_the_exact_sum_once(self):
        # entries and unknowns over ten and thirteen decades; every other rhs
        # is the float dot product, so the residual lives in its rounding
        rng = random.Random(7)
        for trial in range(400):
            size = rng.randint(1, 41)
            row = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-5, 5) for _ in range(size)]
            x = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 10) for _ in range(size)]
            b = sum(r * v for r, v in zip(row, x)) if trial % 2 else rng.uniform(-1.0, 1.0)
            exact = Fraction(b) - sum(Fraction(r) * Fraction(v) for r, v in zip(row, x))
            assert sk_spline._exact_residual(row, x, b) == float(exact)

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

    @pytest.mark.parametrize("q,beta,n", [(0.2, 0.0, 13), (0.26, 1.63, 268)])
    def test_verdict_holds_python_numbers(self, q, beta, n):
        # a numpy bool_ or int64 here would print as "True" in sweep CSV cells
        res = verify_cy2n(NeumannParams(q, beta), n)
        assert type(res.holds) is bool and type(res.epsilon) is int
        for field in (res.pattern, res.signs, res.derivatives):
            assert type(field) is tuple
        assert all(type(e) is int for e in res.pattern + res.signs)
        assert all(type(d) is float for d in res.derivatives)


def reference_classify(values, zero_tol):
    """classify_sign_pattern as generator loops over the entries: the form
    the array classification replaced, kept as its reference."""
    signs = tuple(0 if abs(v) <= zero_tol else (1 if v > 0 else -1) for v in values)
    epsilon = 0
    for k, s in enumerate(signs):
        if s != 0:
            epsilon = s if k % 2 == 0 else -s
            break
    if epsilon == 0:
        return True, 1, tuple(0 for _ in signs), signs
    holds = all(s == 0 or s == (epsilon if k % 2 == 0 else -epsilon)
                for k, s in enumerate(signs))
    return holds, epsilon, tuple(abs(s) for s in signs), signs


CLASSIFY_TOL = 1e-9
# entries at and around the classification edges, besides arbitrary floats
CLASSIFY_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, CLASSIFY_TOL, -CLASSIFY_TOL,
                  math.nextafter(CLASSIFY_TOL, math.inf), math.nextafter(-CLASSIFY_TOL, -math.inf),
                  5e-324, 1.0, -1.0)


class TestSignClassifier:
    @given(st.lists(st.one_of(st.sampled_from(CLASSIFY_EDGES), st.floats()),
                    min_size=1, max_size=64),
           st.sampled_from([list, tuple, np.array]),
           st.sampled_from([CLASSIFY_TOL, 0.0, math.inf]))
    @settings(max_examples=400, deadline=None)
    def test_matches_generator_reference(self, values, container, zero_tol):
        got = classify_sign_pattern(container(values), zero_tol)
        assert got == reference_classify(values, zero_tol)
        holds, epsilon, pattern, signs = got
        assert type(holds) is bool and type(epsilon) is int
        assert type(pattern) is tuple and type(signs) is tuple
        assert all(type(e) is int for e in pattern + signs)

    def test_all_zero_and_empty(self):
        for values in ([], [0.0, -0.0, CLASSIFY_TOL]):
            got = classify_sign_pattern(np.array(values), CLASSIFY_TOL)
            assert got == reference_classify(values, CLASSIFY_TOL)
            assert got[:2] == (True, 1)


# q from a subnormal-producing 1e-300 up to 1 - 1e-6, and exponents up to
# 2e5, so that many powers underflow to subnormals or to zero
COEF_QS = (1e-300, 1e-20, 0.01, 0.05, 0.123457, 0.195, 0.26, 0.5, 0.7, 0.9, 0.99, 0.999,
           0.999999)
COEF_KS = np.array(list(range(1, 3001)) + list(range(3001, 200_001, 97)) + [200_000])


class TestCoefficientRow:
    @pytest.mark.parametrize("q", COEF_QS)
    def test_bit_for_bit_the_scalar_power(self, q):
        # the decomposition is bit for bit the scalar one only if every
        # q^k/k^2 is Python's q**k / k / k, including in the subnormal range
        got = sk_spline._coef(q, COEF_KS)
        ref = np.array([q**i / i / i for i in COEF_KS.tolist()])
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# The q at the low end of each cy2n-ladder stratum of the benchmark, one beta
# per beta class (0, a non-integer in (0, 1), 1, a non-integer in (1, 2)),
# and n from 2 up to E - 1, the last n before |lambda_n|^2 underflows.
LADDER_QS = (0.05, 0.12, 0.19, 0.26)
BETA_CLASSES = (0.0, 0.37, 1.0, 1.63)
# the array pass against 40-digit sums over the scalar loops' decomposition:
# bound on |d_array - d_exact| relative to max_k |d_k| (the verify_cy2n
# docstring)
ARRAY_PASS_REL_BOUND = 1e-15
# the P_q route (derivative_pq) against the verifier's pass: bound on their
# difference relative to max_k |d_k|.  Measured: at most 3.5e-15, at q up to
# 0.99 and n up to 300; cos(j d) at a rounded offset d errs by about j |d - d_k|
PQ_ROUTE_REL_BOUND = 1e-14
PQ_ROUTE_POINTS = ((0.2, 0.37, 75), (0.26, 1.63, 268), (0.9, 0.0, 119))


def underflow_edge(q):
    """Smallest n at which (2 q^n / n^2)^2, the scale of |lambda_n|^2,
    underflows to zero."""
    n = 2
    while (2.0 * q**n / n**2) ** 2 != 0.0:
        n += 1
    return n


def scalar_decomposition(params, n, y, abs_tol=DEFAULT_POLICY.abs_tol):
    """r1_j, r_j, |lambda_{n-j}| and R_j from a per-j loop with two scalar
    compensated sums per r1 tail, each stopping at its own lane's tail: the
    loop the array construction replaced, kept as its reference."""
    q, psi = params.q, params.psi
    arg = n * y - params.beta_mod4 * math.pi / 2.0
    s = math.copysign(1.0, math.sin(arg))
    phase1 = (params.beta_mod4 + 1.0) * math.pi / 2.0
    ratio = q ** (2 * n)

    def tail_terms(j, f, lo_sign):
        for m in itertools.count(2):
            t_hi = psi((2 * m + 1) * n - j) / ((2 * m + 1) * n - j)
            t_lo = psi((2 * m - 1) * n + j) / ((2 * m - 1) * n + j)
            yield (t_hi * f((2 * m + 1) * n * y - phase1)
                   + lo_sign * t_lo * f((2 * m - 1) * n * y - phase1),
                   (t_hi + t_lo) * ratio / max(1.0 - ratio, 1e-300))

    r1s, rs, lams, Rs = [], [], [], []
    for j in range(n):
        parts = []
        for f, lo_sign in ((math.cos, 1.0), (math.sin, -1.0)):
            first = psi(3 * n - j) / (3 * n - j) * f(3 * n * y - phase1)
            parts.append(sum(_certified_sum(tail_terms(j, f, lo_sign), abs_tol,
                                            DEFAULT_POLICY, "r1", start=first)))
        a = psi(n - j) / (n - j)
        b = psi(n + j) / (n + j)
        r1 = complex(*parts)
        r = r1 + 1j * (b - a) * math.cos(arg) + (a + b) * (abs(math.sin(arg)) - 1.0) * s
        lam_abs = abs((a + b) * s + r)
        r1s.append(r1)
        rs.append(r)
        lams.append(lam_abs)
        Rs.append(lam_abs - a - b)
    return SimpleNamespace(n=n, q=q, y=y, s=s, psi_n=q**n / n, r1=r1s, r=rs,
                           lam_abs=lams, R=Rs)


def scalar_derivatives(a):
    """Midpoint derivatives via P_q from per-midpoint scalar j-loops (fsum
    gamma_1, gamma_3 and gamma_4, a compensated strip tail and eval_pq): the
    loops the array pass replaced, kept as its reference.  ``a`` is an
    eigen_assembly or a scalar_decomposition."""
    n, q, s, psi_n = a.n, a.q, a.s, a.psi_n
    root = math.isqrt(n)
    inv_scale = psi_n / n
    cos_half = [math.cos(j * math.pi / (2 * n)) for j in range(n)]
    delta = [n * a.lam_abs[j] * cos_half[j] / ((q**-j + q**j) * psi_n) - 1.0
             for j in range(root + 1)]
    x = a.R[0] * n / psi_n
    g2 = -x / (2.0 * (2.0 + x)) * s
    values = []
    for k in range(1, 2 * n + 1):
        d = k * math.pi / n - math.pi / (2 * n) - a.y

        def z(j):
            c = math.cos(j * d)
            if abs(a.r[j]) <= 1e-300:
                return -a.R[j] * c * s
            return abs(a.r[j]) * math.cos(j * d + cmath.phase(a.r[j])) - a.R[j] * c * s

        g1 = psi_n / n * math.fsum(
            [z(0) / a.lam_abs[0] ** 2]
            + [2.0 * z(j) / (a.lam_abs[j] ** 2 * cos_half[j]) for j in range(1, n)])
        g3 = 2.0 * s * math.fsum(math.cos(j * d) * inv_scale / (a.lam_abs[j] * cos_half[j])
                                 for j in range(root + 1, n))
        g4 = -2.0 * s * math.fsum(delta[j] * math.cos(j * d) * inv_scale
                                  / (a.lam_abs[j] * cos_half[j]) for j in range(1, root + 1))
        strip = ((2.0 * math.cos(j * d) / (q**j + q**-j), 2.0 * q ** (j + 1) / (1.0 - q))
                 for j in itertools.count(root + 1))
        tail = sum(_certified_sum(strip, DEFAULT_POLICY.abs_tol, DEFAULT_POLICY, "strip"))
        gs = (g1, g2, g3, g4, -s * tail)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        values.append(sign_k * math.pi / (4.0 * n * psi_n)
                      * (eval_pq(q, d) * s + math.fsum(gs)))
    return values


def verdict_of(derivatives, q, n):
    """classify_sign_pattern at verify_cy2n's default zero_tol."""
    zero_tol = 1e-9 * math.pi / (4.0 * n * (q**n / n)) * eval_pq(q, 0.0)
    return (*classify_sign_pattern(derivatives, zero_tol), zero_tol)


def ladder(q):
    """The benchmark's cy2n-ladder rungs at q: 9 rungs spaced geometrically
    from n = 10 to E - 1."""
    top = underflow_edge(q) - 1
    step = (top / 10) ** (1.0 / 8)
    return [int(round(10 * step**k)) for k in range(8)] + [top]


def blocked_derivatives(a, block=64):
    """Midpoint derivatives via P_q with gamma_1, gamma_3 and gamma_4 as row
    sums over (midpoints x n) cosine blocks of at most ``block`` midpoints at
    the float offsets t_k - y: the pass the FFT replaced, kept as its
    reference.  ``a`` is an eigen_assembly."""
    n, q, s = a.n, a.q, a.s
    root = math.isqrt(n)
    psi_over_n = a.psi_n / n
    j = np.arange(n)
    cos_half = np.cos(j * math.pi / (2 * n))
    lam_cos, lam2_cos = a.lam_abs * cos_half, a.lam_abs**2 * cos_half
    weight = np.where(j == 0, 1.0, 2.0)
    kept = np.abs(a.r) > 1e-300
    r_abs, r_phase = np.where(kept, np.abs(a.r), 0.0), np.where(kept, np.angle(a.r), 0.0)
    delta = np.array([a.delta(i) for i in range(1, root + 1)])
    ks = range(1, 2 * n + 1)
    d = np.array([a.midpoint(k) for k in ks]) - a.y
    g1, g3, g4 = [], [], []
    for lo in range(0, 2 * n, block):
        jd = np.multiply.outer(d[lo:lo + block], j)
        c = np.cos(jd)
        z = r_abs * np.cos(jd + r_phase) - a.R * c * s
        g1 += (psi_over_n * (weight * z / lam2_cos).sum(axis=1)).tolist()
        g3 += (2.0 * s * (c[:, root + 1:] * psi_over_n
                          / lam_cos[root + 1:]).sum(axis=1)).tolist()
        g4 += [-2.0 * s * math.fsum(row) for row in
               (delta * c[:, 1:root + 1] * psi_over_n / lam_cos[1:root + 1]).tolist()]
    tol = DEFAULT_POLICY.abs_tol
    strip = sum(_certified_sum(_pq_terms(q, d, root + 1, np.cos), tol, DEFAULT_POLICY, "strip"))
    pq = sum(_certified_sum(_pq_terms(q, np.fmod(d, TWO_PI), 1, np.cos), tol, DEFAULT_POLICY,
                            "pq", start=0.5))
    x = a.R[0] * n / a.psi_n
    g2 = -x / (2.0 * (2.0 + x)) * s
    return [(1.0 if k % 2 == 1 else -1.0) * math.pi / (4.0 * n * a.psi_n)
            * (p * s + math.fsum(gs))
            for k, p, gs in zip(ks, pq.tolist(), zip(g1, itertools.repeat(g2), g3, g4,
                                                     (-s * strip).tolist()))]


class TestArrayPass:
    @pytest.mark.parametrize("q", LADDER_QS)
    def test_verdicts_match_scalar_loops(self, q):
        # the reference is scalar throughout: per-j decomposition, then
        # per-midpoint sums.  The derivatives are held to 40-digit sums over
        # that decomposition's floats at the exact offsets: the scalar loops
        # take cos(j d) at rounded offsets d, which alone errs by up to
        # 1.02e-15 max_k |d_k| at (0.26, 0, 268).  Below n = 10 the r1 lanes
        # may add a term their own tails did not need, so there the sums run
        # over the assembly's own decomposition.
        for n in (2, 10, underflow_edge(q) - 1):
            for beta in BETA_CLASSES:
                params = NeumannParams(q, beta)
                y0 = y0_of(q, beta, n)
                res = verify_cy2n(params, n)
                decomposition = scalar_decomposition(params, n, y0)
                assert (res.holds, res.epsilon, res.pattern, res.signs, res.zero_tol) == \
                    verdict_of(scalar_derivatives(decomposition), q, n), (q, beta, n)
                if n < 10:
                    decomposition = eigen_assembly(params, n, y0)
                with mp.workdps(40):
                    ref = direct_derivatives(decomposition)
                    scale = max(abs(v) for v in ref)
                    assert all(abs(u - v) <= ARRAY_PASS_REL_BOUND * scale
                               for u, v in zip(res.derivatives, ref)), (q, beta, n)

    def test_single_midpoint_routes_read_the_same_pass(self):
        # derivative_eigen(k) reads midpoint k of the verifier's FFT pass
        params = NeumannParams(0.2, 0.37)
        n = 75
        y0 = y0_of(0.2, 0.37, n)
        res = verify_cy2n(params, n)
        assembly = eigen_assembly(params, n, y0)
        assert len(res.derivatives) == 2 * n
        for k in range(1, 2 * n + 1):
            assert res.derivatives[k - 1] == assembly.derivative_eigen(k), k

    @pytest.mark.parametrize("q,beta,n", PQ_ROUTE_POINTS)
    def test_pq_route_matches_the_pass(self, q, beta, n):
        # derivative_pq sums P_q and its corrections at the float offset d,
        # the verifier the eigen form from one FFT; the two stay within
        # PQ_ROUTE_REL_BOUND * max_k |d_k| at every midpoint
        params = NeumannParams(q, beta)
        res = verify_cy2n(params, n)
        assembly = eigen_assembly(params, n, y0_of(q, beta, n))
        scale = max(abs(v) for v in res.derivatives)
        for k in range(1, 2 * n + 1):
            assert abs(assembly.derivative_pq(k)[0] - res.derivatives[k - 1]) \
                <= PQ_ROUTE_REL_BOUND * scale, k

    @pytest.mark.parametrize("q", LADDER_QS)
    def test_ladder_verdicts_match_blocked_pass(self, q):
        for beta in BETA_CLASSES:
            params = NeumannParams(q, beta)
            for n in ladder(q):
                res = verify_cy2n(params, n)
                ref = blocked_derivatives(eigen_assembly(params, n, y0_of(q, beta, n)))
                assert (res.holds, res.epsilon, res.pattern, res.signs, res.zero_tol) == \
                    verdict_of(ref, q, n), (q, beta, n)


# gamma_1 and gamma_3 of the FFT pass, and the verifier's derivatives,
# against 40-digit direct sums over the same float inputs (r_j, R_j, s,
# psi(n)/n and the divisors |lambda_{n-j}|^2 cos(j pi/2n) and
# |lambda_{n-j}| cos(j pi/2n), the first subnormal at the top rung), at the
# exact offsets (k - 1/2)pi/n - y.  The largest errors measured at these
# points are 5.0e-16 sum_j |c_j| for the gammas (the _g13 docstring) and
# 4.1e-16 max_k |d_k| for the derivatives (the verify_cy2n docstring)
FFT_REL_BOUND = 1e-15
FFT_POINTS = ((LADDER_QS[-1], BETA_CLASSES[-1], underflow_edge(LADDER_QS[-1]) - 1),
              (0.9, 0.0, 119), (0.95, 0.5, 239))


def direct_sums(a, rows):
    """For each row of coefficients c_j, j = 0..n-1 (mpmath numbers), the
    40-digit sums Re sum_j c_j e^(i j (t_k - y)) at k = 1..2n and sum_j |c_j|,
    with e^(i j t_k) taken from the exact 4n-th roots of unity."""
    n = a.n
    with mp.workdps(40):
        cos = [mp.cospi(mp.mpf(m) / (2 * n)) for m in range(4 * n)]
        sin = [mp.sinpi(mp.mpf(m) / (2 * n)) for m in range(4 * n)]
        out = []
        for c in rows:
            twisted = [mp.mpc(cj) * mp.expj(-j * mp.mpf(a.y)) for j, cj in enumerate(c)]
            re, im = [t.real for t in twisted], [t.imag for t in twisted]
            sums = []
            for k in range(1, 2 * n + 1):
                m = [j * (2 * k - 1) % (4 * n) for j in range(n)]
                sums.append(mp.fdot(re, [cos[i] for i in m]) - mp.fdot(im, [sin[i] for i in m]))
            out.append((sums, sum(abs(cj) for cj in c)))
        return out


def direct_coefficients(a):
    """gamma_1's c_j and the main coefficients e_j = 2 s (psi(n)/n)/(|lambda_{n-j}|
    cos(j pi/2n)), j >= 1, in 40 digits over the float inputs of ``a`` (an
    eigen_assembly or a scalar_decomposition), with the divisors formed in
    floats as the assembly forms them."""
    n, s = a.n, a.s
    psi = a.psi_n / n
    lam_abs = np.asarray(a.lam_abs)
    cos_half = np.cos(np.arange(n) * math.pi / (2 * n))
    lam_cos, lam2_cos = (lam_abs * cos_half).tolist(), (lam_abs**2 * cos_half).tolist()
    with mp.workdps(40):
        r = [mp.mpc(complex(v)) if abs(v) > 1e-300 else 0 for v in a.r]
        c = [psi * (1 if j == 0 else 2) * (r[j] - mp.mpf(float(a.R[j])) * s) / lam2_cos[j]
             for j in range(n)]
        e = [2 * s * mp.mpf(psi) / lam_cos[j] if j else mp.mpf(0) for j in range(n)]
        return c, e


def direct_gamma_sums(a):
    """(gamma_1, gamma_3) at t_k, k = 1..2n, and sum_j |c_j| of each."""
    c, e = direct_coefficients(a)
    root = math.isqrt(a.n)
    return direct_sums(a, (c, [v if j > root else mp.mpf(0) for j, v in enumerate(e)]))


def direct_derivatives(a):
    """The midpoint derivatives (-1)^(k+1) pi/(4 n psi(n)) (s/2 + gamma_2 +
    Re sum_j (c_j + e_j) e^(i j (t_k - y))), k = 1..2n, in 40 digits."""
    n = a.n
    c, e = direct_coefficients(a)
    with mp.workdps(40):
        ((sums, _),) = direct_sums(a, ([u + v for u, v in zip(c, e)],))
        x = mp.mpf(float(a.R[0])) * n / a.psi_n
        base = (mp.mpf(1) / 2 - x / (2 * (2 + x))) * a.s
        scale = mp.pi / (4 * n * mp.mpf(a.psi_n))
        return [(1 if k % 2 else -1) * scale * (base + v) for k, v in enumerate(sums, start=1)]


class TestFftPass:
    @pytest.mark.parametrize("q,beta,n", FFT_POINTS)
    def test_gammas_match_40_digit_direct_sums(self, q, beta, n):
        a = eigen_assembly(NeumannParams(q, beta), n, y0_of(q, beta, n))
        gs = [a.gammas(k) for k in range(1, 2 * n + 1)]
        with mp.workdps(40):
            for m, (ref, scale) in zip((0, 2), direct_gamma_sums(a)):
                err = max(abs(g[m] - v) for g, v in zip(gs, ref))
                assert err <= FFT_REL_BOUND * scale, (m + 1, float(err / scale))

    @pytest.mark.parametrize("q,beta,n", FFT_POINTS)
    def test_derivatives_match_40_digit_direct_sums(self, q, beta, n):
        params = NeumannParams(q, beta)
        a = eigen_assembly(params, n, y0_of(q, beta, n))
        res = verify_cy2n(params, n)
        with mp.workdps(40):
            ref = direct_derivatives(a)
            scale = max(abs(v) for v in ref)
            err = max(abs(u - v) for u, v in zip(res.derivatives, ref))
            assert err <= FFT_REL_BOUND * scale, float(err / scale)

    def test_verifier_sums_no_series_over_midpoints(self, monkeypatch):
        # gamma_5's strip tail, summed at one midpoint by derivative_pq, is
        # the only P_q series in this module; the verifier's one FFT needs none
        def no_lanes(*args, **kwargs):
            raise AssertionError("summed P_q terms over midpoint lanes")

        monkeypatch.setattr(sk_spline, "_pq_terms", no_lanes)
        assert verify_cy2n(NeumannParams(0.99, 0.0), 2000).holds
        with pytest.raises(AssertionError):
            derivative_pq(NeumannParams(0.99, 0.0), 20, 0.01, 1)

    def test_ledger_pass_runs_once_per_assembly(self, monkeypatch):
        # gamma_1 and gamma_3 of every midpoint come from one cached FFT
        q, beta, n = 0.2, 0.37, 75
        a = eigen_assembly(NeumannParams(q, beta), n, y0_of(q, beta, n))
        calls = []
        fft = a._fft

        def counted(c):
            calls.append(len(c))
            return fft(c)

        monkeypatch.setattr(a, "_fft", counted)
        gs = [a.gammas(k) for k in range(1, 2 * n + 1)]
        assert calls == [2]
        assert [a.derivative_pq(k)[1].gamma for k in range(1, 2 * n + 1)] == gs
        assert calls == [2]


# criterion 5's grid (tests/test_acceptance.py SMALL_GRID)
SMALL_GRID = [(q, beta, n) for q in (0.2, 0.5) for beta in (0.0, 1.0, 0.3)
              for n in range(2, 9)]
CONSTRUCTION_GRID = ([(q, beta, n) for q in LADDER_QS for beta in BETA_CLASSES
                      for n in (2, 10, underflow_edge(q) - 1)] + SMALL_GRID)
# at n >= 10 every r1 lane needs the same number of terms, so the array
# construction must give the per-j values to this relative bound
CONSTRUCTION_REL_BOUND = 1e-15


def rel_close(u, v):
    return u == v or abs(u - v) <= CONSTRUCTION_REL_BOUND * abs(v)


class TestArrayConstruction:
    @pytest.mark.parametrize("q,beta,n", CONSTRUCTION_GRID)
    def test_decomposition_matches_per_j_loop(self, q, beta, n):
        params = NeumannParams(q, beta)
        y0 = y0_of(q, beta, n)
        got = eigen_assembly(params, n, y0)
        ref = scalar_decomposition(params, n, y0)
        # every r1 lane stops no earlier than its own tail allows
        assert all(abs(u - v) <= DEFAULT_POLICY.abs_tol for u, v in zip(got.r1, ref.r1))
        if n >= 10:
            assert all(rel_close(u, v) for u, v in zip(got.r1, ref.r1))
            assert all(rel_close(u, v) for u, v in zip(got.r, ref.r))
            assert all(rel_close(u, v) for u, v in zip(got.lam_abs, ref.lam_abs))
        if n <= 8:  # the scalar midpoint loops are cheap here
            res = verify_cy2n(params, n)
            assert (res.holds, res.epsilon, res.pattern, res.signs, res.zero_tol) == \
                verdict_of(scalar_derivatives(ref), q, n)

    def test_lambda_fourier_reads_the_assembly_row(self):
        params = NeumannParams(0.3, 0.7)
        n, y = 6, 0.1
        assembly = eigen_assembly(params, n, y)
        for j in range(n):
            lam = lambda_fourier(params, n, j, y)
            assert type(lam) is complex
            assert lam == cmath.exp(-1j * j * y) * complex(assembly.rotated[j])
            assert abs(lam) == pytest.approx(assembly.lam_abs[j], rel=1e-15)

    def test_ledger_holds_python_numbers(self):
        _, ledger = derivative_pq(NeumannParams(0.2, 0.3), 12, y0_of(0.2, 0.3, 12), 3)
        for field in ("r1", "r2", "r", "z", "delta", "R", "r3", "gamma"):
            values = getattr(ledger, field)
            assert isinstance(values, tuple)
            assert all(type(v) in (float, complex) for v in values), field
        assert type(ledger.min_abs_lambda) is float

    def test_every_ledger_reads_its_assembly(self):
        # the midpoint-independent fields are built once per assembly; each
        # ledger must still hold the assembly's own values
        q, beta, n = 0.2, 0.3, 40
        a = eigen_assembly(NeumannParams(q, beta), n, y0_of(q, beta, n))
        for k in (1, 2, 17, 2 * n):
            ledger = a.derivative_pq(k)[1]
            assert (ledger.k, ledger.y, ledger.s) == (k, a.y, a.s)
            for field in ("r1", "r2", "r3", "r", "R"):
                assert getattr(ledger, field) == tuple(getattr(a, field).tolist()), field
            assert ledger.z == tuple(a._z(a.midpoint(k) - a.y).tolist())
            assert ledger.delta == tuple(a.delta(j) for j in range(1, math.isqrt(n) + 1))
            assert ledger.gamma == a.gammas(k)
            assert ledger.gamma_budget == gamma_budget(q, n)
            assert ledger.min_abs_lambda == float(a.lam_abs.min())


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

    def test_vanished_eigenvalue_names_the_limit(self):
        # at n = 300 |lambda_n| itself is zero, not only its square
        y0 = y0_of(0.01, 0.0, 300)
        with pytest.raises(UnderflowLimit, match=r"n=300 \(q\^n/n = "):
            verify_cy2n(self.PARAMS, 300)
        with pytest.raises(UnderflowLimit):
            derivative_pq(self.PARAMS, 300, y0, 1)
        with pytest.raises(UnderflowLimit):
            derivative_eigen(self.PARAMS, 300, y0, 1)

    def test_zero_psi_raises_before_the_arrays(self, monkeypatch):
        # q^n/n is 0.0 at q = 0.5, n = 5000: the assembly names the limit
        # before it builds a coefficient array (its O(n) memory)
        def no_arrays(q, k):
            raise AssertionError("built an O(n) coefficient array")

        monkeypatch.setattr(sk_spline, "_coef", no_arrays)
        params = NeumannParams(0.5, 0.0)
        with pytest.raises(UnderflowLimit, match=r"n=5000 \(q\^n/n = 0\.000e\+00\)"):
            verify_cy2n(params, 5000)
        y = 0.1 * math.pi / 5000
        with pytest.raises(UnderflowLimit):
            eigen_assembly(params, 5000, y)
        with pytest.raises(UnderflowLimit):
            lambda_fourier(params, 5000, 0, y)

    def test_last_n_before_the_edge_still_verifies(self):
        q = 0.01
        res = verify_cy2n(NeumannParams(q, 0.0), underflow_edge(q) - 1)
        assert res.holds
