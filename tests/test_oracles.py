"""Oracle self-checks: the brute-force paths must mirror the certified
evaluators without sharing code with them."""

import itertools
import math
import random

import numpy as np
import pytest

from neumann_widths import (DomainError, NeumannParams, conv_square_wave,
                            eval_neumann, eval_pq, eval_psi_beta1, exact_width,
                            slow_series, solve_theta, supnorm_square_conv,
                            theta_equation_series, theta_sign_scan)
from neumann_widths.policy import _check_n
from neumann_widths.oracles import _SquareConvTable
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

    @pytest.mark.parametrize("refine_tol", [0.0, -1.0, math.inf, math.nan])
    def test_refine_tol_must_be_positive_finite(self, refine_tol):
        with pytest.raises(DomainError, match="refine_tol"):
            supnorm_square_conv(NeumannParams(0.5, 0.3), 5, refine_tol=refine_tol)

    @pytest.mark.parametrize("refine_tol", [1e-300, 5e-324])
    @pytest.mark.parametrize("q,beta,n", [(0.5, 0.3, 5), (0.5, 1.0, 1)])
    def test_refine_tol_below_float_spacing_ends(self, monkeypatch, refine_tol, q, beta, n):
        # the bracket stops narrowing at its ends' float spacing; the table
        # evaluations are capped so that a loop that never ends fails
        calls = []
        abs_phi = _SquareConvTable.abs_phi

        def capped(table, points):
            calls.append(None)
            assert len(calls) < 5000, "golden-section loop did not end"
            return abs_phi(table, points)
        monkeypatch.setattr(_SquareConvTable, "abs_phi", capped)
        params = NeumannParams(q, beta)
        max_abs, _ = supnorm_square_conv(params, n, refine_tol=refine_tol)
        assert max_abs == pytest.approx(exact_width(params, n).width, abs=1e-10)


# The sup-norm oracle as it was before the term table: the whole (terms, grid)
# array for the grid, and one rebuilt table per golden-section probe.  Kept
# verbatim as the reference the table must reproduce bit for bit.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _square_conv_series(params, n, t):
    q = params.q
    phase = params.beta_mod4 * (math.pi / 2.0)
    a = q**n
    if a == 0.0:
        return np.zeros_like(t)
    terms = max(2, int(math.ceil((-52.0 * math.log(2.0)) / (2 * n * math.log(q)))) + 1)
    nu = np.arange(terms)[:, None]
    coef = q ** ((2 * nu + 1) * n) / (n * (2 * nu + 1) ** 2)
    vals = coef * np.sin((2 * nu + 1) * n * t[None, :] - phase)
    return (4.0 / math.pi) * vals.sum(axis=0)


def _abs_phi(params, n, t):
    return float(abs(_square_conv_series(params, n, np.array([t]))[0]))


def reference_supnorm(params, n, grid_points=4096, refine_tol=1e-13):
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    _check_n(n)
    period = math.pi / n
    grid = np.linspace(0.0, period, grid_points, endpoint=False)
    vals = np.abs(_square_conv_series(params, n, grid))
    best = int(np.argmax(vals))
    h = period / grid_points
    a = grid[best] - h
    b = grid[best] + h

    fa_c = fa_d = None
    while b - a > refine_tol:
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fa_c = _abs_phi(params, n, c)
        fa_d = _abs_phi(params, n, d)
        if fa_c >= fa_d:
            b = d
        else:
            a = c
    t_star = 0.5 * (a + b)

    # parabolic vertex from a stencil wide enough to clear rounding noise
    hh = max(1e-6 * period, refine_tol)
    f_m = _abs_phi(params, n, t_star - hh)
    f_0 = _abs_phi(params, n, t_star)
    f_p = _abs_phi(params, n, t_star + hh)
    denom = f_m - 2.0 * f_0 + f_p
    if denom < 0.0:
        shift = 0.5 * hh * (f_m - f_p) / denom
        if abs(shift) <= hh:
            t_star = t_star + shift
    max_abs = max(f_0, _abs_phi(params, n, t_star))
    return float(max_abs), float(t_star % period)


def reference_grid(params, n, grid_points, block=1 << 20):
    """The reference's |Phi| grid, a few columns at a time to bound memory."""
    grid = np.linspace(0.0, math.pi / n, grid_points, endpoint=False)
    terms = max(1, len(_SquareConvTable(params, n).coef))
    step = max(1, block // terms)
    return grid, np.concatenate([np.abs(_square_conv_series(params, n, grid[i:i + step]))
                                 for i in range(0, grid_points, step)])


def _reference_points(count=120, seed=14):
    rng = random.Random(seed)
    points = []
    for i in range(count):
        beta = float(rng.randrange(-2, 5)) if i % 3 == 0 else round(rng.uniform(-3.0, 5.0), 4)
        points.append((round(rng.uniform(0.01, 0.98), 6), beta, rng.randint(1, 100)))
    return points


SUPNORM_POINTS = _reference_points()


class TestSupnormMatchesReference:
    """The term table, the FFT-located grid peak and the paired golden
    probes give the reference's (max, argmax) tuple exactly."""

    @pytest.mark.parametrize("grid_points", [64, 1000, 4096])
    @pytest.mark.parametrize("refine_tol", [1e-9, 1e-13])
    def test_seeded_points(self, grid_points, refine_tol):
        for q, beta, n in SUPNORM_POINTS:
            params = NeumannParams(q, beta)
            assert supnorm_square_conv(params, n, grid_points, refine_tol) \
                == reference_supnorm(params, n, grid_points, refine_tol), (q, beta, n)

    @pytest.mark.parametrize("n", [1100, 10**20])
    def test_underflow_table_is_empty(self, n):
        params = NeumannParams(0.5, 0.3)
        assert len(_SquareConvTable(params, n).coef) == 0
        assert supnorm_square_conv(params, n) == reference_supnorm(params, n)

    def test_aliased_harmonics(self):
        params = NeumannParams(0.999, 0.5)
        assert len(_SquareConvTable(params, 1).coef) > 2 * 64
        assert supnorm_square_conv(params, 1, 64) == reference_supnorm(params, 1, 64)


class TestGridPeak:
    @pytest.mark.parametrize("q,beta,n,grid_points", [
        (0.3, 0.5, 3, 4096), (0.9, 1.7, 1, 4096), (0.99, 0.0, 1, 1000),
        (0.999, 1.0, 1, 1000), (0.9999, 0.5, 1, 128), (0.9999, 2.9, 1, 64)])
    def test_fft_grid_within_a_thousandth_of_the_margin(self, q, beta, n, grid_points):
        params = NeumannParams(q, beta)
        table = _SquareConvTable(params, n)
        _, direct = reference_grid(params, n, grid_points)
        assert np.max(np.abs(table.fft_grid(grid_points) - direct)) \
            <= 1e-12 * table.coef.sum()

    @pytest.mark.parametrize("q,beta,n,grid_points", [
        (0.611, 0.0, 12, 101), (0.806, 0.0, 4, 1001), (0.862, 0.0, 1, 65),
        (0.7914, 2.0, 1, 65), (0.149, 1.337, 8, 1000)])
    def test_peak_between_two_grid_points(self, q, beta, n, grid_points):
        params = NeumannParams(q, beta)
        table = _SquareConvTable(params, n)
        grid, direct = reference_grid(params, n, grid_points)
        fft = table.fft_grid(grid_points)
        near = np.flatnonzero(fft >= fft.max() - 1e-9 * (4.0 / math.pi) * table.coef.sum())
        assert len(near) >= 2
        assert table.grid_argmax(grid) == np.argmax(direct)

    def test_first_index_of_the_direct_maximum_wins(self, monkeypatch):
        """Any estimate within half the margin of the direct grid, in any
        order, gives ``np.argmax`` of the direct grid."""
        table = _SquareConvTable(NeumannParams(0.5, 0.3), 2)
        grid = np.linspace(0.0, math.pi / 2, 64, endpoint=False)
        top = (4.0 / math.pi) * table.coef.sum()
        margin = 1e-9 * top
        direct = np.full(64, 0.5 * top)
        direct[6:10] = top - 0.3 * margin, top, top, top - 0.2 * margin
        estimate = direct.copy()
        estimate[6:10] += np.array([0.45, -0.45, 0.45, 0.45]) * margin
        monkeypatch.setattr(table, "fft_grid", lambda points: estimate)
        monkeypatch.setattr(table, "_abs_phi_columns",
                            lambda t: direct[np.searchsorted(grid, t)])
        assert table.grid_argmax(grid) == 7

    @pytest.mark.parametrize("q,beta,n", [(0.5, 0.3, 8), (0.95, 1.2, 2), (0.999, 0.0, 1)])
    def test_column_subset_rounds_as_the_full_grid(self, q, beta, n):
        params = NeumannParams(q, beta)
        table = _SquareConvTable(params, n)
        grid, direct = reference_grid(params, n, 1000)
        rng = np.random.default_rng(n)
        for size in (1, 2, 3, 7, 40):
            cols = np.sort(rng.choice(1000, size, replace=False))
            assert np.array_equal(table._abs_phi_columns(grid[cols]), direct[cols])


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
