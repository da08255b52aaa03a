"""Brute-force oracles, deliberately independent of the formula paths they
validate: dense-grid sup-norm search with golden-section refinement, dense
sign scans of the theta equation, and plain uncompensated series summation.

The sup-norm search builds its term table once per call.  An FFT only
locates the best grid cell; every value it compares or reports is a plain
direct sum over that table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .kernels import NeumannParams
from .policy import _check_n, _check_oracle_grid

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_RECHECK_BLOCK = 1 << 18  # elements in one (terms, grid points) block of the grid recheck


class _SquareConvTable:
    """The terms of Phi(t) = (4/pi) sum_nu c_nu sin((2nu+1)n t - beta*pi/2),
    c_nu = q^((2nu+1)n)/(n(2nu+1)^2), built once per oracle call.

    The term count is fixed from the geometric tail, and every value is a
    plain numpy reduction over it; no shared code with the certified scalar
    evaluator.  When q^n underflows the table is empty and Phi is 0.
    """

    def __init__(self, params: NeumannParams, n: int):
        q = params.q
        self.phase = params.beta_mod4 * (math.pi / 2.0)
        if q**n == 0.0:
            self.odd = self.mult = np.zeros(0, dtype=np.int64)
            self.coef = np.zeros(0)
            return
        terms = max(2, int(math.ceil((-52.0 * math.log(2.0)) / (2 * n * math.log(q)))) + 1)
        self.odd = 2 * np.arange(terms) + 1
        self.mult = self.odd * n
        self.coef = q ** self.mult / (n * self.odd ** 2)

    def abs_phi(self, points) -> np.ndarray:
        """|Phi| at each point, each a pairwise sum along one contiguous row of
        terms, as numpy sums a single (terms, 1) column."""
        t = np.asarray(points, dtype=float)[:, None]
        return np.abs((4.0 / math.pi) * (self.coef * np.sin(self.mult * t - self.phase)).sum(axis=1))

    def _abs_phi_columns(self, t: np.ndarray) -> np.ndarray:
        """|Phi| at grid points t, the terms added in row order as the
        (terms, grid) reduction ``.sum(axis=0)`` adds them; the same call on a
        column subset rounds differently, a running sum down the rows does not."""
        if not len(self.coef):
            return np.zeros(len(t))
        rows = self.coef[:, None] * np.sin(self.mult[:, None] * t - self.phase)
        return np.abs((4.0 / math.pi) * np.cumsum(rows, axis=0)[-1])

    def fft_grid(self, grid_points: int) -> np.ndarray:
        """|Phi| at t_k = k*pi/(nG), k < G = grid_points, from one FFT.

        On that grid (2nu+1)n t_k = 2pi k(2nu+1)/2G, so with the coefficients
        folded onto the bins (2nu+1) mod 2G and F their length-2G real FFT,
        F_k = sum_j a_j e^(-2pi i jk/2G), |Phi_k| is
        (4/pi)|cos(phase) Im F_k + sin(phase) Re F_k|, to within about
        1e-15 * (4/pi) sum c_nu.
        """
        size = 2 * grid_points
        folded = np.bincount(self.odd % size, weights=self.coef, minlength=size)
        spectrum = np.fft.rfft(folded)[:grid_points]
        return np.abs((4.0 / math.pi) * (math.cos(self.phase) * spectrum.imag
                                         + math.sin(self.phase) * spectrum.real))

    def grid_argmax(self, grid: np.ndarray) -> int:
        """``np.argmax`` of the direct |Phi| over grid = k*pi/(nG), k < G, in
        O(T + G) memory.

        The FFT only locates the peak: each point within 1e-9 * (4/pi) sum c_nu
        of the FFT maximum, a thousand times the FFT's error, is summed again
        directly, and the first one reaching the largest direct value wins.
        """
        approx = self.fft_grid(len(grid))
        margin = 1e-9 * (4.0 / math.pi) * self.coef.sum()
        near = np.flatnonzero(approx >= approx.max() - margin)
        step = max(1, _RECHECK_BLOCK // max(1, len(self.coef)))
        exact = np.concatenate([self._abs_phi_columns(grid[near[i:i + step]])
                                for i in range(0, len(near), step)])
        return int(near[np.argmax(exact)])


def supnorm_square_conv(params: NeumannParams, n: int, grid_points: int = 4096,
                        refine_tol: float = 1e-13) -> tuple[float, float]:
    """(max |Phi|, argmax) over one half-period [0, pi/n).

    Uniform grid, then golden-section refinement around the best cell
    (|Phi| is pi/n-periodic, so the bracket may wrap), then one parabolic
    polish of the argmax with a wider stencil -- near the flat peak the
    golden comparisons run inside rounding noise, the parabola does not.

    An FFT only locates the best grid cell; every value the search compares
    or reports is a plain direct sum over the term table, so the oracle
    stays independent of the certified paths.  Each golden pair, and the
    parabola's stencil, is one evaluation of the table.

    ``refine_tol`` must be a positive finite number.  The refinement also
    stops once a step no longer narrows the bracket, as happens when
    ``refine_tol`` is below the float spacing of the bracket's ends.
    """
    _check_oracle_grid(grid_points, refine_tol)
    _check_n(n)
    table = _SquareConvTable(params, n)
    period = math.pi / n
    grid = np.linspace(0.0, period, grid_points, endpoint=False)
    best = table.grid_argmax(grid)
    h = period / grid_points
    a = grid[best] - h
    b = grid[best] + h

    width = b - a
    while width > refine_tol:
        c = b - _INV_PHI * width
        d = a + _INV_PHI * width
        fa_c, fa_d = table.abs_phi((c, d)).tolist()
        if fa_c >= fa_d:
            b = d
        else:
            a = c
        if not b - a < width:  # rounding stalled the step
            break
        width = b - a
    t_star = 0.5 * (a + b)

    # parabolic vertex from a stencil wide enough to clear rounding noise
    hh = max(1e-6 * period, refine_tol)
    f_m, f_0, f_p = table.abs_phi((t_star - hh, t_star, t_star + hh)).tolist()
    denom = f_m - 2.0 * f_0 + f_p
    if denom < 0.0:
        shift = 0.5 * hh * (f_m - f_p) / denom
        if abs(shift) <= hh:
            t_star = t_star + shift
    (f_star,) = table.abs_phi((t_star,)).tolist()
    max_abs = max(f_0, f_star)
    return float(max_abs), float(t_star % period)


def theta_equation_series(params: NeumannParams, n: int, theta: float,
                          terms: int | None = None) -> float:
    """Plain partial sum of the theta-equation left side."""
    q = params.q
    phase = params.beta_mod4 * (math.pi / 2.0)
    if terms is None:
        ratio = q ** (2 * n)
        terms = max(2, int(math.ceil(-40.0 * math.log(10.0) / (2 * n * math.log(q)))) + 1) \
            if ratio > 0.0 else 2
    total = 0.0
    for nu in range(terms):
        total += q ** (2 * nu * n) / (2 * nu + 1) \
            * math.cos((2 * nu + 1) * theta * math.pi - phase)
    return total


def theta_sign_scan(params: NeumannParams, n: int, points: int = 100_000,
                    zero_tol: float = 1e-10) -> list[tuple[float, float]]:
    """All sign-change intervals of the theta equation over a dense grid of
    [0, 1); grid points where the left side is below zero_tol are reported as
    degenerate (a, a) intervals.  Expected cardinality <= 1.
    """
    if points < 1000:
        raise DomainError(f"points must be >= 1000, got {points}")
    thetas = [i / points for i in range(points)]
    vals = [theta_equation_series(params, n, th) for th in thetas]
    out: list[tuple[float, float]] = []
    prev_sign = 0
    for th, v in zip(thetas, vals):
        if abs(v) <= zero_tol:
            out.append((th, th))
            prev_sign = 0
            continue
        s = 1 if v > 0 else -1
        if prev_sign != 0 and s != prev_sign:
            out.append((prev_th, th))
        prev_sign, prev_th = s, th
    return out


def slow_series(coefficient, phase: float, t: float, terms: int) -> float:
    """Left-to-right partial sum of sum_k coefficient(k) * cos(k t - phase),
    with no compensation and no tail control; reference path only."""
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    total = 0.0
    for k in range(1, terms + 1):
        total += coefficient(k) * math.cos(k * t - phase)
    return total
