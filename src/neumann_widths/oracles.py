"""Brute-force oracles, deliberately independent of the formula paths they
validate: dense-grid sup-norm search with golden-section refinement, dense
sign scans of the theta equation, and plain uncompensated series summation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .kernels import NeumannParams, _check_n

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _square_conv_series(params: NeumannParams, n: int, t: np.ndarray) -> np.ndarray:
    """Vectorized series for |the kernel * square-wave profile| inputs.

    Summation is plain numpy reduction over a term count fixed from the
    geometric tail; no shared code with the certified scalar evaluator.
    """
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


def _abs_phi(params: NeumannParams, n: int, t: float) -> float:
    return float(abs(_square_conv_series(params, n, np.array([t]))[0]))


def supnorm_square_conv(params: NeumannParams, n: int, grid_points: int = 4096,
                        refine_tol: float = 1e-13) -> tuple[float, float]:
    """(max |Phi|, argmax) over one half-period [0, pi/n).

    Uniform grid, then golden-section refinement around the best cell
    (|Phi| is pi/n-periodic, so the bracket may wrap), then one parabolic
    polish of the argmax with a wider stencil -- near the flat peak the
    golden comparisons run inside rounding noise, the parabola does not.
    """
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
