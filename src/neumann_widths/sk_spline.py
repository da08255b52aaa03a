"""Fundamental SK-splines on the uniform partition and their derivatives.

Three independent routes to the (psi, beta)-derivative of the fundamental
spline at interval midpoints:

1. ``solve_fundamental_spline`` -- direct linear solve of the interpolation
   system, refined against exact integer residuals, derivative assembled
   from Bernoulli-kernel translates.  Exact in
   principle, but its conditioning degrades like max|lambda|/min|lambda|,
   so it is the cross-check path at small n only.
2. ``derivative_eigen`` -- closed-form representation through eigenvalue
   magnitudes |lambda_{n-j}(y)| with correction terms gamma_1, gamma_2.
3. ``derivative_pq`` -- the same value rearranged around the strictly
   positive kernel P_q, with the full correction ledger gamma_1..gamma_5;
   this is the numerically robust route at large n and the basis of the
   sign-condition verifier.

Eigenvalues come either from the definitional 2n-point node sum
(``lambda_finite_sum``, any kernel spec, correctly rounded by
``math.fsum``) or assembled from Fourier
coefficient tails (``lambda_fourier``, Neumann kernels); the two must agree
to working precision, which the test suite enforces.

The Fourier-side decomposition is built once per shift, in one array pass
over j = 0..n-1 (``_EigenAssembly``): the main coefficients, the tail pieces
r1, r2, r3, the eigenvalue magnitudes and the row constants of the midpoint
sums are numpy arrays over j, and the r1 tails of all j are one
``_certified_sum`` over lanes, whose tail bounds every lane.
``lambda_fourier`` reads one row of it.

The midpoint quantities come from one pass over the midpoints.  gamma_1 and
gamma_3, the sums over j = 0..n-1, are one length-2n FFT of twisted
coefficients, which gives them at all 2n midpoints in O(n log n); gamma_4's
sqrt(n) terms are one ``math.fsum`` per midpoint; P_q and gamma_5's strip
tail are each one ``_certified_sum`` over midpoint lanes, all of which stop
at the same term.  The verifier reads all 2n midpoints of that pass;
``gammas`` and ``derivative_pq`` read one of them.  ``derivative_eigen`` and
the ledger's z_j, which report per-j values, sum (1 x n) cosine rows.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SignDegenerate, SingularSystem, UnderflowLimit
from .kernels import (DEFAULT_POLICY, TWO_PI, EvalPolicy, KernelSpec, NeumannParams,
                      _certified_sum, _check_n, _pq_terms, _reduce_phase, eval_bernoulli,
                      eval_pq, eval_psi_beta1)
from .thresholds import gamma_budget
from .widths import solve_theta

SIGN_DEGENERATE_TOL = 1e-14
_SINGULAR_COND = 1e15


@dataclass(frozen=True)
class Partition2n:
    """Uniform partition x_k = k*pi/n of [0, 2pi] with interval midpoints."""

    n: int

    def __post_init__(self):
        _check_n(self.n)

    @property
    def nodes(self) -> tuple[float, ...]:
        """x_0 .. x_{2n} (x_{2n} = 2pi)."""
        return tuple(k * math.pi / self.n for k in range(2 * self.n + 1))

    @property
    def midpoints(self) -> tuple[float, ...]:
        """t_k = k*pi/n - pi/(2n), k = 1..2n (midpoint of ((k-1)pi/n, k pi/n))."""
        return tuple(k * math.pi / self.n - math.pi / (2 * self.n)
                     for k in range(1, 2 * self.n + 1))


@dataclass(frozen=True)
class GammaLedger:
    """Every intermediate of the P_q derivative representation at one midpoint.

    ``gamma`` holds gamma_1..gamma_5; r1/r2/r3 are the Fourier-tail pieces of
    r_j and r their sum; R[j] = |lambda_{n-j}| - psi(n-j)/(n-j) - psi(n+j)/(n+j);
    z[j] is the midpoint-dependent combination entering gamma_1; delta[j] the
    relative eigenvalue offsets for j = 1..floor(sqrt(n)).  gamma_total is
    sum |gamma_m| and gamma_budget its certified bound (valid at the peak
    shift under the tail condition).
    """

    k: int
    y: float
    s: float
    gamma: tuple[float, float, float, float, float]
    r1: tuple[complex, ...]
    r2: tuple[complex, ...]
    r3: tuple[complex, ...]
    r: tuple[complex, ...]
    R: tuple[float, ...]
    z: tuple[float, ...]
    delta: tuple[float, ...]
    gamma_total: float
    gamma_budget: float
    min_abs_lambda: float


@dataclass(frozen=True)
class SKSplineSolution:
    """Fundamental-spline coefficients and midpoint derivative values."""

    y: float
    alpha: tuple[float, ...]          # alpha_0 .. alpha_{2n}
    midpoint_derivs: tuple[float, ...]  # at t_k, k = 1..2n
    residual: float                   # max-abs residual of the linear system
    condition: float

    @property
    def coeff_sum(self) -> float:
        return math.fsum(self.alpha[1:])


@dataclass(frozen=True)
class Cy2nVerdict:
    """Sign-pattern verdict: derivative signs at midpoints are (-1)^k eps e_k.

    ``pattern`` lists e_k in the k = 0..2n-1 indexing of midpoints
    (x_k + x_{k+1})/2; ``signs`` the raw classified signs.  holds is true iff
    some single eps in {+1,-1} matches every nonzero entry; zero entries
    (|value| <= zero_tol) are allowed anywhere.
    """

    holds: bool
    epsilon: int
    pattern: tuple[int, ...]
    signs: tuple[int, ...]
    zero_tol: float
    derivatives: tuple[float, ...]


def lambda_finite_sum(spec: KernelSpec, n: int, l: int, y: float,
                      policy: EvalPolicy = DEFAULT_POLICY) -> complex:
    """Definitional eigenvalue: (1/n) sum_{nu=1..2n} e^(i l nu pi/n) Psi_{beta,1}(y - nu pi/n).

    Each kernel value is certified to abs_tol/(2n), so the sum carries the
    policy tolerance as a whole; the 2n products are summed correctly
    rounded (``math.fsum``).
    """
    if not 1 <= l <= n:
        raise DomainError(f"l must lie in 1..n, got l={l}, n={n}")
    sub = EvalPolicy(policy.abs_tol / (2 * n), policy.max_terms)
    re, im = [], []
    for nu in range(1, 2 * n + 1):
        g = eval_psi_beta1(spec, y - nu * math.pi / n, sub)
        w = cmath.exp(1j * l * nu * math.pi / n)
        re.append(w.real * g)
        im.append(w.imag * g)
    return complex(math.fsum(re) / n, math.fsum(im) / n)


def _coef(q: float, k: np.ndarray) -> np.ndarray:
    """psi(k)/k = q^k/k^2 for each integer k.  The powers are Python's
    float powers: numpy's vectorised power can differ in the last bit, and
    with these the decomposition is bit for bit the scalar one."""
    return np.array([q**i / i / i for i in k.tolist()])


def _r1_terms(q: float, n: int, y: float, phase1: float, j: np.ndarray):
    """Terms of the Fourier tail r1_j over frequencies (2m+1)n - j and
    (2m-1)n + j, m >= 1, for every j at once: row 0 of each 2 x n term is the
    real (cos) part and row 1 the imaginary (sin) part.  The cos/sin factors
    depend only on m, so a term is a coefficient row times two scalars.  The
    tail after term m >= 2 is the largest lane's (t_hi + t_lo) q^(2n)/(1 - q^(2n)),
    which bounds every lane."""
    ratio = q ** (2 * n)
    x = 3 * n * y - phase1
    yield np.outer((math.cos(x), math.sin(x)), _coef(q, 3 * n - j)), math.inf
    for m in itertools.count(2):
        t_hi, t_lo = _coef(q, (2 * m + 1) * n - j), _coef(q, (2 * m - 1) * n + j)
        x_hi, x_lo = (2 * m + 1) * n * y - phase1, (2 * m - 1) * n * y - phase1
        yield (np.outer((math.cos(x_hi), math.sin(x_hi)), t_hi)
               + np.outer((math.cos(x_lo), -math.sin(x_lo)), t_lo),
               float((t_hi + t_lo).max()) * ratio / (1.0 - ratio))


def _check_scale(nonzero: bool, n: int, psi_n: float) -> None:
    """Raise UnderflowLimit unless ``nonzero``: |lambda_n|^2 (~ (2 q^n/n^2)^2),
    the smallest divisor of gamma_1, is zero in double precision at this n."""
    if not nonzero:
        raise UnderflowLimit(
            f"|lambda_n|^2 underflows to zero at n={n} (q^n/n = {psi_n:.3e}): "
            "the midpoint derivatives need rescaled units from this n on")


class _EigenAssembly:
    """Fourier-side eigenvalue decomposition for a Neumann kernel at shift y,
    built in one array pass over j = 0..n-1 (eigenvalue index l = n-j).

    Holds, as arrays over j: the tail pieces r1, r2, r3 of r_j and their sum
    r; ``rotated`` = (A_j + B_j) s + r_j = e^(ijy) lambda_{n-j}, with the
    main coefficients A_j = psi(n-j)/(n-j) and B_j = psi(n+j)/(n+j); the
    magnitudes lam_abs = |lambda_{n-j}|; and the offsets R_j = |lambda_{n-j}|
    - A_j - B_j.  The r1 tails are one ``_certified_sum`` whose lanes are the
    real and imaginary parts of all j.  The per-midpoint quantities (the
    gammas, P_q, derivative values) come from one FFT over j for gamma_1 and
    gamma_3 (``_fft_sums``) and lanes over the midpoints for the P_q series
    (``_gammas``, ``_pq``); z_j and the eigenvalue route are numpy rows over
    the j axis (``_cos_z``).
    """

    def __init__(self, params: NeumannParams, n: int, y: float,
                 policy: EvalPolicy = DEFAULT_POLICY):
        _check_n(n)
        arg = n * y - _reduce_phase(params.beta)
        sin_arg = math.sin(arg)
        if abs(sin_arg) < SIGN_DEGENERATE_TOL:
            raise SignDegenerate(
                f"sin(n y - beta pi/2) = {sin_arg:.2e} at y={y}: the Fourier "
                "decomposition is invalid here (use the finite node sum)")
        self.psi_n = params.psi(n)
        _check_scale(self.psi_n != 0.0, n, self.psi_n)  # before any O(n) array
        self._psi_over_n = self.psi_n / n
        self.n, self.y, self.q, self.policy = n, y, params.q, policy
        self.s = math.copysign(1.0, sin_arg)
        j = np.arange(n)
        a, b = _coef(self.q, n - j), _coef(self.q, n + j)
        phase1 = _reduce_phase(params.beta, 1.0)
        tail, comp = _certified_sum(_r1_terms(self.q, n, y, phase1, j),
                                    policy.abs_tol, policy, "eigenvalue tail")
        re, im = tail + comp
        self.r1 = re + 1j * im
        self.r2 = 1j * (b - a) * math.cos(arg)
        self.r3 = (a + b) * (abs(sin_arg) - 1.0) * self.s
        self.r = self.r1 + self.r2 + self.r3
        self.rotated = (a + b) * self.s + self.r
        self.lam_abs = np.abs(self.rotated)
        self.R = self.lam_abs - a - b
        # per-j constants of the midpoint sums; r_j is dropped when |r_j|
        # underflows (its term is bounded by |r_j| itself)
        cos_half = np.cos(j * math.pi / (2 * n))
        self._j = j
        self._r_kept = np.where(np.abs(self.r) > 1e-300, self.r, 0.0)
        self._lam_cos = self.lam_abs * cos_half
        self._lam2_cos = self.lam_abs**2 * cos_half
        self._z_weight = np.where(j == 0, 1.0, 2.0)

    def midpoint(self, k: int) -> float:
        if not 1 <= k <= 2 * self.n:
            raise DomainError(f"k must lie in 1..2n, got k={k}, n={self.n}")
        return k * math.pi / self.n - math.pi / (2 * self.n)

    def _offsets(self, ks: Sequence[int]) -> np.ndarray:
        """t_k - y for each k in ks."""
        return np.array([self.midpoint(k) for k in ks]) - self.y

    def _cos_z(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cos(j d) and z_j(d) = |r_j| cos(j d + arg r_j) - R_j cos(j d) s for
        j = 0..n-1 (columns) at each offset d = t_k - y (rows)."""
        jd = np.multiply.outer(d, self._j)
        c = np.cos(jd)
        return c, (np.abs(self._r_kept) * np.cos(jd + np.angle(self._r_kept))
                   - self.R * c * self.s)

    def _g1(self, z: np.ndarray) -> list[float]:
        """gamma_1 for each row of z: (psi(n)/n) sum_j w_j z_j / (|lambda_{n-j}|^2
        cos(j pi/2n)), w_0 = 1, w_j = 2.  Divides, never multiplies by the
        reciprocal: 1/|lambda_n|^2 overflows near the underflow edge."""
        return (self._psi_over_n * (self._z_weight * z / self._lam2_cos).sum(axis=1)).tolist()

    def _g2(self) -> float:
        x = float(self.R[0]) * self.n / self.psi_n
        return -x / (2.0 * (2.0 + x)) * self.s

    def _fft_sums(self) -> np.ndarray:
        """gamma_1 (row 0) and gamma_3 (row 1) at every midpoint, column
        k mod 2n for t_k, from one length-2n FFT.

        Each is Re sum_{j<n} c_j e^(i j d_k) at d_k = (k - 1/2)pi/n - y, with
        c_j = (psi(n)/n) w_j (r_j - R_j s)/(|lambda_{n-j}|^2 cos(j pi/2n)) for
        gamma_1 and c_j = 2 s (psi(n)/n)/(|lambda_{n-j}| cos(j pi/2n)), j >
        isqrt(n), for gamma_3.  Since j d_k = 2 pi jk/2n - j(y + pi/2n), the
        forward FFT of the twisted conjugates conj(c_j) e^(i j(y + pi/2n))
        gives the conjugate sum at bin k mod 2n, with the same real part.
        """
        n, j, s, scale = self.n, self._j, self.s, self._psi_over_n
        c = np.zeros((2, 2 * n), dtype=complex)
        # real divisions: numpy's complex division overflows on a subnormal
        # |lambda_n|^2, which the last n before the underflow edge reach
        z = self._z_weight * (self._r_kept - self.R * s)
        c[0, :n] = (z.real / self._lam2_cos + 1j * (z.imag / self._lam2_cos)) * scale
        c[1, :n] = np.where(j > math.isqrt(n), 2.0 * s * scale / self._lam_cos, 0.0)
        c[:, :n] = np.conj(c[:, :n]) * np.exp(1j * j * (self.y + math.pi / (2 * n)))
        return np.fft.fft(c, axis=1).real

    def _gammas(self, ks: Sequence[int],
                d: np.ndarray) -> list[tuple[float, float, float, float, float]]:
        """gamma_1..gamma_5 at the midpoints k in ks, at offsets d = t_k - y
        (needs n >= 2 for the sqrt split).  gamma_1 and gamma_3 are read from
        the one FFT pass over all 2n midpoints (``_fft_sums``); gamma_4 is a
        math.fsum over its sqrt(n) terms per midpoint, and gamma_5, the P_q
        tail from j = isqrt(n) + 1, is summed over offset lanes.

        Error of gamma_1 and gamma_3: against 40-digit direct sums over the
        same float inputs (r_j, R_j, s, psi(n)/n and the divisors) at the
        exact offsets (k - 1/2)pi/n - y, the largest error measured is
        5.0e-16 sum_j |c_j|, at q up to 0.99 and n up to 300; the tests hold
        it to 1e-15 sum_j |c_j|.  The FFT's twist is exact in the midpoint
        index, so the error does not grow with j |d_k| as cos(j d) at a
        rounded offset d does: at q = 0.95, n = 239 that costs 3.2e-13 in
        gamma_3 (sum_j |c_j| = 12.7), where the FFT's error is 2.4e-15."""
        n, s = self.n, self.s
        if n < 2:
            raise DomainError("the P_q decomposition needs n >= 2")
        _check_scale(self._lam2_cos.all(), n, self.psi_n)
        root = math.isqrt(n)
        head = slice(1, root + 1)
        delta = np.array([self.delta(j) for j in range(1, root + 1)])
        g1, g3 = self._fft_sums()[:, np.asarray(ks) % (2 * n)].tolist()
        c = np.cos(np.multiply.outer(d, self._j[head]))
        g4 = [-2.0 * s * math.fsum(row.tolist()) for row in
              delta * c * self._psi_over_n / self._lam_cos[head]]
        strip, strip_c = _certified_sum(_pq_terms(self.q, d, root + 1, np.cos),
                                        self.policy.abs_tol, self.policy, "strip-kernel tail")
        g5 = (-s * (strip + strip_c)).tolist()  # P_q's terms already carry the factor 2
        return list(zip(g1, itertools.repeat(self._g2()), g3, g4, g5))

    def _pq(self, d: np.ndarray) -> list[float]:
        """P_q at each offset d, summed over lanes exactly as eval_pq sums one."""
        s, c = _certified_sum(_pq_terms(self.q, np.fmod(d, TWO_PI), 1, np.cos),
                              self.policy.abs_tol, self.policy, "eval_pq", start=0.5)
        return (s + c).tolist()

    def _scaled(self, k: int, bracket: float) -> float:
        """The midpoint derivative on interval k from its bracket."""
        sign_k = 1.0 if k % 2 == 1 else -1.0
        return sign_k * math.pi / (4.0 * self.n * self.psi_n) * bracket

    def _derivatives_pq(self, ks: Sequence[int]) -> tuple[list[float], list[tuple]]:
        """Midpoint derivatives via P_q, and their gammas, at the midpoints k in ks."""
        d = self._offsets(ks)
        gs = self._gammas(ks, d)
        values = [self._scaled(k, pq * self.s + math.fsum(g))
                  for k, pq, g in zip(ks, self._pq(d), gs)]
        return values, gs

    def derivative_eigen(self, k: int) -> float:
        """Midpoint derivative through eigenvalue magnitudes (gamma_1, gamma_2)."""
        _check_scale(self._lam2_cos.all(), self.n, self.psi_n)
        c, z = self._cos_z(self._offsets([k]))
        g1 = self._g1(z)[0]
        acc = math.fsum((c[0, 1:] / self._lam_cos[1:]).tolist())
        main = (0.5 + 2.0 * self._psi_over_n * acc) * self.s
        return self._scaled(k, main + g1 + self._g2())

    def gammas(self, k: int) -> tuple[float, float, float, float, float]:
        """gamma_1..gamma_5 at midpoint t_k (needs n >= 2 for the sqrt split)."""
        return self._gammas([k], self._offsets([k]))[0]

    def delta(self, j: int) -> float:
        """Relative offset of n |lambda_{n-j}| cos(j pi/2n) from (q^-j+q^j) psi(n)."""
        n, q = self.n, self.q
        return (n * float(self.lam_abs[j]) * math.cos(j * math.pi / (2 * n))
                / ((q**-j + q**j) * self.psi_n) - 1.0)

    def derivative_pq(self, k: int) -> tuple[float, GammaLedger]:
        """Midpoint derivative via P_q plus the five correction terms."""
        n = self.n
        (value,), (gs,) = self._derivatives_pq([k])
        root = math.isqrt(n)
        ledger = GammaLedger(
            k=k, y=self.y, s=self.s, gamma=gs,
            r1=tuple(self.r1.tolist()), r2=tuple(self.r2.tolist()),
            r3=tuple(self.r3.tolist()), r=tuple(self.r.tolist()), R=tuple(self.R.tolist()),
            z=tuple(self._cos_z(self._offsets([k]))[1][0].tolist()),
            delta=tuple(self.delta(j) for j in range(1, root + 1)),
            gamma_total=sum(abs(g) for g in gs),
            gamma_budget=gamma_budget(self.q, n),
            min_abs_lambda=float(self.lam_abs.min()),
        )
        return value, ledger


def lambda_fourier(params: NeumannParams, n: int, j: int, y: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> complex:
    """Eigenvalue lambda_{n-j}(y) assembled from Fourier coefficient tails.

    Requires sin(n y - beta pi/2) != 0; raises SignDegenerate otherwise
    (the decomposition through the sign factor is meaningless there, while
    lambda_finite_sum still works).
    """
    if not 0 <= j <= n - 1:
        raise DomainError(f"j must lie in 0..n-1, got j={j}, n={n}")
    rotated = _EigenAssembly(params, n, y, policy).rotated[j]
    return cmath.exp(-1j * j * y) * complex(rotated)


def eigen_assembly(params: NeumannParams, n: int, y: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> _EigenAssembly:
    """Build the reusable Fourier-side decomposition for all j at once."""
    return _EigenAssembly(params, n, y, policy)


def derivative_eigen(params: NeumannParams, n: int, y: float, k: int,
                     policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Fundamental-spline derivative on interval ((k-1)pi/n, k pi/n) through
    the eigenvalue-magnitude representation."""
    return _EigenAssembly(params, n, y, policy).derivative_eigen(k)


def derivative_pq(params: NeumannParams, n: int, y: float, k: int,
                  policy: EvalPolicy = DEFAULT_POLICY) -> tuple[float, GammaLedger]:
    """Fundamental-spline derivative via the P_q representation, with the
    complete correction ledger."""
    return _EigenAssembly(params, n, y, policy).derivative_pq(k)


def _check_shift(n: int, y: float) -> None:
    _check_n(n)
    if not 0.0 <= y < math.pi / n:
        raise DomainError(f"shift y must lie in [0, pi/n), got {y}")


def _exact_residual(row: Sequence[float], x: Sequence[float], b: float) -> float:
    """b - sum_l row[l] * x[l], correctly rounded: every term is an integer
    over a power of two, so over the largest of those powers the sum is one
    exact integer, and one int/int true division rounds it."""
    terms = [b.as_integer_ratio()] + [
        (-rn * xn, rd * xd) for (rn, rd), (xn, xd)
        in zip(map(float.as_integer_ratio, row), map(float.as_integer_ratio, x))]
    den = max(d for _, d in terms)
    return sum(num * (den // d) for num, d in terms) / den


def solve_fundamental_spline(spec: KernelSpec, n: int, y: float,
                             policy: EvalPolicy = DEFAULT_POLICY) -> SKSplineSolution:
    """Solve the (2n+1) x (2n+1) interpolation system for the fundamental spline.

    Rows 0..2n-1 interpolate delta_{0,k} at the shifted nodes y_k = x_k + y;
    the last row pins sum alpha_k = 0.  Partial-pivoting LU (LAPACK) with one
    step of iterative refinement; the derivative is piecewise constant and is
    evaluated at the midpoints from Bernoulli-kernel translates.
    """
    _check_shift(n, y)
    size = 2 * n
    # entries truncated far below their representation rounding: the smallest
    # eigenvalue mode amplifies coherent entry bias by ~1/(n lambda_n)
    entry_policy = EvalPolicy(min(policy.abs_tol, 1e-17) / (2 * n), policy.max_terms)
    kernel_at = [eval_psi_beta1(spec, y + m * math.pi / n, entry_policy)
                 for m in range(size)]

    mat = np.empty((size + 1, size + 1))
    rhs = np.zeros(size + 1)
    for k in range(size):
        mat[k, 0] = 1.0
        for l in range(1, size + 1):
            mat[k, l] = kernel_at[(k - l) % size]
    rhs[0] = 1.0
    mat[size, 0] = 0.0
    mat[size, 1:] = 1.0

    condition = float(np.linalg.cond(mat))
    if not math.isfinite(condition) or condition > _SINGULAR_COND:
        raise SingularSystem(
            f"interpolation system condition {condition:.2e} exceeds {_SINGULAR_COND:.0e} "
            "(an eigenvalue magnitude is numerically zero)", condition=condition)

    def residual_vec(a):
        # exact residuals: resolve them far below the noise of a plain float64
        # matrix-vector product against these large coefficients
        x = a.tolist()
        return np.array([_exact_residual(row, x, b)
                         for row, b in zip(mat.tolist(), rhs.tolist())])

    try:
        alpha = np.linalg.solve(mat, rhs)
        prev_dx = math.inf
        for _ in range(4):  # refinement driven by the correction size
            dx = np.linalg.solve(mat, residual_vec(alpha))
            step = float(np.max(np.abs(dx)))
            if step >= prev_dx:
                break
            alpha = alpha + dx
            prev_dx = step
            if step <= 4.0 * sys.float_info.epsilon * float(np.max(np.abs(alpha))):
                break
        residual = float(np.max(np.abs(residual_vec(alpha))))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc), condition=condition) from exc

    part = Partition2n(n)
    derivs = tuple(
        math.fsum(alpha[l] * eval_bernoulli(t_k - l * math.pi / n)
                  for l in range(1, size + 1))
        for t_k in part.midpoints)
    return SKSplineSolution(y=y, alpha=tuple(float(a) for a in alpha),
                            midpoint_derivs=derivs, residual=residual,
                            condition=condition)


def classify_sign_pattern(values: Sequence[float], zero_tol: float) -> tuple[bool, int, tuple[int, ...], tuple[int, ...]]:
    """Match values[k], k = 0..2n-1, against (-1)^k * eps * e_k.

    Entries with |value| <= zero_tol get e_k = 0 and never veto; eps is fixed
    by the first nonzero entry.  Returns (holds, epsilon, e, signs).
    """
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
    pattern = tuple(abs(s) for s in signs)
    return holds, epsilon, pattern, signs


def verify_cy2n(params: NeumannParams, n: int, y: float | None = None,
                policy: EvalPolicy = DEFAULT_POLICY) -> Cy2nVerdict:
    """Check the alternating midpoint sign condition at shift y (default: the
    peak shift y0 = theta*pi/n).

    Derivative values come from the P_q representation (eigenvalue route for
    n = 1), which stays numerically faithful at indices where the direct
    solve is condition-limited.  The zero classification threshold is
    scale-aware: 1e-9 * (pi/(4 n psi(n))) * P_q(0).

    All 2n derivatives come from one pass (module docstring): gamma_1 and
    gamma_3 are one length-2n FFT, O(n log n), within 1e-15 sum_j |c_j| of
    40-digit sums over its coefficients c_j (measured: at most 5.0e-16).
    The tests hold the derivatives to within 1e-15 * max_k |d_k| of
    per-midpoint scalar sums, and the verdicts to those of (midpoints x n)
    cosine-row sums on every rung of the benchmark's ladders.

    Raises UnderflowLimit at every n from the one at which |lambda_n|^2 ~
    (2 q^n/n^2)^2 underflows to zero (n = 80 at q = 0.01, 226 at q = 0.2),
    including the n further out where |lambda_n| itself is zero.
    """
    if y is None:
        y = solve_theta(params, n, policy).y0
    else:
        _check_shift(n, y)
    assembly = _EigenAssembly(params, n, y, policy)
    if n >= 2:
        derivs = tuple(assembly._derivatives_pq(range(1, 2 * n + 1))[0])
    else:
        derivs = tuple(assembly.derivative_eigen(k) for k in range(1, 2 * n + 1))
    zero_tol = 1e-9 * math.pi / (4.0 * n * assembly.psi_n) * eval_pq(params.q, 0.0, policy)
    holds, epsilon, pattern, signs = classify_sign_pattern(derivs, zero_tol)
    return Cy2nVerdict(holds=holds, epsilon=epsilon, pattern=pattern, signs=signs,
                       zero_tol=zero_tol, derivatives=derivs)
