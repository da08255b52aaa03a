"""Fundamental SK-splines on the uniform partition and their derivatives.

Three independent routes to the (psi, beta)-derivative of the fundamental
spline at interval midpoints:

1. ``solve_fundamental_spline`` -- direct linear solve of the interpolation
   system, refined against exact integer residuals, derivative assembled
   from Bernoulli-kernel translates.  Exact in
   principle, but its conditioning degrades like max|lambda|/min|lambda|,
   so it is the cross-check path at small n only.
2. ``derivative_eigen`` -- closed-form representation through eigenvalue
   magnitudes |lambda_{n-j}(y)| with correction terms gamma_1, gamma_2;
   the sign-condition verifier reads all 2n midpoints of it from one FFT.
3. ``derivative_pq`` -- the same value rearranged around the strictly
   positive kernel P_q, with the full correction ledger gamma_1..gamma_5
   that the threshold theorems bound; it is the independent check of
   route 2.

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

Routes 2 and 3 are one identity.  With P_q's terms p_j cos(j d), p_j =
2/(q^j + q^-j), gamma_5 = -s sum_{j > isqrt(n)} p_j cos(j d) cancels P_q's
tail term by term, and gamma_4's offsets delta_j turn each head term p_j,
1 <= j <= isqrt(n), into e_j = 2 s (psi(n)/n)/(|lambda_{n-j}| cos(j pi/2n)),
gamma_3's coefficient.  So at the offset d_k = t_k - y of midpoint k

    s P_q(d_k) + gamma_1 + ... + gamma_5
        = s/2 + gamma_2 + Re sum_{j<n} (c_j + e_j) e^(i j d_k),

where c_j are gamma_1's coefficients and e_0 = 0.  The verifier evaluates the
right side at all 2n midpoints from one length-2n FFT of twisted
coefficients (``_EigenAssembly._fft``), O(n log n), and sums no series over
the midpoints; ``derivative_eigen(k)`` reads midpoint k of the same pass.
``derivative_pq(k)`` evaluates the left side at one midpoint: gamma_1 and
gamma_3 from column k of a second FFT, run once per assembly; gamma_4's
sqrt(n) terms by ``math.fsum``; gamma_5's strip tail by one
``_certified_sum`` and P_q by ``eval_pq``, both at the offset d = t_k - y.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SignDegenerate, SingularSystem, UnderflowLimit
from .kernels import (DEFAULT_POLICY, EvalPolicy, KernelSpec, NeumannParams,
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
    """psi(k)/k = q^k/k^2 for each integer k, bit for bit the scalar
    ``q**k / k / k``: the powers are libm's ``pow`` through ``math.pow``,
    the call Python's float power makes, and the two divisions are IEEE
    divisions by the exactly converted k.  numpy's vectorised power can
    differ from libm in the last bit, so it is not used."""
    k_float = k.astype(float)
    powers = np.fromiter(map(math.pow, itertools.repeat(q), k_float.tolist()), float, len(k))
    return powers / k_float / k_float


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
    real and imaginary parts of all j.  The midpoint sums over j are
    length-2n FFTs of twisted coefficients (``_fft``), each run once per
    assembly: one gives the verifier's derivatives at all 2n midpoints
    (``_derivatives``), the other gamma_1 and gamma_3 of the P_q ledger
    (``_g13``), which ``gammas(k)`` reads one midpoint at a time; z_j are a
    numpy row over the j axis (``_z``).
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

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= 2 * self.n:
            raise DomainError(f"k must lie in 1..2n, got k={k}, n={self.n}")

    def midpoint(self, k: int) -> float:
        self._check_k(k)
        return k * math.pi / self.n - math.pi / (2 * self.n)

    def _z(self, d: float) -> np.ndarray:
        """z_j(d) = |r_j| cos(j d + arg r_j) - R_j cos(j d) s for j = 0..n-1
        at the offset d = t_k - y."""
        jd = d * self._j
        return (np.abs(self._r_kept) * np.cos(jd + np.angle(self._r_kept))
                - self.R * np.cos(jd) * self.s)

    def _g2(self) -> float:
        x = float(self.R[0]) * self.n / self.psi_n
        return -x / (2.0 * (2.0 + x)) * self.s

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """gamma_1's c_j = (psi(n)/n) w_j (r_j - R_j s)/(|lambda_{n-j}|^2
        cos(j pi/2n)), w_0 = 1, w_j = 2, and the main coefficients e_j =
        2 s (psi(n)/n)/(|lambda_{n-j}| cos(j pi/2n)), j >= 1, e_0 = 0."""
        _check_scale(self._lam2_cos.all(), self.n, self.psi_n)
        scale = self._psi_over_n
        # real divisions: numpy's complex division overflows on a subnormal
        # |lambda_n|^2, which the last n before the underflow edge reach; and
        # never a reciprocal, since 1/|lambda_n|^2 overflows there
        z = self._z_weight * (self._r_kept - self.R * self.s)
        c = (z.real / self._lam2_cos + 1j * (z.imag / self._lam2_cos)) * scale
        e = np.where(self._j > 0, 2.0 * self.s * scale / self._lam_cos, 0.0)
        return c, e

    def _fft(self, c: np.ndarray) -> np.ndarray:
        """Re sum_{j<n} c_j e^(i j d_k) at d_k = (k - 1/2)pi/n - y for each row
        c of coefficients over j, at column k mod 2n, from one length-2n FFT.

        Since j d_k = 2 pi jk/2n - j(y + pi/2n), the forward FFT of the
        twisted conjugates conj(c_j) e^(i j(y + pi/2n)) gives the conjugate
        sum at bin k mod 2n, with the same real part; the twist is exact in
        the midpoint index, so no cos(j d) is taken at a rounded offset d.
        """
        n = self.n
        twisted = np.conj(c) * np.exp(1j * self._j * (self.y + math.pi / (2 * n)))
        return np.fft.fft(twisted, 2 * n, axis=1).real  # zero-padded from n to 2n

    @functools.cached_property
    def _derivatives(self) -> np.ndarray:
        """The midpoint derivatives at t_1..t_2n from their brackets
        s/2 + gamma_2 + Re sum_{j<n} (c_j + e_j) e^(i j d_k): one FFT."""
        n = self.n
        c, e = self._coefficients()
        sums = self._fft((c + e)[np.newaxis])[0]
        out = np.empty(2 * n)
        out[:-1], out[-1] = sums[1:], sums[0]  # t_k reads bin k mod 2n
        out += 0.5 * self.s + self._g2()
        out *= math.pi / (4.0 * n * self.psi_n)
        out[1::2] *= -1.0  # (-1)^(k+1)
        return out

    @functools.cached_property
    def _g13(self) -> np.ndarray:
        """gamma_1 and gamma_3 (the main coefficients e_j with j > isqrt(n))
        at t_k in column k mod 2n, k = 1..2n: one ``_fft``.

        Error: against 40-digit direct sums over the same float inputs (r_j,
        R_j, s, psi(n)/n and the divisors) at the exact offsets
        (k - 1/2)pi/n - y, the largest error measured is 5.0e-16 sum_j |c_j|,
        at q up to 0.99 and n up to 300; the tests hold it to 1e-15
        sum_j |c_j|."""
        c, e = self._coefficients()
        e[1:math.isqrt(self.n) + 1] = 0.0
        return self._fft(np.array([c, e]))

    def derivative_eigen(self, k: int) -> float:
        """Midpoint derivative on interval k through the eigenvalue magnitudes,
        read from the verifier's one-FFT pass."""
        self._check_k(k)
        return float(self._derivatives[k - 1])

    def gammas(self, k: int) -> tuple[float, float, float, float, float]:
        """gamma_1..gamma_5 at midpoint t_k (needs n >= 2 for the sqrt split).

        gamma_1 and gamma_3 are column k of ``_g13``; gamma_4 is one
        math.fsum over its sqrt(n) terms, and gamma_5, the P_q tail from
        j = isqrt(n) + 1, one ``_certified_sum``, both at d = t_k - y."""
        d = self.midpoint(k) - self.y
        n, s = self.n, self.s
        if n < 2:
            raise DomainError("the P_q decomposition needs n >= 2")
        g1, g3 = self._g13[:, k % (2 * n)].tolist()
        root = math.isqrt(n)
        head = slice(1, root + 1)
        g4 = -2.0 * s * math.fsum((np.array(self._deltas) * np.cos(d * self._j[head])
                                   * self._psi_over_n / self._lam_cos[head]).tolist())
        strip, strip_c = _certified_sum(_pq_terms(self.q, d, root + 1), self.policy.abs_tol,
                                        self.policy, "strip-kernel tail")
        g5 = -s * (strip + strip_c)  # P_q's terms already carry the factor 2
        return g1, self._g2(), g3, g4, g5

    def delta(self, j: int) -> float:
        """Relative offset of n |lambda_{n-j}| cos(j pi/2n) from (q^-j+q^j) psi(n)."""
        n, q = self.n, self.q
        return (n * float(self.lam_abs[j]) * math.cos(j * math.pi / (2 * n))
                / ((q**-j + q**j) * self.psi_n) - 1.0)

    @functools.cached_property
    def _deltas(self) -> tuple[float, ...]:
        """delta_j for j = 1..isqrt(n): they do not depend on the midpoint."""
        return tuple(self.delta(j) for j in range(1, math.isqrt(self.n) + 1))

    @functools.cached_property
    def _ledger_fields(self) -> dict:
        """The ``GammaLedger`` fields that are the same at every midpoint."""
        return dict(y=self.y, s=self.s, r1=tuple(self.r1.tolist()), r2=tuple(self.r2.tolist()),
                    r3=tuple(self.r3.tolist()), r=tuple(self.r.tolist()),
                    R=tuple(self.R.tolist()), delta=self._deltas,
                    gamma_budget=gamma_budget(self.q, self.n),
                    min_abs_lambda=float(self.lam_abs.min()))

    def derivative_pq(self, k: int) -> tuple[float, GammaLedger]:
        """Midpoint derivative via P_q plus the five correction terms."""
        gs = self.gammas(k)
        d = self.midpoint(k) - self.y
        bracket = eval_pq(self.q, d, self.policy) * self.s + math.fsum(gs)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        value = sign_k * math.pi / (4.0 * self.n * self.psi_n) * bracket
        ledger = GammaLedger(k=k, gamma=gs, z=tuple(self._z(d).tolist()),
                             gamma_total=sum(abs(g) for g in gs), **self._ledger_fields)
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

    Entries with |value| <= zero_tol get e_k = 0 and never veto; any other
    entry, NaN included, is +1 if it is > 0 and -1 if not.  eps is fixed by
    the first nonzero entry, and every nonzero entry must then be
    (-1)^k * eps.  ``values`` may be any sequence of floats or a float
    array; the classification is array-wide, with no Python loop over the
    entries.  Returns (holds, epsilon, e, signs): a bool, an int and two
    tuples of ints.
    """
    v = np.asarray(values, dtype=float)
    signs = np.where(v > 0, 1, -1)
    signs[np.abs(v) <= zero_tol] = 0
    aligned = signs.copy()  # (-1)^k signs[k]: eps at each nonzero entry iff it holds
    aligned[1::2] *= -1
    nonzero = np.flatnonzero(aligned)
    if not len(nonzero):
        return True, 1, (0,) * len(signs), tuple(signs.tolist())
    epsilon = int(aligned[nonzero[0]])
    holds = not (aligned == -epsilon).any()
    return holds, epsilon, tuple(np.abs(signs).tolist()), tuple(signs.tolist())


def verify_cy2n(params: NeumannParams, n: int, y: float | None = None,
                policy: EvalPolicy = DEFAULT_POLICY) -> Cy2nVerdict:
    """Check the alternating midpoint sign condition at shift y (default: the
    peak shift y0 = theta*pi/n).

    All 2n derivative values come from one length-2n FFT of the eigen form
    (module docstring), at every n >= 1, in O(n log n): no series is summed
    over the midpoints.  The eigen form is the P_q representation with
    gamma_4 and gamma_5 cancelled exactly, so it stays numerically faithful
    at indices where the direct solve is condition-limited.  Against
    40-digit sums over the same float inputs at the exact offsets
    (k - 1/2)pi/n - y, the largest error measured is 4.1e-16 max_k |d_k|
    (q from 0.01 to 0.99, every beta class, n up to 300).  The tests hold it
    to 1e-15 max_k |d_k|, the P_q route (``derivative_pq``) to within
    1e-14 max_k |d_k| of it, and the verdicts to those of per-midpoint
    scalar loops and of (midpoints x n) cosine-row sums on every rung of
    the benchmark's ladders.

    The derivative array goes to ``classify_sign_pattern`` as it is, and
    the call runs no Python loop over j or over the midpoints: the power
    rows of ``_coef`` are one ``math.pow`` map each, and the signs are array
    operations.  The zero classification threshold is scale-aware:
    1e-9 * (pi/(4 n psi(n))) * P_q(0), with P_q(0) from ``eval_pq``.

    Raises UnderflowLimit at every n from the one at which |lambda_n|^2 ~
    (2 q^n/n^2)^2 underflows to zero (n = 80 at q = 0.01, 226 at q = 0.2),
    including the n further out where |lambda_n| itself is zero.
    """
    if y is None:
        y = solve_theta(params, n, policy).y0
    else:
        _check_shift(n, y)
    assembly = _EigenAssembly(params, n, y, policy)
    derivs = assembly._derivatives
    zero_tol = 1e-9 * math.pi / (4.0 * n * assembly.psi_n) * eval_pq(params.q, 0.0, policy)
    holds, epsilon, pattern, signs = classify_sign_pattern(derivs, zero_tol)
    return Cy2nVerdict(holds=holds, epsilon=epsilon, pattern=pattern, signs=signs,
                       zero_tol=zero_tol, derivatives=tuple(derivs.tolist()))
