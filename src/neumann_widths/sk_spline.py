"""Fundamental SK-splines on the uniform partition and their derivatives.

Three independent routes to the (psi, beta)-derivative of the fundamental
spline at interval midpoints:

1. ``solve_fundamental_spline`` -- direct linear solve of the interpolation
   system, derivative assembled from Bernoulli-kernel translates.  Exact in
   principle, but its conditioning degrades like max|lambda|/min|lambda|,
   so it is the cross-check path at small n only.
2. ``derivative_eigen`` -- closed-form representation through eigenvalue
   magnitudes |lambda_{n-j}(y)| with correction terms gamma_1, gamma_2.
3. ``derivative_pq`` -- the same value rearranged around the strictly
   positive kernel P_q, with the full correction ledger gamma_1..gamma_5;
   this is the numerically robust route at large n and the basis of the
   sign-condition verifier.

Eigenvalues come either from the definitional 2n-point node sum
(``lambda_finite_sum``, any kernel spec) or assembled from Fourier
coefficient tails (``lambda_fourier``, Neumann kernels); the two must agree
to working precision, which the test suite enforces.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compensated import KahanSum, two_prod
from .errors import DomainError, SignDegenerate, SingularSystem
from .kernels import (DEFAULT_POLICY, EvalPolicy, KernelSpec, NeumannParams, _certified_sum,
                      _pq_terms, eval_bernoulli, eval_pq, eval_psi_beta1)
from .thresholds import gamma_budget
from .widths import solve_theta

SIGN_DEGENERATE_TOL = 1e-14
_SINGULAR_COND = 1e15


@dataclass(frozen=True)
class Partition2n:
    """Uniform partition x_k = k*pi/n of [0, 2pi] with interval midpoints."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")

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
class EigenValue:
    """One eigenvalue lambda_l(y) of the interpolation problem."""

    l: int
    value: complex

    @property
    def rho(self) -> float:
        return self.value.real

    @property
    def sigma(self) -> float:
        return self.value.imag


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
    policy tolerance as a whole.
    """
    if not 1 <= l <= n:
        raise DomainError(f"l must lie in 1..n, got l={l}, n={n}")
    sub = EvalPolicy(policy.abs_tol / (2 * n), policy.max_terms)
    re = KahanSum()
    im = KahanSum()
    for nu in range(1, 2 * n + 1):
        g = eval_psi_beta1(spec, y - nu * math.pi / n, sub)
        w = cmath.exp(1j * l * nu * math.pi / n)
        re.add(w.real * g)
        im.add(w.imag * g)
    return complex(re.value / n, im.value / n)


class _EigenShift:
    """Per-shift setup of the Fourier-side eigenvalue decomposition for a
    Neumann kernel at shift y; ``column(j)`` assembles the pieces of one
    eigenvalue lambda_{n-j}."""

    def __init__(self, params: NeumannParams, n: int, y: float,
                 policy: EvalPolicy = DEFAULT_POLICY):
        if n < 1:
            raise DomainError(f"n must be a positive integer, got {n}")
        self.arg = n * y - params.beta_mod4 * math.pi / 2.0
        self.sin_arg = math.sin(self.arg)
        if abs(self.sin_arg) < SIGN_DEGENERATE_TOL:
            raise SignDegenerate(
                f"sin(n y - beta pi/2) = {self.sin_arg:.2e} at y={y}: the Fourier "
                "decomposition is invalid here (use the finite node sum)")
        self.params = params
        self.n = n
        self.y = y
        self.policy = policy
        self.q = params.q
        self.s = math.copysign(1.0, self.sin_arg)
        self.psi_n = params.q**n / n

    def column(self, j: int) -> tuple[float, float, complex, complex, float]:
        """(A_j, B_j, r1_j, r2_j, r3_j): the main coefficients psi(n-j)/(n-j)
        and psi(n+j)/(n+j), and the three tail pieces of r_j."""
        n, y, psi = self.n, self.y, self.params.psi
        phase1 = (self.params.beta_mod4 + 1.0) * math.pi / 2.0
        ratio = self.q ** (2 * n)

        def r1_terms(f, lo_sign):
            # Fourier tail over frequencies (2m+1)n - j and (2m-1)n + j; f and
            # lo_sign pick the real (cos, +1) or imaginary (sin, -1) part
            yield psi(3 * n - j) / (3 * n - j) * f(3 * n * y - phase1), math.inf
            for m in itertools.count(2):
                t_hi = psi((2 * m + 1) * n - j) / ((2 * m + 1) * n - j)
                t_lo = psi((2 * m - 1) * n + j) / ((2 * m - 1) * n + j)
                yield (t_hi * f((2 * m + 1) * n * y - phase1)
                       + lo_sign * t_lo * f((2 * m - 1) * n * y - phase1),
                       (t_hi + t_lo) * ratio / max(1.0 - ratio, 1e-300))

        re, re_c = _certified_sum(r1_terms(math.cos, 1.0), self.policy.abs_tol, self.policy,
                                  "eigenvalue tail")
        im, im_c = _certified_sum(r1_terms(math.sin, -1.0), self.policy.abs_tol, self.policy,
                                  "eigenvalue tail")
        a = psi(n - j) / (n - j)
        b = psi(n + j) / (n + j)
        r2 = 1j * (b - a) * math.cos(self.arg)
        r3 = (a + b) * (abs(self.sin_arg) - 1.0) * self.s
        return a, b, complex(re + re_c, im + im_c), r2, r3


class _EigenAssembly(_EigenShift):
    """Fourier-side eigenvalue decomposition for all j at shift y.

    Holds, for j = 0..n-1 (eigenvalue index l = n-j): the main coefficient
    pair sum A_j + B_j; the tail pieces r1, r2, r3 and their sum r; the
    magnitudes |lambda_{n-j}|; and the offsets R_j.  All per-midpoint
    quantities (z_j, the gammas, derivative values) are derived on demand.
    """

    def __init__(self, params: NeumannParams, n: int, y: float,
                 policy: EvalPolicy = DEFAULT_POLICY):
        super().__init__(params, n, y, policy)
        self.ab, self.r1, self.r2, self.r3, self.r, self.lam_abs, self.R = (
            [], [], [], [], [], [], [])
        for j in range(n):
            a, b, r1, r2, r3 = self.column(j)
            r = r1 + r2 + r3
            inner = (a + b) * self.s + r
            self.ab.append(a + b)
            self.r1.append(r1)
            self.r2.append(r2)
            self.r3.append(r3)
            self.r.append(r)
            self.lam_abs.append(abs(inner))
            self.R.append(abs(inner) - a - b)

    def z(self, j: int, t_k: float) -> float:
        """z_j at midpoint t_k; the phase of r_j is dropped when |r_j| underflows
        (its cosine term is bounded by |r_j| itself)."""
        c = math.cos(j * (t_k - self.y))
        r = self.r[j]
        if abs(r) <= 1e-300:
            return -self.R[j] * c * self.s
        return abs(r) * math.cos(j * (t_k - self.y) + cmath.phase(r)) - self.R[j] * c * self.s

    def midpoint(self, k: int) -> float:
        if not 1 <= k <= 2 * self.n:
            raise DomainError(f"k must lie in 1..2n, got k={k}, n={self.n}")
        return k * math.pi / self.n - math.pi / (2 * self.n)

    def _gamma12(self, t_k: float) -> tuple[float, float]:
        n = self.n
        acc = KahanSum(self.z(0, t_k) / self.lam_abs[0] ** 2)
        for j in range(1, n):
            acc.add(2.0 * self.z(j, t_k)
                    / (self.lam_abs[j] ** 2 * math.cos(j * math.pi / (2 * n))))
        g1 = self.psi_n / n * acc.value
        x = self.R[0] * n / self.psi_n
        g2 = -x / (2.0 * (2.0 + x)) * self.s
        return g1, g2

    def derivative_eigen(self, k: int) -> float:
        """Midpoint derivative through eigenvalue magnitudes (gamma_1, gamma_2)."""
        n = self.n
        t_k = self.midpoint(k)
        acc = KahanSum()
        for j in range(1, n):
            acc.add(math.cos(j * (t_k - self.y))
                    / (self.lam_abs[j] * math.cos(j * math.pi / (2 * n))))
        main = (0.5 + 2.0 * self.psi_n / n * acc.value) * self.s
        g1, g2 = self._gamma12(t_k)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        return sign_k * math.pi / (4.0 * n * self.psi_n) * (main + g1 + g2)

    def gammas(self, k: int) -> tuple[float, float, float, float, float]:
        """gamma_1..gamma_5 at midpoint t_k (needs n >= 2 for the sqrt split)."""
        n = self.n
        if n < 2:
            raise DomainError("the P_q decomposition needs n >= 2")
        t_k = self.midpoint(k)
        g1, g2 = self._gamma12(t_k)
        root = math.isqrt(n)
        q, s = self.q, self.s
        inv_scale = self.psi_n / n  # 1/(n/psi(n))

        g3 = 2.0 * s * math.fsum(
            math.cos(j * (t_k - self.y)) * inv_scale
            / (self.lam_abs[j] * math.cos(j * math.pi / (2 * n)))
            for j in range(root + 1, n))

        g4 = -2.0 * s * math.fsum(
            self.delta(j) * math.cos(j * (t_k - self.y)) * inv_scale
            / (self.lam_abs[j] * math.cos(j * math.pi / (2 * n)))
            for j in range(1, root + 1))

        tail, tail_c = _certified_sum(_pq_terms(q, t_k - self.y, root + 1), self.policy.abs_tol,
                                      self.policy, "strip-kernel tail")
        g5 = -s * (tail + tail_c)  # P_q's terms already carry the factor 2
        return g1, g2, g3, g4, g5

    def delta(self, j: int) -> float:
        """Relative offset of n |lambda_{n-j}| cos(j pi/2n) from (q^-j+q^j) psi(n)."""
        n, q = self.n, self.q
        return (n * self.lam_abs[j] * math.cos(j * math.pi / (2 * n))
                / ((q**-j + q**j) * self.psi_n) - 1.0)

    def derivative_pq(self, k: int) -> tuple[float, GammaLedger]:
        """Midpoint derivative via P_q plus the five correction terms."""
        n = self.n
        t_k = self.midpoint(k)
        gs = self.gammas(k)
        pq = eval_pq(self.q, t_k - self.y, self.policy)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        value = (sign_k * math.pi / (4.0 * n * self.psi_n)
                 * (pq * self.s + math.fsum(gs)))
        root = math.isqrt(n)
        ledger = GammaLedger(
            k=k, y=self.y, s=self.s, gamma=gs,
            r1=tuple(self.r1), r2=tuple(self.r2), r3=tuple(self.r3),
            r=tuple(self.r), R=tuple(self.R),
            z=tuple(self.z(j, t_k) for j in range(n)),
            delta=tuple(self.delta(j) for j in range(1, root + 1)),
            gamma_total=sum(abs(g) for g in gs),
            gamma_budget=gamma_budget(self.q, n),
            min_abs_lambda=min(self.lam_abs),
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
    shift = _EigenShift(params, n, y, policy)
    a, b, r1, r2, r3 = shift.column(j)
    return cmath.exp(-1j * j * y) * ((a + b) * shift.s + (r1 + r2 + r3))


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


def solve_fundamental_spline(spec: KernelSpec, n: int, y: float,
                             policy: EvalPolicy = DEFAULT_POLICY) -> SKSplineSolution:
    """Solve the (2n+1) x (2n+1) interpolation system for the fundamental spline.

    Rows 0..2n-1 interpolate delta_{0,k} at the shifted nodes y_k = x_k + y;
    the last row pins sum alpha_k = 0.  Partial-pivoting LU (LAPACK) with one
    step of iterative refinement; the derivative is piecewise constant and is
    evaluated at the midpoints from Bernoulli-kernel translates.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if not 0.0 <= y < math.pi / n:
        raise DomainError(f"shift y must lie in [0, pi/n), got {y}")
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
        # exact products + fsum: resolves residuals far below the noise of a
        # plain float64 matrix-vector product against these large coefficients
        out = np.empty(size + 1)
        for k in range(size + 1):
            parts = [-rhs[k]]
            for l in range(size + 1):
                p, e = two_prod(mat[k, l], a[l])
                parts.append(p)
                parts.append(e)
            out[k] = -math.fsum(parts)
        return out

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
            if step <= 4.0 * 2.220446049250313e-16 * float(np.max(np.abs(alpha))):
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
                policy: EvalPolicy = DEFAULT_POLICY,
                zero_tol: float | None = None) -> Cy2nVerdict:
    """Check the alternating midpoint sign condition at shift y (default: the
    peak shift y0 = theta*pi/n).

    Derivative values come from the P_q representation (eigenvalue route for
    n = 1), which stays numerically faithful at indices where the direct
    solve is condition-limited.  The zero classification threshold is
    scale-aware: 1e-9 * (pi/(4 n psi(n))) * P_q(0) unless overridden.
    """
    if y is None:
        y = solve_theta(params, n, policy).y0
    elif not 0.0 <= y < math.pi / n:
        raise DomainError(f"shift y must lie in [0, pi/n), got {y}")
    assembly = _EigenAssembly(params, n, y, policy)
    if assembly.lam_abs and min(assembly.lam_abs) == 0.0:
        raise SingularSystem("an eigenvalue magnitude vanished; the fundamental "
                             "spline is not determined at this shift")
    if n >= 2:
        derivs = tuple(assembly.derivative_pq(k)[0] for k in range(1, 2 * n + 1))
    else:
        derivs = tuple(assembly.derivative_eigen(k) for k in range(1, 2 * n + 1))
    if zero_tol is None:
        zero_tol = (1e-9 * math.pi / (4.0 * n * assembly.psi_n)
                    * eval_pq(params.q, 0.0, policy))
    holds, epsilon, pattern, signs = classify_sign_pattern(derivs, zero_tol)
    return Cy2nVerdict(holds=holds, epsilon=epsilon, pattern=pattern, signs=signs,
                       zero_tol=zero_tol, derivatives=derivs)
