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
   it and the sign-condition verifier read all 2n midpoints of the same
   form, in scaled units, from one FFT.
3. ``derivative_pq`` -- the same value rearranged around the strictly
   positive kernel P_q, with the full correction ledger gamma_1..gamma_5
   that the threshold theorems bound; it is the independent check of
   route 2.

Eigenvalues come either from the definitional 2n-point node sum
(``lambda_finite_sum``, any kernel spec, correctly rounded by
``math.fsum``) or assembled from Fourier
coefficient tails (``lambda_fourier``, Neumann kernels); the two must agree
to working precision, which the test suite enforces.

The Fourier-side decomposition is built once per shift (``_EigenAssembly``),
in one array pass over j = 0..n-1, in units of the main coefficient A_j
(below), the one unit system of this module.  The r1 tails of all j are
summed once, in blocks of rows (``_rho1``), to a tolerance relative to A_j
that also meets the policy's absolute one.  Every route reads these ratios,
which neither overflow nor underflow at any n; only the values returned in
the kernel's units are scaled back, and they raise UnderflowLimit only
where that value is not a finite nonzero double: a midpoint derivative
once (pi/4) q^-n overflows, lambda_{n-j} once A_j |Lambda_j| underflows.

Routes 2 and 3 are one identity.  With P_q's terms p_j cos(j d), p_j =
2/(q^j + q^-j), gamma_5 = -s sum_{j > isqrt(n)} p_j cos(j d) cancels P_q's
tail term by term, and gamma_4's offsets delta_j turn each head term p_j,
1 <= j <= isqrt(n), into gamma_3's coefficient e_j.  So at the offset d_k =
t_k - y of midpoint k

    s P_q(d_k) + gamma_1 + ... + gamma_5
        = s/2 + gamma_2 + Re sum_{j<n} (c_j + e_j) e^(i j d_k),

where c_j are gamma_1's coefficients and e_0 = 0; the derivative at t_k is
(-1)^(k+1) pi/(4 n psi(n)) times this bracket.  The bracket needs no psi(n).
With A_j = psi(n-j)/(n-j), a_j = (psi(n)/n)/A_j = q^j (n-j)^2/n^2 <= 1,
Lambda_j = e^(ijy) lambda_{n-j}/A_j, r~_j = r_j/A_j and R~_j = |Lambda_j| -
1 - B_j/A_j (``_EigenAssembly``),

    c_j = w_j a_j (r~_j - R~_j s)/(|Lambda_j|^2 cos(j pi/2n)),
    e_j = 2 s a_j/(|Lambda_j| cos(j pi/2n)),  gamma_2 = -x s/(2 (2 + x)), x = R~_0,

w_0 = 1, w_j = 2, and c_j + e_j = f_j for j >= 1 and s/2 + gamma_2 + c_0 =
f_0 in real part, where

    f_j = w_j a_j / (cos(j pi/2n) conj(Lambda_j)),

so the bracket is Re sum_{j<n} f_j e^(i j d_k).  |Lambda_j| >= |sin(n y -
beta pi/2)|, so nothing overflows and no n lies past an underflow edge
(``_EigenAssembly._scaled``).  The verifier evaluates the brackets at all
2n midpoints from one length-2n FFT of twisted coefficients
(``_EigenAssembly._fft``), O(n log n), sums no series over the midpoints,
and reports brackets, with their scale pi/(4 n psi(n)) = (pi/4) q^-n as a
log10.  ``derivative_eigen(k)`` is bracket k times that scale.
``derivative_pq(k)`` evaluates the left side at one midpoint: gamma_1 and
gamma_3 from column k of one FFT of the coefficients c_j and e_j, run once
per assembly; gamma_4's sqrt(n) terms by ``math.fsum``; gamma_5's strip tail
by one ``_certified_sum`` and P_q by ``eval_pq``, both at the offset d = t_k
- y.  ``gammas(k)`` gives the same terms at every n, where the derivative
itself may overflow.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import DomainError, SignDegenerate, SingularSystem, UnderflowLimit
from .kernels import (DEFAULT_POLICY, EvalPolicy, KernelSpec, NeumannParams,
                      _accumulate_blocks, _certified_sum, _libm_powers, _pq_terms,
                      _reduce_phase, _unreachable, eval_bernoulli, eval_pq, eval_psi_beta1)
from .policy import _check_n
from .thresholds import gamma_budget
from .widths import solve_theta

SIGN_DEGENERATE_TOL = 1e-14
_SINGULAR_COND = 1e15
# the sign verdict's error bound (``verify_cy2n``): the FFT pass's tested
# error relative to its largest output, and the unit roundoff
_PASS_REL_ERROR = 1e-15
_UNIT_ROUNDOFF = 2.0**-53
_R1_BLOCK = 2**15  # entries (rows x n) per block of scaled r1 rows


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
    """The correction ledger of the P_q derivative representation at one
    midpoint, in the ratios of the verifier's pass, so it exists at every n.

    ``gamma`` holds gamma_1..gamma_5, and s P_q(t_k - y) + sum(gamma) is the
    derivative over (-1)^(k+1) (pi/4) q^-n; delta[j-1] are the relative
    eigenvalue offsets for j = 1..floor(sqrt(n)).  gamma_total is sum
    |gamma_m| and gamma_budget its certified bound (valid at the peak shift
    under the tail condition).  min_abs_lambda is min_j |Lambda_j|, the
    smallest eigenvalue magnitude over its main coefficient A_j.
    """

    k: int
    y: float
    s: float
    gamma: tuple[float, float, float, float, float]
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
    (x_k + x_{k+1})/2; ``signs`` the classified signs: +1 or -1 where
    |bracket| exceeds ``bound``, the error bound of every midpoint, and 0
    (unresolved) where it does not.  holds is true iff some single eps in
    {+1,-1} matches every resolved sign; ``unresolved`` counts the zeros.
    ``brackets`` are the midpoint derivatives in units of 10**log10_scale,
    log10_scale = log10(pi/4) - n log10(q): the derivative at t_k is
    brackets[k-1] (pi/4) q^-n, which overflows where q^n underflows, while
    the brackets do not.
    """

    holds: bool
    epsilon: int
    pattern: tuple[int, ...]
    signs: tuple[int, ...]
    unresolved: int
    bound: float
    brackets: tuple[float, ...]
    log10_scale: float


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


def _rho1(q: float, n: int, y: float, phase1: float, j: np.ndarray, squares: np.ndarray,
          tol: float, policy: EvalPolicy) -> np.ndarray | None:
    """The r1 tails in scaled units, rho1_j = r1_j/A_j for every j at once:
    real parts in row 0, imaginary in row 1; None when no row is needed.

    Row m >= 1 adds frequency (2m+1)n - j, of size q^(2mn) (n - j)^2/((2m+1)n
    - j)^2, and from m = 2 on frequency (2m-1)n + j, of size q^(2(m-1)n)
    q^(2j) (n - j)^2/((2m-1)n + j)^2, with ``squares`` = q^(2j).  Both are at
    most q^(2kn)/(2k+1)^2 (k = m, m - 1), so every lane's remainder after
    row m, and before row 1 for m = 1, is at most remainder(m).  The sum is
    ``_certified_sum`` over an empty row 0 and rows 1, 2, ..., bit for bit:
    the row count is bisected on remainder(m) <= tol before any row is
    built, and the rows (cos, sin and powers from libm) are added in blocks.
    """
    ratio = q ** (2 * n)

    def remainder(m: int) -> float:
        return 2.0 * q ** (2 * m * n) / ((2 * m + 1) ** 2 * (1.0 - ratio))

    if remainder(1) <= tol:
        return None
    cap = policy.max_terms  # row 0 is a term, so rows 1..cap-1 fit
    rows = 2 + bisect.bisect_left(range(2, cap), True, key=lambda m: remainder(m) <= tol)
    if rows >= cap:
        raise _unreachable("eigenvalue tail", remainder(max(cap - 1, 1)), tol, policy)

    def blocks(size: int):
        for m0 in range(1, rows + 1, size):
            k = np.arange(m0 - 1, min(m0 + size, rows + 1))  # row m reads k = m - 1, m
            x = ((2 * k + 1) * n * y - phase1).tolist()  # x_lo of row k + 1, x_hi of row k
            trig = np.stack([np.fromiter(map(f, x), float, len(x))
                             for f in (math.cos, math.sin)], axis=1)[:, :, np.newaxis]
            power = _libm_powers(q, (2 * n * k).tolist())[:, np.newaxis]
            m = k[1:, np.newaxis]
            hi = power[1:] * ((n - j) / ((2 * m + 1) * n - j)) ** 2
            lo = power[:-1] * squares * ((n - j) / ((2 * m - 1) * n + j)) ** 2
            terms = trig[1:] * hi[:, np.newaxis]
            first = 1 if m0 == 1 else 0  # row 1 has no x_lo term
            terms[first:] += trig[first:-1] * [[1.0], [-1.0]] * lo[first:, np.newaxis]
            yield terms
    s, c = _accumulate_blocks(blocks(max(1, _R1_BLOCK // n)), (2, n))
    return s + c


def _kernel_units(size: float, n: int, q: float, what: str) -> float:
    """``size``, the factor that takes a value asked for from the scaled
    pass to the kernel's units, where it is a finite nonzero double; raise
    UnderflowLimit where it is not, so the value would be 0 or inf."""
    if not 0.0 < size < math.inf:
        raise UnderflowLimit(
            f"{what} is {size:.3e} at n={n}, q={q}: not a finite nonzero double in the "
            "kernel's units (eigen_assembly and verify_cy2n hold it in scaled units)")
    return size


class _EigenAssembly:
    """Fourier-side decomposition of the eigenvalues lambda_{n-j}(y), j =
    0..n-1 (eigenvalue index l = n - j), of a Neumann kernel at shift y,
    built on first use in one array pass over j.

    With the main coefficients A_j = psi(n-j)/(n-j) and B_j = psi(n+j)/(n+j)
    and the tail pieces r1, r2, r3 of r_j, the rotated eigenvalue is
    e^(ijy) lambda_{n-j} = (A_j + B_j) s + r_j.

    The pass (``_scaled``) divides every piece by A_j, so nothing overflows
    or vanishes with psi(n).  One libm power row q^j, j < n, gives a_j =
    (psi(n)/n)/A_j = q^j (n-j)^2/n^2, B_j/A_j = a_j q^j n^2/(n+j)^2, and
    q^(2j) for the r1 rows.  Lambda_j = e^(ijy) lambda_{n-j}/A_j = (1 +
    B_j/A_j) sin(arg) + i (B_j/A_j - 1) cos(arg) + r1_j/A_j, arg = n y -
    beta pi/2, and the bracket coefficients are f_j = w_j a_j/(cos(j pi/2n)
    conj(Lambda_j)) (module docstring); a j whose q^j underflows has f_j = 0
    exactly.  The r1 rows are summed once (``_rho1``), and cut with a
    certified bound once they cannot matter (``_scaled``).  ``_brackets``
    reads all 2n midpoints from one FFT.

    The P_q route reads the same ratios (``_pq_rows``): gamma_1's c_j and
    the main coefficients e_j, which one length-2n FFT of twisted
    coefficients (``_g13``), run once per assembly, turns into gamma_1 and
    gamma_3 at every midpoint for ``gammas(k)``.  Only the values returned
    in the kernel's units are scaled back: a midpoint derivative is its
    bracket times (pi/4) q^-n, and lambda_{n-j} is A_j Lambda_j e^(-ijy).
    """

    def __init__(self, params: NeumannParams, n: int, y: float,
                 policy: EvalPolicy = DEFAULT_POLICY):
        _check_n(n)
        self._phase = _reduce_phase(params.beta)
        arg = n * y - self._phase
        sin_arg = math.sin(arg)
        if abs(sin_arg) < SIGN_DEGENERATE_TOL:
            raise SignDegenerate(
                f"sin(n y - beta pi/2) = {sin_arg:.2e} at y={y}: the Fourier "
                "decomposition is invalid here (use the finite node sum)")
        self._sin_arg, self._cos_arg = sin_arg, math.cos(arg)
        self._phase1 = _reduce_phase(params.beta, 1.0)
        self.n, self.y, self.q, self.policy = n, y, params.q, policy
        self.s = math.copysign(1.0, sin_arg)

    @functools.cached_property
    def _j(self) -> np.ndarray:
        return np.arange(self.n)

    @functools.cached_property
    def _scaled(self) -> SimpleNamespace:
        """The bracket coefficients f_j, j < n, with their inputs a_j,
        B_j/A_j, Lambda_j and ``weight`` = w_j a_j/cos(j pi/2n); the r1
        tails rho1_j = r1_j/A_j, summed to the tolerance tol (0 where no row
        is summed); ``smallest`` = min_j |Lambda_j|; and ``cut``, the bound
        on the bracket error from the r1 rows left out.

        Changing Lambda_j by delta changes f_j by |f_j| |delta|/|Lambda_j +
        delta|, so if every lane's r1 remainder is at most T, the brackets
        err by at most sum_j |f_j| T/(min_j |Lambda_j| - T).  The rows are
        summed (``_rho1``) until their remainder bound T reaches tol, the
        tighter of two tolerances.  One makes this a tenth of the pass's
        tested error at its smallest scale, 1e-15 |Re f_0| (Re f_0 is the
        mean bracket, so max_k |bracket_k| >= |Re f_0|), taken from the
        coefficients without r1; it is below 1e-16, so it is the tighter one
        at the default policy.  The other is policy.abs_tol/q: max_j A_j =
        A_{n-1} = q, so every r1_j = A_j rho1_j is within policy.abs_tol too.
        The remainder is at most (2/9) q^(2n)/(1 - q^(2n)), so past small n,
        or q near 1, no row is summed.  ``cut`` is the bound above at tol,
        from the final coefficients."""
        n, j = self.n, self._j
        powers = _libm_powers(self.q, j.tolist())
        a = powers * ((n - j) / n) ** 2
        b_over_a = a * (powers * (n / (n + j)) ** 2)
        weight = np.where(j == 0, 1.0, 2.0) * a / np.sin((n - j) * (math.pi / (2 * n)))

        def coefficients(lam):
            mag2 = lam.real**2 + lam.imag**2
            return weight * lam / mag2, math.sqrt(float(mag2.min()))

        lam = (1.0 + b_over_a) * self._sin_arg + 1j * ((b_over_a - 1.0) * self._cos_arg)
        f, smallest = coefficients(lam)
        total = float(np.abs(f).sum())
        tol = min(0.1 * _PASS_REL_ERROR * abs(float(f[0].real)) * smallest / (2.0 * total),
                  self.policy.abs_tol / self.q)
        rows = _rho1(self.q, n, self.y, self._phase1, j, powers * powers, tol, self.policy)
        rho1 = 0j
        if rows is not None:  # some rows were summed
            rho1 = rows[0] + 1j * rows[1]
            lam = lam + rho1
            f, smallest = coefficients(lam)
            total = float(np.abs(f).sum())
        cut = total * tol / (smallest - tol) if smallest > tol else math.inf
        return SimpleNamespace(f=f, a=a, b_over_a=b_over_a, lam=lam, weight=weight,
                               rho1=rho1, tol=tol, smallest=smallest, cut=cut)

    @functools.cached_property
    def _brackets(self) -> tuple[np.ndarray, float]:
        """The signed brackets (-1)^(k+1) Re sum_{j<n} f_j e^(i j d_k), whose
        signs are the derivatives' at t_1..t_2n, from one FFT; and their
        error bound (``verify_cy2n``)."""
        n = self.n
        f, cut = self._scaled.f, self._scaled.cut
        sums = self._fft(f[np.newaxis])[0]
        out = np.empty(2 * n)
        out[:-1], out[-1] = sums[1:], sums[0]  # t_k reads bin k mod 2n
        out[1::2] *= -1.0
        rounding = (32.0 + 2.0 * abs(n * self.y) + 4.0 * self._phase) / abs(self._sin_arg)
        bound = (_PASS_REL_ERROR * float(np.abs(out).max())
                 + _UNIT_ROUNDOFF * rounding * float(np.abs(f).sum()) + cut)
        return out, bound

    @functools.cached_property
    def _pq_rows(self) -> SimpleNamespace:
        """The P_q route's rows over j, ratios of ``_scaled``'s: r~_j =
        r_j/A_j, formed from its pieces rho1_j + i (B_j/A_j - 1) cos(arg) +
        (1 + B_j/A_j)(|sin(arg)| - 1) s, not as Lambda_j less its main term,
        which cancels; |Lambda_j|; R~_j = |Lambda_j| - 1 - B_j/A_j; gamma_1's
        c_j = w_j a_j (r~_j - R~_j s)/(|Lambda_j|^2 cos(j pi/2n)); and the
        main coefficients e_j = 2 s a_j/(|Lambda_j| cos(j pi/2n)), j >= 1,
        e_0 = 0.  |Lambda_j| >= |sin(arg)|, so no divisor vanishes."""
        sc, s = self._scaled, self.s
        r = (sc.rho1 + 1j * ((sc.b_over_a - 1.0) * self._cos_arg)
             + (1.0 + sc.b_over_a) * (abs(self._sin_arg) - 1.0) * s)
        lam_abs = np.abs(sc.lam)
        R = lam_abs - 1.0 - sc.b_over_a
        c = sc.weight * (r - R * s) / lam_abs**2
        e = np.where(self._j > 0, s * sc.weight / lam_abs, 0.0)
        return SimpleNamespace(r=r, R=R, lam_abs=lam_abs, c=c, e=e)

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= 2 * self.n:
            raise DomainError(f"k must lie in 1..2n, got k={k}, n={self.n}")

    def midpoint(self, k: int) -> float:
        self._check_k(k)
        return k * math.pi / self.n - math.pi / (2 * self.n)

    def _scale(self) -> float:
        """pi/(4 n psi(n)) = (pi/4) q^-n, a bracket's factor to the kernel's
        units; UnderflowLimit, before any O(n) array, where it overflows."""
        power = self.q ** self.n
        return _kernel_units(math.pi / 4.0 / power if power else math.inf, self.n, self.q,
                             "the derivative scale (pi/4) q^-n")

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
    def _g13(self) -> np.ndarray:
        """gamma_1 and gamma_3 (the main coefficients e_j with j > isqrt(n))
        at t_k in column k mod 2n, k = 1..2n: one ``_fft``.

        Error: against 40-digit direct sums over the same float inputs (r~_j,
        R~_j, s and the divisors |Lambda_j|^2 and |Lambda_j| over ``weight``)
        at the exact offsets (k - 1/2)pi/n - y, the largest error measured
        is 4.4e-16 sum_j |c_j|, at q up to 0.99 and n up to 300; the tests
        hold it to 1e-15 sum_j |c_j|."""
        rows = self._pq_rows
        e = np.where(self._j > math.isqrt(self.n), rows.e, 0.0)
        return self._fft(np.array([rows.c, e]))

    def derivative_eigen(self, k: int) -> float:
        """Midpoint derivative on interval k through the eigenvalue magnitudes:
        bracket k of the verifier's pass times (pi/4) q^-n."""
        self._check_k(k)
        scale = self._scale()
        return float(self._brackets[0][k - 1]) * scale

    def gammas(self, k: int) -> tuple[float, float, float, float, float]:
        """gamma_1..gamma_5 at midpoint t_k (needs n >= 2 for the sqrt split).

        gamma_1 and gamma_3 are column k of ``_g13``; gamma_2 is -x/(2(2 +
        x)) s with x = R~_0; gamma_4 = -sum delta_j cos(j d) e_j is one
        math.fsum over its sqrt(n) terms, and gamma_5, the P_q tail from j =
        isqrt(n) + 1, one ``_certified_sum``, both at d = t_k - y."""
        d = self.midpoint(k) - self.y
        n, s = self.n, self.s
        if n < 2:
            raise DomainError("the P_q decomposition needs n >= 2")
        g1, g3 = self._g13[:, k % (2 * n)].tolist()
        x = float(self._pq_rows.R[0])
        root = math.isqrt(n)
        head = slice(1, root + 1)
        g4 = -math.fsum((np.array(self._deltas) * np.cos(d * self._j[head])
                         * self._pq_rows.e[head]).tolist())
        strip, strip_c = _certified_sum(_pq_terms(self.q, d, root + 1), self.policy.abs_tol,
                                        self.policy, "strip-kernel tail")
        g5 = -s * (strip + strip_c)  # P_q's terms already carry the factor 2
        return g1, -x / (2.0 * (2.0 + x)) * s, g3, g4, g5

    def delta(self, j: int) -> float:
        """Relative offset of n |lambda_{n-j}| cos(j pi/2n) from (q^-j + q^j)
        psi(n): |Lambda_j| cos(j pi/2n) n^2/((n-j)^2 (1 + q^(2j))) - 1, with
        no q^-j, which overflows."""
        n = self.n
        return (float(self._pq_rows.lam_abs[j]) * math.cos(j * math.pi / (2 * n))
                * (n / (n - j)) ** 2 / (1.0 + self.q ** (2 * j)) - 1.0)

    @functools.cached_property
    def _deltas(self) -> tuple[float, ...]:
        """delta_j for j = 1..isqrt(n): they do not depend on the midpoint."""
        return tuple(self.delta(j) for j in range(1, math.isqrt(self.n) + 1))

    def derivative_pq(self, k: int) -> tuple[float, GammaLedger]:
        """Midpoint derivative via P_q plus the five correction terms: the
        bracket s P_q(d) + sum gamma times (-1)^(k+1) (pi/4) q^-n."""
        d = self.midpoint(k) - self.y
        scale = self._scale()
        gs = self.gammas(k)
        bracket = eval_pq(self.q, d, self.policy) * self.s + math.fsum(gs)
        sign_k = 1.0 if k % 2 == 1 else -1.0
        ledger = GammaLedger(k=k, y=self.y, s=self.s, gamma=gs, delta=self._deltas,
                             gamma_total=sum(abs(g) for g in gs),
                             gamma_budget=gamma_budget(self.q, self.n),
                             min_abs_lambda=self._scaled.smallest)
        return sign_k * scale * bracket, ledger


def lambda_fourier(params: NeumannParams, n: int, j: int, y: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> complex:
    """Eigenvalue lambda_{n-j}(y) assembled from Fourier coefficient tails:
    A_j Lambda_j e^(-ijy), with Lambda_j from the scaled pass.

    Requires sin(n y - beta pi/2) != 0; raises SignDegenerate otherwise
    (the decomposition through the sign factor is meaningless there, while
    lambda_finite_sum still works).  Raises UnderflowLimit where
    |lambda_{n-j}| = A_j |Lambda_j| underflows to zero.
    """
    if not 0 <= j <= n - 1:
        raise DomainError(f"j must lie in 0..n-1, got j={j}, n={n}")
    assembly = _EigenAssembly(params, n, y, policy)
    main = params.psi(n - j) / (n - j)  # A_j; a zero one needs no O(n) pass
    lam = main * complex(assembly._scaled.lam[j]) if main else 0j
    _kernel_units(abs(lam), n, params.q, f"|lambda_(n-j)| at j={j}")
    return cmath.exp(-1j * j * y) * lam


def eigen_assembly(params: NeumannParams, n: int, y: float,
                   policy: EvalPolicy = DEFAULT_POLICY) -> _EigenAssembly:
    """The reusable Fourier-side decomposition for all j at once, in the
    verifier's scaled units, its r1 tails within policy.abs_tol and within
    1e-16 A_j at the default policy.  Its passes run on first use; only
    the values returned in the kernel's units can raise UnderflowLimit."""
    return _EigenAssembly(params, n, y, policy)


def derivative_eigen(params: NeumannParams, n: int, y: float, k: int,
                     policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Fundamental-spline derivative on interval ((k-1)pi/n, k pi/n) through
    the eigenvalue-magnitude representation: the verifier's bracket k times
    (pi/4) q^-n, so it raises UnderflowLimit only where that overflows."""
    return eigen_assembly(params, n, y, policy).derivative_eigen(k)


def derivative_pq(params: NeumannParams, n: int, y: float, k: int,
                  policy: EvalPolicy = DEFAULT_POLICY) -> tuple[float, GammaLedger]:
    """Fundamental-spline derivative via the P_q representation, with the
    complete correction ledger; UnderflowLimit only where (pi/4) q^-n
    overflows (``_EigenAssembly.gammas`` gives the ledger's terms there)."""
    return eigen_assembly(params, n, y, policy).derivative_pq(k)


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

    All 2n brackets come from one length-2n FFT of the eigen form in scaled
    units (module docstring), at every n >= 1, in O(n log n): no series is
    summed over the midpoints, and nothing underflows or overflows at any n,
    so the verdict reaches the paper's thresholds (n_q = 1717 at q = 0.5,
    40878 at q = 0.6).  The eigen form is the P_q representation with
    gamma_4 and gamma_5 cancelled exactly, so it stays numerically faithful
    at indices where the direct solve is condition-limited.  Against
    40-digit sums over the same coefficients f_j at the exact offsets
    (k - 1/2)pi/n - y, the largest error measured is 5.8e-16 max_k
    |bracket_k| (q from 0.01 to 0.95, every beta class, n up to 300).  The
    tests hold it to 1e-15 max_k |bracket_k|; they hold the brackets to
    within ``bound`` of an independent pass, one FFT of the coefficients
    c_j + e_j over a per-j decomposition whose r1 tails are summed to
    1e-300, on the benchmark's ladders and at q up to 0.99, and the
    P_q route (``derivative_pq``, and ``gammas`` at the paper's thresholds)
    to within 1e-14 max_k |bracket_k| of them.

    Each midpoint's sign is classified against one stated error bound
    (``Cy2nVerdict.bound``), the same at every midpoint k, in bracket units:

        eps_k = 1e-15 max_k |bracket_k| + u rho sum_j |f_j| + cut,

    the pass's tested error, the rounding of its inputs and the r1 rows
    left out.  u = 2^-53, and each f_j is within rho u |f_j| of its exact
    value, rho = (32 + 2 n y + 4 (beta pi/2 mod 2 pi))/|sin(n y - beta
    pi/2)|: 32 for the arithmetic that forms f_j, the rest for the rounding
    of the shift argument n y - beta pi/2 (measured: at most 5.3 u at the
    peak shift against 40-digit coefficients, q from 0.05 to 0.95, n up to
    90).  ``cut`` is the certified
    bound on the r1 rows left out, at most a tenth of the first term
    (``_EigenAssembly._scaled``).  A midpoint with |bracket_k| <= eps_k is
    unresolved (sign 0).  holds is true only if every resolved sign
    alternates, so it says nothing of the unresolved midpoints; near q = 1,
    where P_q is far below 1e-15 of its peak, many are unresolved.  The
    call runs no Python loop over j or over the midpoints: the coefficients
    come from one libm power row (``kernels._libm_powers``), and the signs
    are array operations.
    """
    if y is None:
        y = solve_theta(params, n, policy).y0
    else:
        _check_shift(n, y)
    brackets, bound = _EigenAssembly(params, n, y, policy)._brackets
    holds, epsilon, pattern, signs = classify_sign_pattern(brackets, bound)
    return Cy2nVerdict(holds=holds, epsilon=epsilon, pattern=pattern, signs=signs,
                       unresolved=signs.count(0), bound=bound,
                       brackets=tuple(brackets.tolist()),
                       log10_scale=math.log10(math.pi / 4.0) - n * math.log10(params.q))
