"""Kernel evaluators with certified series-tail control.

Everything here is a pure function of its arguments.  Each truncated series
carries an explicit tail bound, and summation is compensated so downstream
determinant tests can rely on ~1e-16 entry accuracy.

The compensated update is one expression, ``_two_sum_error``: Knuth's
branch-free TwoSum, which gives the exact rounding error of one addition
for floats and numpy arrays alike.  Every tail-checked series in the
package (here, in ``widths`` and in ``sk_spline``) runs through
``_certified_sum``: it adds the terms in order, collects each addition's
error in a compensation word, stops after the first term whose tail is
``<= tol``, and adds at most ``policy.max_terms`` terms; if the tail is still
above ``tol`` after the last of them it raises ``TolUnreachable`` with
``terms_used = max_terms`` and that tail as ``tail_bound``.  Its terms may
be arrays of lanes that share one tail sequence: each lane then gets the
scalar sum bit for bit, and all lanes stop, or hit the cap, together.  A
long series whose stopping index is known first runs in blocks of terms,
added bit for bit the same by ``_accumulate_blocks``: the Neumann kernel at
many points (``_cosine_block_sum``) and ``sk_spline``'s r1 eigenvalue
tails (``_rho1``, one lane per index j).  The Neumann tail does not depend
on t, so ``_neumann_row`` bisects the scalar tail ``tail_bound`` for the
common stopping index K (or raises the same ``TolUnreachable``) and builds
one row of K libm powers q^k.  The coefficient q^k/k is written once, in
``NeumannParams.coefficient``, as a function of the power that takes floats
or arrays: the scalar path reaches it through ``psi``, and the row applies
it to its powers.  ``_libm_powers`` is the package's one power row, here and in
``sk_spline``.  The Neumann kernel also has a closed form over arrays,
``eval_neumann_closed``: one log and one atan2 per value, with an absolute
error bound per value.  ``cvd.det_D`` eliminates its values, and only its
exact fallback takes the series words.

Conventions
-----------
* ``N_{q,beta}(t)  = sum_{k>=1} q^k/k * cos(k t - beta*pi/2)``, 0 < q < 1.
* ``Psi_beta(t)    = sum_{k>=1} psi(k) * cos(k t - beta*pi/2)`` for a positive
  summable coefficient sequence ``psi``.
* ``Psi_{beta,1}`` is ``Psi_beta`` convolved with the Bernoulli kernel ``B_1``,
  i.e. coefficients ``psi(k)/k`` and phase ``(beta+1)*pi/2``.
* The phase is 4-periodic in ``beta``; ``_reduce_phase``, the package's one
  formula for it, reduces ``beta`` mod 4 before any trigonometry to avoid
  large-argument error.  The tests of 0 < q < 1, a finite beta and n >= 1
  are ``policy``'s ``_check_q``, ``_check_beta`` and ``_check_n``.

Certified error bounds are only claimed for the geometric Neumann
coefficients ``psi(k) = q^k/k``.  General ``KernelSpec`` sequences are
supported through the user-supplied ``tail_bound``, which the evaluators
trust as stated.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import TolUnreachable
from .policy import DEFAULT_POLICY, EvalPolicy, _check_beta, _check_n, _check_q

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NeumannParams:
    """Parameter pair (q, beta) of the Neumann kernel, psi(k) = q^k/k."""

    q: float
    beta: float

    def __post_init__(self):
        _check_q(self.q)
        _check_beta(self.beta)

    @property
    def beta_mod4(self) -> float:
        """Phase parameter reduced to [0, 4); the kernel is 4-periodic in beta."""
        return self.beta % 4.0

    def psi(self, k: int) -> float:
        return self.coefficient(self.q**k, k)

    def tail_bound(self, k: int) -> float:
        """q^(k+1)/((k+1)(1-q)), an upper bound on sum_{m>k} q^m/m (geometric tail)."""
        return self.q ** (k + 1) / ((k + 1) * (1.0 - self.q))

    @staticmethod
    def coefficient(power, k):
        """psi(k) = q^k/k from power = q^k; floats or arrays alike."""
        return power / k

    def spec(self) -> "KernelSpec":
        return KernelSpec(psi=self.psi, beta=self.beta, tail_bound=self.tail_bound)


@dataclass(frozen=True)
class KernelSpec:
    """A generating kernel: positive summable coefficients plus a phase.

    ``tail_bound(K)`` must bound ``sum_{k>K} psi(k)`` from above, be
    nonincreasing in K and tend to zero; truncating ``Psi_beta`` at K then
    differs from the limit by at most ``tail_bound(K)``.
    """

    psi: Callable[[int], float]
    beta: float
    tail_bound: Callable[[int], float]


def _reduce_phase(beta: float, shift: float = 0.0) -> float:
    return (beta % 4.0 + shift) * (math.pi / 2.0)


def _two_sum_error(a, b, s):
    """The rounding error of s = fl(a + b), exactly: a + b == s + error.

    Knuth's TwoSum, branch-free, for floats or elementwise over arrays."""
    bp = s - a
    return (a - (s - bp)) + (b - bp)


def _certified_sum(terms: Iterable[tuple], tol: float, policy: EvalPolicy, label: str,
                   start: float = 0.0) -> tuple:
    """(sum, compensation) of a series given as (term, tail_after_term) pairs.

    Stops after the first term whose tail is <= tol; ``tail`` is whatever
    quantity the caller compares with ``tol``.  Raises TolUnreachable once
    policy.max_terms terms are added without that happening.  A term may be
    an array with one entry per lane, its tail holding for every lane: each
    lane's (sum, compensation) is then the one its own terms give.
    """
    s, c = start, 0.0
    for term, tail in itertools.islice(terms, policy.max_terms):
        t = s + term
        c += _two_sum_error(s, term, t)
        s = t
        if tail <= tol:
            return s, c
    raise _unreachable(label, tail, tol, policy)


def _unreachable(label: str, tail: float, tol: float, policy: EvalPolicy) -> TolUnreachable:
    return TolUnreachable(
        f"{label}: tail {tail:.3e} still above {tol:.3e} after {policy.max_terms} terms",
        terms_used=policy.max_terms, tail_bound=tail)


# Rows (k values) per chunk of a block sum: bounds its memory at any K.
_BLOCK_ROWS = 1024


def _libm_powers(q: float, exponents) -> np.ndarray:
    """q**k for each k of the sequence ``exponents``, bit for bit Python's
    float power: libm's ``pow`` through ``math.pow``.  numpy's vectorised
    power can differ from libm in the last bit, so it is not used."""
    return np.fromiter(map(math.pow, itertools.repeat(q), exponents), float, len(exponents))


def _neumann_row(params: NeumannParams, policy: EvalPolicy) -> np.ndarray:
    """The coefficients psi(k) = q^k/k, k = 1..K, that ``eval_neumann_pair`` adds.

    The tail after term k, ``params.tail_bound(k)``, does not depend on t, so
    every point stops at the same K: the first k whose tail is
    <= policy.abs_tol.  K is bisected on that same scalar tail, as
    ``sk_spline._rho1`` bisects its own, and one row of exactly K libm powers
    gives the coefficients (``params.coefficient``), each bit for bit the
    scalar one.  Raises the TolUnreachable of ``eval_neumann_pair`` when no
    k up to policy.max_terms qualifies.

    Bisection finds the first hit because the computed tail
    q^(k+1)/((k+1)(1-q)) is nonincreasing in k: its denominator only grows,
    and consecutive libm powers fall whenever q <= 1 - 2.3e-16 in the normal
    range, where one step by the factor q outweighs the rounding of both
    powers; once they are subnormal, rounding a falling value cannot make
    it rise.  A dense check of 4900 (q, abs_tol) pairs (700 q from 1e-300
    to 1 - 10^-4.5, abs_tol from 1e-14 down to 5e-324, cap 4e5) found the
    bisected K equal to the first-hit K on every pair, and no computed
    tail rising anywhere along the scanned k.
    """
    tol, cap = policy.abs_tol, policy.max_terms
    k = 1 + bisect.bisect_left(range(1, cap + 1), True,
                               key=lambda k: params.tail_bound(k) <= tol)
    if k > cap:
        raise _unreachable("eval_neumann", params.tail_bound(cap), tol, policy)
    return params.coefficient(_libm_powers(params.q, range(1, k + 1)), np.arange(1.0, k + 1.0))


def _cosine_block_sum(coef: np.ndarray, phase: float,
                      t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_certified_sum`` of coef[k-1] * cos(k u - phase), k = 1..len(coef),
    u = fmod(t, 2pi), at every entry of the array t in one block pass.

    Each block, ``_BLOCK_ROWS`` values of k by the entries, is formed in
    place and added by ``_accumulate_blocks``.
    """
    u = np.fmod(t, TWO_PI)
    shape = (-1,) + (1,) * u.ndim

    def blocks():
        for k0 in range(0, len(coef), _BLOCK_ROWS):
            a = coef[k0:k0 + _BLOCK_ROWS]
            terms = np.arange(k0 + 1.0, k0 + 1.0 + len(a)).reshape(shape) * u
            terms -= phase
            np.cos(terms, out=terms)
            terms *= a.reshape(shape)
            yield terms
    return _accumulate_blocks(blocks(), u.shape)


def _accumulate_blocks(blocks: Iterable[np.ndarray], shape) -> tuple[np.ndarray, np.ndarray]:
    """(sum, compensation) of the rows of the blocks, in order: bit for bit
    ``_certified_sum`` over them one row at a time, less its tail test.  Rows
    have ``shape``; the blocks are overwritten.

    ``np.add.accumulate`` down the rows gives the running sums in the scalar
    loop's order (``np.sum`` may add pairwise); each addition's error
    (``_two_sum_error``) comes from two consecutive running sums, and a
    second accumulate adds the errors.  A block's first row is added before
    the accumulate, its error to the compensation: in the first block that
    is 0.0 + term, as in the scalar loop (it turns -0.0 into 0.0), with an
    error that is always 0 and not formed.  The first error of the rest
    takes the compensation so far, so no block is copied.
    """
    s, c = 0.0, np.zeros(shape)
    for i, terms in enumerate(blocks):
        head = s + terms[0]
        if i:
            c = c + _two_sum_error(s, terms[0], head)
        terms[0] = head
        sums = np.add.accumulate(terms, axis=0)
        corr = _two_sum_error(sums[:-1], terms[1:], sums[1:])
        if len(corr):
            corr[0] += c
            c = np.add.accumulate(corr, axis=0)[-1]
        s = sums[-1]
    return s, c


def _cosine_terms(coef, tail, phase, t):
    """Terms coef(k) * cos(k*t - phase), k >= 1, with tail(k) after each."""
    u = math.fmod(t, TWO_PI)
    for k in itertools.count(1):
        yield coef(k) * math.cos(k * u - phase), tail(k)


def eval_neumann(params: NeumannParams, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate the Neumann kernel N_{q,beta}(t) to within policy.abs_tol.

    The truncation index K satisfies q^(K+1)/((K+1)(1-q)) <= abs_tol.
    """
    s, c = eval_neumann_pair(params, t, policy)
    return s + c


def eval_neumann_pair(params: NeumannParams, t: float,
                      policy: EvalPolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Like eval_neumann but returns the (sum, compensation) pair.

    The determinant's exact fallback takes the exact sum of both words, so
    it keeps the extra accuracy the compensated accumulator collected.
    """
    terms = _cosine_terms(params.psi, params.tail_bound, _reduce_phase(params.beta), t)
    return _certified_sum(terms, policy.abs_tol, policy, "eval_neumann")


# c of the closed form's error bound c u (1 + |L|/2 + |A|), u = 2^-53
_CLOSED_FORM_C = 16.0


def eval_neumann_closed(params: NeumannParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N_{q,beta}(t) at every entry of the array t from its closed form, and
    an absolute error bound for each value.

    N = -Re(e^(-i phi) log(1 - q e^(it))), phi = ``_reduce_phase(beta)``, in
    the real form without cancellation: with s = sin(t/2),
    |1 - q e^(it)|^2 = (1-q)^2 + 4q s^2 and 1 - q cos t = (1-q) + 2q s^2, so

        L = log((1-q)^2 + 4q s^2),  A = atan2(q sin t, (1-q) + 2q s^2),
        N = -cos(phi) L/2 + sin(phi) A.

    (The textbook 1 - q cos t loses all of its digits near q = 1, t = 0.)
    The bound is 16 u (1 + |L|/2 + |A|), u = 2^-53, against the exact
    phase beta pi/2, the float t taken as exact.  It assumes each sin, cos,
    log and atan2 within one ulp (relative error 2u) and each arithmetic
    operation correctly rounded; to first order, in units of u:

    * s has error 2, q s^2 (twice rounded) 6, and 1 - q 1 (0 for q >= 1/2,
      by Sterbenz), its square 3.  Sums of nonnegative terms add one to the
      larger relative error: the log argument is off by 7, so L by
      7 + 2|L|; q sin t is off by 3 and 1 - q cos t, which is positive, by
      7.  Relative errors r_y, r_z move atan2(y, z) by
      (r_y - r_z) yz/(y^2 + z^2), at most (3 + 7)/2, so A is off by 5 + 2|A|.
    * beta mod 4 rounds by at most 2 (in beta, for a negative beta), the
      float pi/2 is 0.55 low, and the product phi < 2pi rounds by at most
      4: phi is off by 2 pi/2 + 4 * 0.55 + 4 < 9.4, cos(phi) and sin(phi)
      by 11.4.
    * The two products and the sum round by 2 (|L|/2 + |A|) at most.

    The total, 3.5 + 5 + 15.4 (|L|/2 + |A|), lies within 16 (1 + |L|/2 +
    |A|) with room for the second-order terms (|L| < 74, since 1 - q >=
    2^-53).  On two seeded sets of 20 000 points (q up to 1 - 10^-8, t near
    0, +-2pi and pi, beta in [-8, 8]; numpy 2.4 on x86-64 with AVX-512) the
    worst error was 1.9 u times 1 + |L|/2 + |A| against the computed phi
    and 5.0 u against the exact phase, where phi's rounding dominates.
    """
    phi = _reduce_phase(params.beta)
    q, p = params.q, 1.0 - params.q
    s = np.sin(0.5 * t)
    qs2 = q * (s * s)
    log_mod = np.log(p * p + 4.0 * qs2)
    arg = np.arctan2(q * np.sin(t), p + 2.0 * qs2)
    value = (-0.5 * math.cos(phi)) * log_mod + math.sin(phi) * arg
    bound = _CLOSED_FORM_C * 2.0**-53 * (1.0 + 0.5 * np.abs(log_mod) + np.abs(arg))
    return value, bound


def eval_psi_beta1(spec: KernelSpec, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate the integrated kernel Psi_{beta,1}(t) = (Psi_beta * B_1)(t).

    Coefficients psi(k)/k, phase (beta+1)*pi/2; remainder after K terms is
    bounded by tail_bound(K)/(K+1).
    """
    terms = _cosine_terms(lambda k: spec.psi(k) / k,
                          lambda k: spec.tail_bound(k) / (k + 1),
                          _reduce_phase(spec.beta, shift=1.0), t)
    s, c = _certified_sum(terms, policy.abs_tol, policy, "eval_psi_beta1")
    return s + c


def eval_bernoulli(t: float) -> float:
    """Bernoulli kernel B_1(t) = sum_k sin(k t)/k via its sawtooth closed form.

    Equals (pi - (t mod 2pi))/2 on (0, 2pi) and 0 at t = 0 (mod 2pi); the
    series itself converges far too slowly to evaluate directly.
    """
    u = t % TWO_PI
    if u == 0.0:
        return 0.0
    return (math.pi - u) / 2.0


def _pq_terms(q: float, u, j0: int = 1, cos=math.cos):
    """Terms 2 cos(j u)/(q^j + q^-j), j >= j0, of P_q, each with the tail
    bound 2 q^(j+1)/(1-q) after it; an array u with cos = np.cos gives one
    term per lane.  A term is formed as 2 q^j cos(j u)/(1 + q^(2j)), since
    q^-j overflows from j0 = 155 at q = 0.01."""
    for j in itertools.count(j0):
        yield 2.0 * q**j * cos(j * u) / (1.0 + q ** (2 * j)), 2.0 * q ** (j + 1) / (1.0 - q)


def eval_pq(q: float, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate P_q(t) = 1/2 + 2 sum_{j>=1} cos(j t)/(q^j + q^-j).

    Tail after J terms is below 2 q^(J+1)/(1-q).
    """
    _check_q(q)
    s, c = _certified_sum(_pq_terms(q, math.fmod(t, TWO_PI)), policy.abs_tol, policy,
                          "eval_pq", start=0.5)
    return s + c


def _theta(z: float, q: float, sign: float) -> float:
    """theta3(z) (sign = 1) or theta4(z) (sign = -1) in nome q:
    1 + 2 sum_m sign^m q^(m^2) cos(2 m z).

    Sums while the terms' size q^(m^2) stays >= 1e-20: a cutoff on term
    size, not a certified tail bound.
    """
    terms = ((2.0 * sign**m * q ** (m * m) * math.cos(2.0 * m * z), q ** ((m + 1) * (m + 1)))
             for m in itertools.count(1))
    s, c = _certified_sum(terms, math.nextafter(1e-20, 0.0), DEFAULT_POLICY, "theta",
                          start=1.0)
    return s + c


_theta4 = partial(_theta, sign=-1.0)


def eval_pq_theta(q: float, t: float) -> float:
    """P_q(t) through its theta-quotient form,
    (theta3(0) theta4(0) / 2) * theta3(t/2) / theta4(t/2), all in nome q.

    Keeps *relative* accuracy near the minima of P_q, where the plain cosine
    series (absolute error ~ machine epsilon per term) cannot resolve the
    exponentially small positive values once q is close to 1.
    """
    _check_q(q)
    z = math.fmod(t, TWO_PI) / 2.0
    return 0.5 * _theta(0.0, q, 1.0) * _theta4(0.0, q) * _theta(z, q, 1.0) / _theta4(z, q)


def pq_floor(q: float) -> float:
    """Strict lower bound for P_q on the whole real line:
    (1/2 + 2q/((1+q^2)(1-q))) * ((1-q)/(1+q))^(4/(1-q^2)).
    """
    _check_q(q)
    lead = 0.5 + 2.0 * q / ((1.0 + q * q) * (1.0 - q))
    return lead * ((1.0 - q) / (1.0 + q)) ** (4.0 / (1.0 - q * q))


def eval_gq(q: float, n: int, x: float) -> float:
    """Closed form of G_q(x) = sum_nu q^((2nu+1)n)/((2nu+1)n) cos((2nu+1)x).

    Equals (1/(4n)) * ln((1 + 2 q^n cos x + q^(2n)) / (1 - 2 q^n cos x + q^(2n))),
    evaluated through log1p so accuracy is preserved when q^n is tiny.
    """
    a = _geometric_amplitude(q, n)
    u = 2.0 * a * math.cos(x)
    a2 = a * a
    return (math.log1p(u + a2) - math.log1p(-u + a2)) / (4.0 * n)


def eval_hq(q: float, n: int, x: float) -> float:
    """Closed form of H_q(x) = sum_nu q^((2nu+1)n)/((2nu+1)n) sin((2nu+1)x),
    i.e. (1/(2n)) * atan(2 q^n sin x / (1 - q^(2n)))."""
    a = _geometric_amplitude(q, n)
    return math.atan(2.0 * a * math.sin(x) / (1.0 - a * a)) / (2.0 * n)


def _geometric_amplitude(q: float, n: int) -> float:
    _check_q(q)
    _check_n(n)
    return q**n
