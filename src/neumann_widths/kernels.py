"""Kernel evaluators with certified series-tail control.

Everything here is a pure function of its arguments.  Each truncated series
carries an explicit tail bound, and summation is compensated so downstream
determinant tests can rely on ~1e-16 entry accuracy.

Every tail-checked series in the package (here, in ``widths`` and in
``sk_spline``) runs through ``_certified_sum``: it adds the terms in order
with a Kahan-Babuska update, stops after the first term whose tail is
``<= tol``, and adds at most ``policy.max_terms`` terms; if the tail is still
above ``tol`` after the last of them it raises ``TolUnreachable`` with
``terms_used = max_terms`` and that tail as ``tail_bound``.
``_certified_lane_sum`` is the same loop over arrays of lanes that share
one tail sequence (the P_q terms at many points t): each lane gets the
scalar update bit for bit, and all lanes stop, or hit the cap, together.

Conventions
-----------
* ``N_{q,beta}(t)  = sum_{k>=1} q^k/k * cos(k t - beta*pi/2)``, 0 < q < 1.
* ``Psi_beta(t)    = sum_{k>=1} psi(k) * cos(k t - beta*pi/2)`` for a positive
  summable coefficient sequence ``psi``.
* ``Psi_{beta,1}`` is ``Psi_beta`` convolved with the Bernoulli kernel ``B_1``,
  i.e. coefficients ``psi(k)/k`` and phase ``(beta+1)*pi/2``.
* The phase is 4-periodic in ``beta``; ``beta`` is reduced mod 4 before any
  trigonometry to avoid large-argument error.

Certified error bounds are only claimed for the geometric Neumann
coefficients ``psi(k) = q^k/k``.  General ``KernelSpec`` sequences are
supported through the user-supplied ``tail_bound``, which the evaluators
trust as stated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, TolUnreachable

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EvalPolicy:
    """Truncation policy: absolute tolerance plus a hard cap on terms."""

    abs_tol: float = 1e-14
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_POLICY = EvalPolicy()


@dataclass(frozen=True)
class NeumannParams:
    """Parameter pair (q, beta) of the Neumann kernel, psi(k) = q^k/k."""

    q: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0) or not math.isfinite(self.q):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")

    @property
    def beta_mod4(self) -> float:
        """Phase parameter reduced to [0, 4); the kernel is 4-periodic in beta."""
        return self.beta % 4.0

    def psi(self, k: int) -> float:
        return self.q**k / k

    def tail_bound(self, k: int) -> float:
        """Upper bound on sum_{m>k} q^m/m (geometric tail)."""
        return self.q ** (k + 1) / ((k + 1) * (1.0 - self.q))

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


def _certified_sum(terms: Iterable[tuple[float, float]], tol: float,
                   policy: EvalPolicy, label: str,
                   start: float = 0.0) -> tuple[float, float]:
    """(sum, compensation) of a series given as (term, tail_after_term) pairs.

    Stops after the first term whose tail is <= tol; ``tail`` is whatever
    quantity the caller compares with ``tol``.  Raises TolUnreachable once
    policy.max_terms terms are added without that happening.
    """
    s, c = start, 0.0
    for term, tail in itertools.islice(terms, policy.max_terms):
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
        if tail <= tol:
            return s, c
    raise _unreachable(label, tail, tol, policy)


def _certified_lane_sum(terms: Iterable[tuple[np.ndarray, float]], tol: float,
                        policy: EvalPolicy, label: str,
                        start: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``_certified_sum`` over lanes: each term is an array with one entry per
    lane, and its tail holds for every lane.  Each lane's (sum, compensation)
    is the one ``_certified_sum`` gives for that lane's terms."""
    s, c = start, 0.0
    for term, tail in itertools.islice(terms, policy.max_terms):
        t = s + term
        c = c + np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
        s = t
        if tail <= tol:
            return s, c
    raise _unreachable(label, tail, tol, policy)


def _unreachable(label: str, tail: float, tol: float, policy: EvalPolicy) -> TolUnreachable:
    return TolUnreachable(
        f"{label}: tail {tail:.3e} still above {tol:.3e} after {policy.max_terms} terms",
        terms_used=policy.max_terms, tail_bound=tail)


def _cosine_terms(coef, tail, phase, t):
    """Terms coef(k) * cos(k*t - phase), k >= 1, with tail(k) after each."""
    u = math.fmod(t, TWO_PI)
    for k in itertools.count(1):
        yield coef(k) * math.cos(k * u - phase), tail(k)


def _neumann_terms(params: NeumannParams, t: float):
    """_cosine_terms for psi(k) = q^k/k, with NeumannParams.psi and
    NeumannParams.tail_bound written inline (the hot path of det_D)."""
    q = params.q
    phase = _reduce_phase(params.beta)
    u = math.fmod(t, TWO_PI)
    r = 1.0 - q
    for k in itertools.count(1):
        yield q**k / k * math.cos(k * u - phase), q ** (k + 1) / ((k + 1) * r)


def eval_neumann(params: NeumannParams, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate the Neumann kernel N_{q,beta}(t) to within policy.abs_tol.

    The truncation index K satisfies q^(K+1)/((K+1)(1-q)) <= abs_tol.
    """
    s, c = eval_neumann_pair(params, t, policy)
    return s + c


def eval_neumann_pair(params: NeumannParams, t: float,
                      policy: EvalPolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Like eval_neumann but returns the (sum, compensation) pair.

    Feeding both words into double-double arithmetic keeps the extra
    accuracy the compensated accumulator collected.
    """
    return _certified_sum(_neumann_terms(params, t), policy.abs_tol, policy, "eval_neumann")


def eval_psi_beta(spec: KernelSpec, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate Psi_beta(t) = sum psi(k) cos(k t - beta*pi/2)."""
    terms = _cosine_terms(spec.psi, spec.tail_bound, _reduce_phase(spec.beta), t)
    s, c = _certified_sum(terms, policy.abs_tol, policy, "eval_psi_beta")
    return s + c


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
    term per lane."""
    for j in itertools.count(j0):
        yield 2.0 * cos(j * u) / (q**j + q**-j), 2.0 * q ** (j + 1) / (1.0 - q)


def eval_pq(q: float, t: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Evaluate P_q(t) = 1/2 + 2 sum_{j>=1} cos(j t)/(q^j + q^-j).

    Tail after J terms is below 2 q^(J+1)/(1-q).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
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
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    z = math.fmod(t, TWO_PI) / 2.0
    return 0.5 * _theta(0.0, q, 1.0) * _theta4(0.0, q) * _theta(z, q, 1.0) / _theta4(z, q)


def pq_floor(q: float) -> float:
    """Strict lower bound for P_q on the whole real line:
    (1/2 + 2q/((1+q^2)(1-q))) * ((1-q)/(1+q))^(4/(1-q^2)).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
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
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    return q**n
