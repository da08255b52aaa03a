"""Sufficient-condition thresholds: the index from which width equalities hold.

Two strict inequalities on (q, n) are evaluated at machine precision:

* tail condition  --  q^n/(1-q^(2n)) <= min(2 q^sqrt(n) / (15 n^2),
  (8/(3n^2)) ((2n-1)/(7(n-1)^2) - pi^2/(8n^2))); it guarantees the
  eigenvalue-magnitude margins used by the spline analysis.

* budget condition  --  (24/(5(1-q))) q^sqrt(n)
  + (160/63) ((2 sqrt(n)-1)/(n (sqrt(n)-1))) q/(1-q)^2
  <= (1/2 + 2q/((1+q^2)(1-q))) ((1-q)/(1+q))^(4/(1-q^2)); it keeps the
  total correction-term budget under the strict positive floor of P_q.

Here sqrt(n) is the real square root.  The smallest n >= 2 satisfying both
is found by an upward scan over blocks of n: numpy evaluates both
conditions for a whole block, and every n where a side lies within a few
ulps of its bound is re-decided by the scalar ``verdict``, so the result is
the one a scalar scan gives, bit for bit.  Once n log2(1/q) > 1080, q^n is
exactly 0 in scalar arithmetic too, and the block sets the tail condition's
left side to 0.0 without its pow calls.  Blocks grow geometrically up to
65536 indices, so memory stays bounded at any cap.  Monotonicity is not
assumed, so the scan also reports any later failures below 4x the first
success as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotFound
from .kernels import _check_beta, _check_q, pq_floor

# Below these cutoffs the width equalities hold from n = 1 already
# (integer phase / non-integer phase respectively).
INTEGER_BETA_Q_CUTOFF = 0.2
NONINTEGER_BETA_Q_CUTOFF = 0.193864


@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ThresholdVerdict:
    n: int
    tail: ConditionCheck
    budget: ConditionCheck

    @property
    def both_hold(self) -> bool:
        return self.tail.holds and self.budget.holds


@dataclass(frozen=True)
class ScanResult:
    """First index where both conditions hold, plus any later failures seen
    below min(cap, 4 * n) (diagnostic for non-monotone behaviour)."""

    n: int
    later_failures: tuple[int, ...]


def _validate(q: float, n: int) -> None:
    _check_q(q)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")


def _tail_lhs(q, n):
    """The tail condition's left side; ``n`` is an int or a float array."""
    return q**n / (1.0 - q ** (2 * n))


def _tail_rhs_terms(q, n, sqrt):
    """The two terms whose minimum is the tail condition's right side; ``n``
    as in ``_tail_lhs``, with ``sqrt`` to match."""
    return (2.0 * q ** sqrt(n) / (15.0 * n**2),
            8.0 / (3.0 * n**2) * ((2.0 * n - 1.0) / (7.0 * (n - 1.0) ** 2)
                                  - math.pi**2 / (8.0 * n**2)))


def _budget_lhs(q, n, sqrt):
    """The budget condition's left side; ``n`` as in ``_tail_rhs_terms``."""
    rn = sqrt(n)
    return (24.0 / (5.0 * (1.0 - q)) * q**rn
            + 160.0 / 63.0 * (2.0 * rn - 1.0) / (n * (rn - 1.0)) * q / (1.0 - q) ** 2)


def check_tail_condition(q: float, n: int) -> ConditionCheck:
    """Strict inequality bounding q^n/(1-q^(2n)); exact float comparison."""
    _validate(q, n)
    lhs = _tail_lhs(q, n)
    rhs = min(_tail_rhs_terms(q, n, math.sqrt))
    return ConditionCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def check_budget_condition(q: float, n: int) -> ConditionCheck:
    """Correction budget against the P_q floor; needs n >= 2 (sqrt(n) > 1)."""
    lhs = gamma_budget(q, n)
    rhs = pq_floor(q)
    return ConditionCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def verdict(q: float, n: int) -> ThresholdVerdict:
    return ThresholdVerdict(n=n, tail=check_tail_condition(q, n),
                            budget=check_budget_condition(q, n))


def gamma_budget(q: float, n: int) -> float:
    """The budget-condition left side: certified upper bound for the total
    correction sum at the peak shift (valid for n >= 2 under the tail
    condition)."""
    _validate(q, n)
    return _budget_lhs(q, n, math.sqrt)


# numpy's pow and libm's differ by at most one ulp on the scan's exponents
# n, 2n and sqrt(n) (measured); each side evaluated over an array then lies
# within a few ulps, or a few subnormal steps, of its scalar value.
_NEAR_RELATIVE = 8.0 * np.finfo(float).eps
_NEAR_ABSOLUTE = 8.0 * 2.0**-1074
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 16
# q^n is exactly 0 once n log2(1/q) > 1075, in scalar arithmetic too; past
# 1080 (a margin for the rounding of n log2(1/q)) the scan skips its pow calls
_UNDERFLOW_LOG2 = 1080.0


def _near(lhs: np.ndarray, rhs: np.ndarray, lhs_gain: float) -> np.ndarray:
    """Where ``lhs <= rhs`` may be decided otherwise in scalar arithmetic.

    ``lhs_gain`` bounds how much the left side's evaluation amplifies the
    error of its pow.  Both sides exactly zero only arises from q^sqrt(n)
    and q^n underflowing, which they do in scalar arithmetic too."""
    slack = _NEAR_RELATIVE * (lhs_gain * lhs + rhs) + _NEAR_ABSOLUTE
    return (np.abs(lhs - rhs) <= slack) & ((lhs != 0.0) | (rhs != 0.0))


def _both_hold(q: float, floor: float, lo: int, hi: int) -> np.ndarray:
    """``verdict(q, n).both_hold`` for n in [lo, hi), bit for bit: the array
    verdicts, with every n near a condition's boundary re-decided by
    ``verdict``."""
    n = np.arange(lo, hi, dtype=float)
    # the tail's left side is 0.0 from the first n with n log2(1/q) > 1080 on
    live = min(max(int(_UNDERFLOW_LOG2 // -math.log2(q)) + 1 - lo, 0), hi - lo)
    lhs = np.zeros(hi - lo)
    lhs[:live] = _tail_lhs(q, n[:live])
    rhs = np.minimum(*_tail_rhs_terms(q, n, np.sqrt))
    budget = _budget_lhs(q, n, np.sqrt)
    holds = (lhs <= rhs) & (budget <= floor)
    # 1 - q^(2n) >= 1 - q^4 scales the error of q^(2n) in the tail's left side
    near = _near(lhs, rhs, 1.0 / (1.0 - q**4)) | _near(budget, floor, 1.0)
    for i in np.flatnonzero(near):
        holds[i] = verdict(q, lo + int(i)).both_hold
    return holds


def _blocks(lo: int, hi: int):
    """[start, stop) blocks covering lo..hi, growing geometrically up to
    _MAX_BLOCK so that memory stays bounded at any cap."""
    size = _FIRST_BLOCK
    while lo <= hi:
        stop = min(hi + 1, lo + size)
        yield lo, stop
        lo, size = stop, min(2 * size, _MAX_BLOCK)


def min_guaranteed_n(q: float, n_cap: int = 1_000_000) -> ScanResult:
    """Smallest n in [2, n_cap] where both conditions hold.

    Block scan with early exit; raises NotFound when the cap is exhausted
    (expected behaviour for q near 1, where the budget right side collapses
    much faster than the left).
    """
    _check_q(q)
    floor = pq_floor(q)
    first = None
    for lo, hi in _blocks(2, n_cap):
        hits = np.flatnonzero(_both_hold(q, floor, lo, hi))
        if hits.size:
            first = lo + int(hits[0])
            break
    if first is None:
        raise NotFound(f"no n <= {n_cap} satisfies both conditions for q={q}")
    later = tuple(lo + int(i)
                  for lo, hi in _blocks(first + 1, min(n_cap, 4 * first))
                  for i in np.flatnonzero(~_both_hold(q, floor, lo, hi)))
    return ScanResult(n=first, later_failures=later)


def is_integer_beta(beta: float) -> bool:
    """Exact test: beta is integer iff beta mod 1 == 0.

    Deliberately no tolerance -- 2.0000000001 counts as non-integer.
    """
    return beta % 1.0 == 0.0


def min_guaranteed_n_beta(q: float, beta: float, n_cap: int = 1_000_000) -> ScanResult:
    """Piecewise threshold: 1 in the small-q regimes where the equalities are
    known for every n, otherwise the scanned minimum."""
    _check_q(q)
    _check_beta(beta)
    cutoff = INTEGER_BETA_Q_CUTOFF if is_integer_beta(beta) else NONINTEGER_BETA_Q_CUTOFF
    if q <= cutoff:
        return ScanResult(n=1, later_failures=())
    return min_guaranteed_n(q, n_cap)
