"""Sufficient-condition thresholds: the index from which width equalities hold.

Two strict inequalities on (q, n) are evaluated at machine precision:

* tail condition  --  q^n/(1-q^(2n)) <= min(T1, T2) with
  T1 = 2 q^sqrt(n) / (15 n^2) and
  T2 = (8/(3n^2)) ((2n-1)/(7(n-1)^2) - pi^2/(8n^2)); it guarantees the
  eigenvalue-magnitude margins used by the spline analysis.

* budget condition  --  B = (24/(5(1-q))) q^sqrt(n)
  + (160/63) ((2 sqrt(n)-1)/(n (sqrt(n)-1))) q/(1-q)^2
  <= F = (1/2 + 2q/((1+q^2)(1-q))) ((1-q)/(1+q))^(4/(1-q^2)); it keeps the
  total correction-term budget under the strict positive floor of P_q.

Here sqrt(n) is the real square root.  The smallest n >= 2 satisfying both
is found by one ``bisect_left`` keyed on the scalar ``verdict`` over [2,
min(cap, N1)], N1 = 2^40, memoized per (q, min(cap, N1)) as ints (only an
integral cap, or inf, passes ``policy._check_cap``): a process bisects
each q and range once, whether an n is found or not.  Bisection returns
what an upward scan returns because the float verdict is monotone on [2,
N1]: false below some n, true from it on.  With L = ln(1/q) and N0 = max(3,
ceil(3.64/L)) (6 at q = 0.5, 12 at 0.72, 363 at 0.99), the proof is:

0. n = 2 joins the range.  Steps 1-4 make the verdict monotone on [3, N1];
   a false verdict at n = 2 keeps it so, and a true one is followed by a
   true one at n = 3.  For the tail condition at n = 2 needs q^2 <=
   q^sqrt(2)/30 within rounding, so q^(2 - sqrt(2)) < 1/30 and q < 0.00301:
   L > 5.8 and N0 = 3.  At n = 3 then lhs/T1 < 0.05 and q^3 < 3e-8, far
   below T2(3) > 0.0122, and B(3) < B(2) <= F (step 2's last bullet, with
   step 3's margins for rounding).

1. On [3, N0) the tail condition fails.  There nL < 3.64, so its left side
   exceeds q^n > e^-3.64 > 0.026.  T2 decreases for n >= 2 (its bracket
   does, as 8n^4 > 7 pi^2 (n-1)^3), and T2(3) < 0.0123.

2. From N0 on each exact comparison, once true, stays true, with margin:
   * d/dn log(lhs/T1) <= -L (1 - 1/(2 sqrt(n))) + 2/n, as 1 - q^(2n) only
     grows.  With L >= 3.64/n and n >= 3 this is at most -0.58/n, and also
     at most -0.16 L.
   * d/dn log(lhs/T2) <= -L - d/dn log T2, and -n d/dn log T2 = 3 + D/h
     with h the bracket of T2 and D = (3n-1)/(7(n-1)^3) - pi^2/(8n^2).
     D <= 0 for n >= 4, and the sum is 3.1393 at n = 3; so the derivative
     is at most -0.5/n.
   * B falls for every n >= 2 against the constant F, term by term: its
     q^sqrt(n) term at rate L/(2 sqrt(n)), its algebraic term at a rate
     above 1/n (d/dx log((2x-1)/(x^2 (x-1))) < -2/x).

3. Rounding.  For n <= N1 the floats n, n - 1 and 2n - 1 are exact, and
   each computed side lies within e = 64 u of its formula, u = 2^-53, plus
   sqrt(n) L u in T1 and B, the cost of rounding sqrt(n) inside
   q^sqrt(n); the pows, products and the cancellation inside T2 (4.3-fold
   at n = 3) stay under 64 u.  A comparison true in floats at n is then
   within a factor (1+e)/(1-e) of true exactly, and the step to n + 1
   moves its log ratio by more than 4e: by 0.08 L + 0.29/(n+1) against
   lhs/T1 and by 0.5/(n+1) against lhs/T2.  Each term of the computed B
   does not grow from n to n + 1 (steps L/(2 sqrt(n+1)) and 1/(n+1)
   against 2e, where L > 0.0135 as F > 0), and neither does their rounded
   sum.  These hold up to n = 10^13; N1 = 2^40 keeps a factor 9 to spare.

4. Underflow.  Where F is 0.0 (from q = 0.98651 on) the budget condition
   never holds.  Where q^n is subnormal, nL > 708, so lhs/T1 < e^-240 and
   lhs/T2 < 2^-900: both comparisons hold with a margin no rounding
   reaches, and a side that has become 0.0 stays 0.0 at every larger n.
   T1 below 2^-1022 forces q^n = 0.0, and 0 <= T1 holds.  Where q^sqrt(n)
   is subnormal, sqrt(n) L > 708, so both terms of B fall by over 1/n per
   step, and that term's absolute error is below 2^-120 B when
   q >= 2^-900; a smaller q puts B under F/2^800 at every n.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotFound
from .kernels import pq_floor
from .policy import _check_beta, _check_cap, _check_q

# Below these cutoffs the width equalities hold from n = 1 already
# (integer phase / non-integer phase respectively).
INTEGER_BETA_Q_CUTOFF = 0.2
NONINTEGER_BETA_Q_CUTOFF = 0.193864

# N1 of the module docstring: the verdict is proven monotone on [2, N1]
SEARCH_LIMIT = 2**40


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
    """First index where both conditions hold, plus the failures in
    (n, min(cap, 4 * n)]: always empty, since the module docstring proves
    the verdict monotone on the searched range."""

    n: int
    later_failures: tuple[int, ...]


def _validate(q: float, n: int) -> None:
    _check_q(q)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")


def check_tail_condition(q: float, n: int) -> ConditionCheck:
    """Strict inequality bounding q^n/(1-q^(2n)); exact float comparison."""
    _validate(q, n)
    lhs = q**n / (1.0 - q ** (2 * n))
    rhs = min(2.0 * q ** math.sqrt(n) / (15.0 * n**2),
              8.0 / (3.0 * n**2) * ((2.0 * n - 1.0) / (7.0 * (n - 1.0) ** 2)
                                    - math.pi**2 / (8.0 * n**2)))
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
    rn = math.sqrt(n)
    return (24.0 / (5.0 * (1.0 - q)) * q**rn
            + 160.0 / 63.0 * (2.0 * rn - 1.0) / (n * (rn - 1.0)) * q / (1.0 - q) ** 2)


@lru_cache(maxsize=4096)
def _min_n_cached(q: float, top: int) -> int | None:
    """The smallest n in [2, top] where both conditions hold, None where
    none does: one bisection over the proven monotone range."""
    if top < 2 or not verdict(q, top).both_hold:
        return None
    # the verdict holds at top, so the first n in [2, top) that holds, or top
    return bisect.bisect_left(range(top), True, 2, key=lambda n: verdict(q, n).both_hold)


def min_guaranteed_n(q: float, n_cap: int = 1_000_000) -> ScanResult:
    """Smallest n in [2, min(n_cap, SEARCH_LIMIT)] where both conditions hold.

    Bisects over the range, where the module docstring proves the verdict
    monotone: the result is the one an upward scan of scalar verdicts gives,
    from O(log n_cap) of them, memoized.  Raises NotFound when no n in the
    range holds (for q near 1, where the budget right side collapses much
    faster than the left) and DomainError for a cap ``_check_cap`` refuses.
    """
    _check_q(q)
    _check_cap(n_cap)
    top = int(min(n_cap, SEARCH_LIMIT))
    n = _min_n_cached(q, top)
    if n is None:
        limit = " (the end of the proven monotone range)" if top < n_cap else ""
        raise NotFound(f"no n <= {top}{limit} satisfies both conditions for q={q}")
    return ScanResult(n=n, later_failures=())


def is_integer_beta(beta: float) -> bool:
    """Exact test: beta is integer iff beta mod 1 == 0.

    Deliberately no tolerance -- 2.0000000001 counts as non-integer.
    """
    return beta % 1.0 == 0.0


def min_guaranteed_n_beta(q: float, beta: float, n_cap: int = 1_000_000) -> ScanResult:
    """Piecewise threshold: 1 in the small-q regimes where the equalities are
    known for every n, otherwise the searched minimum."""
    _check_q(q)
    _check_beta(beta)
    _check_cap(n_cap)
    cutoff = INTEGER_BETA_Q_CUTOFF if is_integer_beta(beta) else NONINTEGER_BETA_Q_CUTOFF
    if q <= cutoff:
        return ScanResult(n=1, later_failures=())
    return min_guaranteed_n(q, n_cap)
