"""Variation-diminishing determinant test for periodic kernels.

A kernel phi is CVD_{2n} exactly when every determinant
D_{2l+1}(x, y) = det(eps * phi(x_i - y_j)), over strictly increasing node
vectors in [0, 2pi) and l = 0..n, is nonnegative for one fixed eps.  A pair
of node configurations on which D changes sign therefore rules the property
out for both eps at once (odd dimension flips the determinant under
eps -> -eps).

Determinants run through full-pivoting elimination; each result carries a
forward-error estimate (entry error times the sum of the absolute
cofactors).  One elimination gives both the value and that sum, in O(m^3),
from its L and U factors.  Whenever a value is within two orders of its
estimate, the determinant is recomputed exactly from (sum, compensation)
words of the entries, in integers, and rounded once.  For the Neumann kernel
(``neumann_evaluator``) the elimination takes its entries from the closed
form, one log and one atan2 per entry with a stated error bound
(``kernels.eval_neumann_closed``), and only the exact fallback takes the
words of the series, all of them in one array pass, bit for bit the
per-entry ``eval_neumann_pair``.  The series needs more than 10^6 terms from
q = 0.99999 on, so there a determinant that needs the fallback raises
``TolUnreachable``; one that does not is served at any q < 1.

Every determinant is taken at eps = +1 and given its sign once: the order is
odd, so eps = -1 negates the value and keeps the estimate.  The witness
search, ``cvd_witness``, is random sampling: it tries any seed node vectors
first, then random ones, one determinant per unit of its budget, until both
signs have a significant determinant.  Running out of budget (``NotFound``)
is inconclusive.  It takes each determinant once and returns the two
witnesses' results with their nodes, so ``cvd --witness-search`` reports
them, at either eps, without taking them again.  A random node is
2pi * k / 2^53 for the integer k of its draw, and is drawn with its exact
pair (k, 2^52) as a multiple of pi, so the command writes the witnesses'
nodes as those pairs, with no fraction search, and a node file of them
rebuilds the same floats.

The module ships the q = 0.21 witness node vectors, all rational multiples
of pi, on which the sign change is established for both beta = 0 and
beta = 1.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NotFound
from .kernels import (TWO_PI, EvalPolicy, NeumannParams, _cosine_block_sum,
                      _neumann_row, _reduce_phase, eval_neumann, eval_neumann_closed,
                      eval_neumann_pair)

ENTRY_POLICY = EvalPolicy(abs_tol=1e-16)


@dataclass(frozen=True)
class NodeVectors:
    """Strictly increasing evaluation nodes 0 <= x_1 < ... < x_{2l+1} < 2pi.

    ``pi_rationals`` holds the (numerator, denominator) pairs of x and y
    when the nodes were built from them (``from_pi_rationals``) or drawn
    with them (``_random_nodes``); each pair's num * pi / den is its node.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    pi_rationals: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise DomainError("x and y must have equal length")
        if len(self.x) % 2 == 0:
            raise DomainError("node vectors must have odd length 2l+1")
        for name, v in (("x", self.x), ("y", self.y)):
            if not all(0.0 <= a < TWO_PI for a in v):
                raise DomainError(f"{name} entries must lie in [0, 2pi)")
            if not all(a < b for a, b in zip(v, v[1:])):
                raise DomainError(f"{name} entries must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.x)

    @classmethod
    def from_pi_rationals(cls, x: Sequence[tuple[int, int]],
                          y: Sequence[tuple[int, int]]) -> "NodeVectors":
        """Build nodes from (numerator, denominator) multiples of pi."""
        x, y = tuple(map(tuple, x)), tuple(map(tuple, y))
        return cls(x=tuple(num * math.pi / den for num, den in x),
                   y=tuple(num * math.pi / den for num, den in y), pi_rationals=(x, y))

    def to_json_dict(self) -> dict:
        """Serialize as exact rational multiples of pi.

        Nodes that carry their pairs are written as those pairs: nodes built
        by from_pi_rationals, and the witness search's random nodes, whose
        pairs (k, 2^52) come from the draw (``_random_nodes``).  Other floats
        are written as the fraction with the smallest denominator cap that
        rebuilds them bit-exactly, else as the exact dyadic fraction of t/pi
        (round trip is then within one ulp of the product with pi).
        """
        if self.pi_rationals is not None:
            return {key: [list(p) for p in pairs] for key, pairs in zip("xy", self.pi_rationals)}

        def enc(v):
            out = []
            for t in v:
                num, den = (t / math.pi).as_integer_ratio()
                pair = [num, den]  # exact dyadic fallback
                for p, q in _best_approximations(num, den, ENCODING_CAPS):
                    if float(p * math.pi / q) == t:
                        pair = [p, q]
                        break
                out.append(pair)
            return out

        return {"x": enc(self.x), "y": enc(self.y)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "NodeVectors":
        """Inverse of to_json_dict; data of any other shape, or a pair with
        a NaN or infinite member, is a DomainError."""
        def finite(c):
            return type(c) is int or type(c) is float and math.isfinite(c)

        def pairs(key):
            v = data.get(key) if isinstance(data, dict) else None
            if not isinstance(v, list) or not all(
                    isinstance(p, list) and len(p) == 2
                    and all(map(finite, p)) and p[1] != 0 for p in v):
                raise DomainError(f"node vectors need {key!r} as a list of [numerator, "
                                  "denominator] finite number pairs with nonzero "
                                  "denominators")
            return [tuple(p) for p in v]

        try:
            return cls.from_pi_rationals(pairs("x"), pairs("y"))
        except OverflowError:
            raise DomainError("node vector entries must lie in [0, 2pi)") from None


# denominators tried, smallest first, when a node is written as p/q * pi
ENCODING_CAPS = (1, 10, 100, 1000, 10**6, 10**9, 10**12, 10**15)


def _best_approximations(num: int, den: int, caps: Sequence[int]):
    """``Fraction(num, den).limit_denominator(cap)`` as (numerator,
    denominator) for each of the ascending ``caps``, in integers: the closest
    fraction to num/den (den > 0, in lowest terms) with denominator <= cap.

    One continued-fraction expansion serves every cap: each cap's answer is
    the last convergent with denominator <= cap, or the semiconvergent with
    the largest such denominator when that is strictly closer, and the
    expansion resumes where the previous cap stopped.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    for cap in caps:
        if den <= cap:
            yield num, den
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > cap:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (cap - q0) // q1
        p, q = p0 + k * p1, q0 + k * q1
        # the last convergent p1/q1, unless the semiconvergent p/q is strictly closer
        if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
            yield p1, q1
        else:
            yield p, q


# q = 0.21 witness configurations: D_3 is negative on (WITNESS_X, WITNESS_Y_NEG)
# and positive on (WITNESS_X, WITNESS_Y_POS) for both beta = 0 and beta = 1.
WITNESS_X = ((1, 18), (1, 9), (1, 6))
WITNESS_Y_NEG = ((13, 36), (11, 30), (67, 180))
WITNESS_Y_POS = ((13, 30), (10, 9), (7, 6))
WITNESS_Q = 0.21


@functools.cache
def builtin_witnesses() -> tuple[NodeVectors, NodeVectors]:
    """(negative-determinant nodes, positive-determinant nodes) at q = 0.21,
    built once per process; ``NodeVectors`` is frozen, so callers share them."""
    return (NodeVectors.from_pi_rationals(WITNESS_X, WITNESS_Y_NEG),
            NodeVectors.from_pi_rationals(WITNESS_X, WITNESS_Y_POS))


@dataclass(frozen=True)
class DetResult:
    value: float
    error_estimate: float
    epsilon: int
    used_extended: bool

    @property
    def significant(self) -> bool:
        """True when the sign of ``value`` is trustworthy."""
        return abs(self.value) > 10.0 * self.error_estimate


class NeumannKernel:
    """The Neumann kernel N_{q,beta} as an entry evaluator for ``det_D``.

    Called on a float it is ``eval_neumann``.  ``det_D`` takes its entries
    from the closed form (``eval_neumann_closed``) of ``params``; ``pairs``
    maps an array of differences to the arrays of ``eval_neumann_pair``
    words, bit for bit, in one block pass, for the exact fallback.  The
    coefficient row (and with it K) is built on the first fallback and
    kept, so all determinants of one witness search share it.
    """

    def __init__(self, params: NeumannParams):
        self.params = params
        self._row: np.ndarray | None = None

    def __call__(self, t: float) -> float:
        return eval_neumann(self.params, t, ENTRY_POLICY)

    def pairs(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum, compensation) arrays of the series at every entry of t."""
        if self._row is None:
            self._row = _neumann_row(self.params, ENTRY_POLICY)
        return _cosine_block_sum(self._row, _reduce_phase(self.params.beta), t)


def neumann_evaluator(params: NeumannParams) -> NeumannKernel:
    """N_{q,beta} to within ENTRY_POLICY.abs_tol per value: a callable on
    floats whose ``pairs`` gives ``det_D``'s exact fallback the series words
    of all entries of a determinant at once."""
    return NeumannKernel(params)


def neumann_pair_evaluator(params: NeumannParams):
    return lambda t: eval_neumann_pair(params, t, ENTRY_POLICY)


def _det_full_pivot(a: list[list[float]]) -> tuple[float, float]:
    """(det(a), sum_{i,j} |cofactor_ij| of a) from one Gaussian elimination
    with full pivoting, in floats.

    The elimination keeps its multipliers below the diagonal, so it leaves
    P·a·Q = L·U.  Permutations do not change a sum of absolute values, so the
    cofactor sum is that of adj(U)·L^-1.  Column j of adj(U) = det(U)·U^-1 has
    the product of the other pivots on its diagonal; back-substitution fills
    the rest, dividing only by u_00 .. u_{m-2,m-2} and never by the last
    pivot, the small one near singularity.  Each row w of adj(U) then solves
    x·L = w.  A zero pivot before the last step means rank <= m - 2, where
    every cofactor is 0.
    """
    m = len(a)
    a = [row[:] for row in a]
    det_sign = 1.0
    det = 1.0
    for step in range(m):
        p_r, p_c, best = step, step, -1.0
        for i in range(step, m):
            for j in range(step, m):
                mag = abs(a[i][j])
                if mag > best:
                    best, p_r, p_c = mag, i, j
        if best == 0.0 and step < m - 1:
            return 0.0, 0.0
        if p_r != step:
            a[step], a[p_r] = a[p_r], a[step]
            det_sign = -det_sign
        if p_c != step:
            for row in a:
                row[step], row[p_c] = row[p_c], row[step]
            det_sign = -det_sign
        pivot = a[step][step]
        det *= pivot
        for i in range(step + 1, m):
            factor = a[i][step] = a[i][step] / pivot
            for j in range(step + 1, m):
                a[i][j] -= factor * a[step][j]
    det = 0.0 if best == 0.0 else det_sign * det

    pivots = [a[k][k] for k in range(m)]
    adj_u = [[0.0] * m for _ in range(m)]
    for j in range(m):
        adj_u[j][j] = math.prod(pivots[:j]) * math.prod(pivots[j + 1:])
    for i in range(m - 2, -1, -1):  # back-substitution, a row of adj(U) at a time
        u_i, adj_i = a[i], adj_u[i]
        for j in range(i + 1, m):
            s = 0.0
            for k in range(i + 1, j + 1):
                s += u_i[k] * adj_u[k][j]
            adj_i[j] = -s / pivots[i]
    total = 0.0
    for x in adj_u:  # x·L = w, from the last column of L back
        for k in range(m - 1, -1, -1):
            s = x[k]
            for i in range(k + 1, m):
                s -= x[i] * a[i][k]
            x[k] = s
            total += abs(s)
    return det, total


def _det_exact(pairs: list[list[Sequence[float]]]) -> float:
    """The determinant of the exact entry sums hi + lo, correctly rounded.

    Every word is an integer over one common power of two ``den``, so the
    determinant is det(integer matrix) / den**m.  A fraction-free (Bareiss)
    elimination takes the integer determinant, every division in it exact,
    and one int/int true division rounds the quotient.
    """
    ratios = [[[w.as_integer_ratio() for w in entry] for entry in row] for row in pairs]
    den = max(d for row in ratios for entry in row for _, d in entry)
    a = [[sum(n * (den // d) for n, d in entry) for entry in row] for row in ratios]
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        p = next((i for i in range(k, m) if a[i][k]), None)
        if p is None:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] / den**m


def det_D(kernel: Callable[[float], float], nodes: NodeVectors, epsilon: int = 1,
          entry_tol: float = 1e-15,
          kernel_pair: Callable[[float], tuple[float, float]] | None = None) -> DetResult:
    """D_{2l+1}(x, y) = det(eps * kernel(x_i - y_j)) with an error estimate.

    The order 2l+1 is odd, so the determinant is eps * det(kernel(x_i - y_j)):
    the entries are taken at eps = +1 and the sign is applied to the value
    once, and eps = -1 gives the negated value of eps = +1, bit for bit, with
    the same estimate and fallback.

    ``entry_tol`` is the caller's certified absolute error per kernel value;
    the forward estimate is entry error (plus representation rounding) times
    sum |cofactor_ij|.  One full-pivot elimination of the entries gives the
    value and that cofactor sum (``_det_full_pivot``).  When |det| falls
    below 100x this estimate the determinant is recomputed exactly from the
    entries' (hi, lo) words, the exact sum of each pair, and rounded once
    (``used_extended``), so the words' error is then its only error.

    A ``NeumannKernel`` (what ``neumann_evaluator`` returns) gives the
    elimination all m^2 entries from the closed form
    (``kernels.eval_neumann_closed``), and the entry error gains the largest
    of their error bounds; only the exact fallback takes the series words
    (``NeumannKernel.pairs``), in one block pass over the differences
    x_i - y_j.  For any other callable the entries are the words' sums: a
    given ``kernel_pair`` is the only thing called, once per entry; without
    one the words are (kernel(t), 0).
    """
    if epsilon not in (1, -1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    m = nodes.size
    if isinstance(kernel, NeumannKernel):
        t = np.subtract.outer(nodes.x, nodes.y)
        values, bounds = eval_neumann_closed(kernel.params, t)
        entry_err = entry_tol + float(bounds.max())

        def words():
            return kernel.pairs(t)
    else:
        word = kernel_pair or (lambda t: (kernel(t), 0.0))
        hi, lo = np.array([[word(xi - yj) for yj in nodes.y] for xi in nodes.x],
                          dtype=float).transpose(2, 0, 1)
        values, entry_err = hi + lo, entry_tol

        def words():
            return hi, lo
    entries = values.tolist()
    det, cofactors = _det_full_pivot(entries)

    max_entry = max(abs(e) for row in entries for e in row)
    eps_mach = sys.float_info.epsilon
    per_entry = entry_err + 4.0 * eps_mach * max_entry
    err = per_entry * cofactors + m**3 * eps_mach * max_entry**m

    used_exact = abs(det) < 100.0 * err
    if used_exact:
        det = _det_exact(np.stack(words(), axis=-1).tolist())
    return DetResult(value=det if epsilon == 1 else -det, error_estimate=err,
                     epsilon=epsilon, used_extended=used_exact)


def _random_nodes(rng: random.Random, size: int) -> NodeVectors:
    """Sorted uniform nodes in [0, 2pi), redrawn until every gap exceeds
    1e-9: the floats, and the stream they consume, of
    ``sorted(rng.uniform(0.0, TWO_PI) ...)``, each with its exact pi pair.

    ``uniform`` returns TWO_PI * r for r = rng.random() = k / 2^53, an
    integer k.  TWO_PI is exactly 2 * math.pi, and rounding commutes with
    scaling by powers of two, so k * math.pi / 2^52 (what
    ``from_pi_rationals`` computes) rebuilds TWO_PI * r bit for bit: the
    nodes carry the pairs (k, 2^52), and ``to_json_dict`` writes them
    without a search.  Sorting r sorts the nodes, since rounding is
    monotone.
    """
    def draw():
        while True:
            r = sorted(rng.random() for _ in range(size))
            v = [TWO_PI * a for a in r]
            if all(b - a > 1e-9 for a, b in zip(v, v[1:])):
                return tuple(v), tuple((int(a * 2**53), 2**52) for a in r)

    (x, x_pairs), (y, y_pairs) = draw(), draw()
    return NodeVectors(x=x, y=y, pi_rationals=(x_pairs, y_pairs))


def cvd_witness(kernel: Callable[[float], float], l: int, search_budget: int = 100_000,
                rng_seed: int = 0, seeds: Sequence[NodeVectors] = ()
                ) -> tuple[tuple[NodeVectors, DetResult], tuple[NodeVectors, DetResult]]:
    """Search for node vectors giving significantly opposite signs of D_{2l+1}.

    Tries every one of ``seeds`` (even past the budget), then random node
    vectors, one determinant per unit of ``search_budget`` (at least 1),
    until both signs have a significant determinant.  A returned pair
    defeats the CVD property for both eps.  Raises NotFound, with the least
    and greatest value taken, once the budget is spent -- which is
    inconclusive, not a proof of the property.

    Given the seeds and ``rng_seed``, the witnesses, their results and the
    NotFound message are fixed (``tests/cvd_witness_frozen.json`` pins
    them).  It takes each determinant once, at eps = +1, and returns each
    witness with that ``DetResult``: ((negative nodes, result), (positive
    nodes, result)), so a caller that reports them need not take them again.
    """
    if l < 1:
        raise DomainError(f"l must be >= 1, got {l}")
    if search_budget < 1:
        raise DomainError(f"search_budget must be >= 1, got {search_budget}")
    size = 2 * l + 1
    for s in seeds:
        if s.size != size:
            raise DomainError(f"seed size {s.size} does not match 2l+1 = {size}")
    rng = random.Random(rng_seed)
    found = {}  # sign -> (nodes, result): the first significant determinant of that sign
    spent, lo, hi = 0, math.inf, -math.inf

    def candidates():
        yield from seeds
        while spent < search_budget:
            yield _random_nodes(rng, size)

    for nodes in candidates():
        res = det_D(kernel, nodes, epsilon=1)
        spent, lo, hi = spent + 1, min(lo, res.value), max(hi, res.value)
        if res.significant:
            found.setdefault(1 if res.value > 0.0 else -1, (nodes, res))
            if len(found) == 2:
                return found[-1], found[1]
    raise NotFound(f"no sign-changing pair within budget {search_budget} "
                   f"(observed range [{lo:.3e}, {hi:.3e}])")
