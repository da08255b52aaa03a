"""Compensated (Kahan) summation and a minimal double-double layer.

Finite sums accumulate through KahanSum; the certified series evaluators
(``kernels._certified_sum``) run the same Kahan-Babuska update inline.  The
determinant module re-runs eliminations in double-double arithmetic (``DD``)
when a result is too close to its rounding floor.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


class KahanSum:
    """Kahan-Babuska compensated accumulator."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, value: float = 0.0):
        self._sum = value
        self._comp = 0.0

    def add(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - t) + x
        else:
            self._comp += (x - t) + self._sum
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


# -- double-double primitives (hi, lo) with hi + lo exact ----------------

def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


class DD:
    """Double-double number hi + lo with the operators a full-pivot
    elimination uses: ``*``, ``/``, ``-`` and ``float()``.

    ``abs()`` gives the float |hi|, the magnitude the pivot search compares;
    a float on the left of ``*`` is read as the exact pair (x, 0).
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    def __abs__(self) -> float:
        return abs(self.hi)

    def __float__(self) -> float:
        return self.hi + self.lo

    def __sub__(self, other: "DD") -> "DD":
        s, e = two_sum(self.hi, -other.hi)
        e += self.lo - other.lo
        hi = s + e
        return DD(hi, e - (hi - s))

    def __mul__(self, other: "DD") -> "DD":
        p, e = two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        hi = p + e
        return DD(hi, e - (hi - p))

    def __rmul__(self, other: float) -> "DD":
        return DD(other) * self

    def __truediv__(self, other: "DD") -> "DD":
        q1 = self.hi / other.hi
        r = self - DD(q1) * other
        q2 = (r.hi + r.lo) / other.hi
        hi = q1 + q2
        return DD(hi, q2 - (hi - q1))
