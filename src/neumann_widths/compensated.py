"""Compensated (Kahan) summation and the error-free product.

Finite sums accumulate through KahanSum; the certified series evaluators
(``kernels._certified_sum``) run the same Kahan-Babuska update inline.
``two_prod`` splits a float product into its rounded value and exact error.
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


# -- error-free product: p + e == a * b exactly ---------------------------

def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
