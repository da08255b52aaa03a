"""Correctness oracles, run outside the timed region.

Each oracle is written from the published formulas, not from the program's
code paths: the threshold conditions from their definitions, the width from
the square-wave convolution series, determinants at 40 digits with mpmath
from the kernel's closed form.  Every check returns ``None`` when the output
is accepted and a one-line reason when it is rejected.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

INTEGER_BETA_Q_CUTOFF = 0.2
NONINTEGER_BETA_Q_CUTOFF = 0.193864
WITNESS_BETA1_TRUE = -5.1709070376e-10  # q = 0.21, beta = 1, negative nodes


# ---- thresholds ------------------------------------------------------------

def conditions_hold(q: float, n: int) -> bool:
    """Both sufficient conditions at (q, n), n >= 2, from their definitions."""
    r = math.sqrt(n)
    tail = q**n / (1.0 - q ** (2 * n)) <= min(
        2.0 * q**r / (15.0 * n * n),
        8.0 / (3.0 * n * n) * ((2.0 * n - 1.0) / (7.0 * (n - 1.0) ** 2)
                               - math.pi**2 / (8.0 * n * n)))
    if not tail:
        return False
    floor = ((0.5 + 2.0 * q / ((1.0 + q * q) * (1.0 - q)))
             * ((1.0 - q) / (1.0 + q)) ** (4.0 / (1.0 - q * q)))
    budget = (24.0 / (5.0 * (1.0 - q)) * q**r
              + 160.0 / 63.0 * (2.0 * r - 1.0) / (n * (r - 1.0)) * q / (1.0 - q) ** 2)
    return budget <= floor


class Thresholds:
    """Memoised first index from which both conditions hold."""

    def __init__(self):
        self._first: dict[tuple[float, int], int | None] = {}

    def first(self, q: float, cap: int) -> int | None:
        """Smallest n in [2, cap] where both conditions hold, else None."""
        key = (q, cap)
        if key not in self._first:
            self._first[key] = next(
                (n for n in range(2, cap + 1) if conditions_hold(q, n)), None)
        return self._first[key]

    def guaranteed(self, q: float, beta: float, cap: int) -> int | None:
        """The piecewise threshold: 1 below the phase cutoff, else scanned."""
        cutoff = (INTEGER_BETA_Q_CUTOFF if beta % 1.0 == 0.0
                  else NONINTEGER_BETA_Q_CUTOFF)
        return 1 if q <= cutoff else self.first(q, cap)


# ---- widths ----------------------------------------------------------------

def square_conv(q: float, beta: float, n: int, t: np.ndarray) -> np.ndarray:
    """(4/pi) sum_nu q^((2nu+1)n) / (n (2nu+1)^2) sin((2nu+1) n t - beta pi/2)."""
    ratio = q ** (2 * n)
    terms = 1 if ratio == 0.0 else max(1, int(math.ceil(-40.0 / math.log10(ratio))))
    k = 2.0 * np.arange(terms)[:, None] + 1.0
    coef = ratio ** np.arange(terms)[:, None] / k**2
    phase = (beta % 4.0) * math.pi / 2.0
    peak = (coef * np.sin(k * n * np.asarray(t)[None, :] - phase)).sum(axis=0)
    return (4.0 / math.pi) * (q**n / n) * peak


def check_width(q: float, beta: float, n: int, y0: float, width: float) -> str | None:
    """|Phi(y0)| equals the width, and no grid point of |Phi| exceeds it."""
    at_peak = abs(float(square_conv(q, beta, n, np.array([y0]))[0]))
    if not abs(at_peak - width) <= 1e-12 * width:
        return f"width {width!r} != |Phi(y0)| {at_peak!r}"
    grid = np.linspace(0.0, math.pi / n, 2048, endpoint=False)
    top = float(np.abs(square_conv(q, beta, n, grid)).max())
    if top > width * (1.0 + 1e-10):
        return f"grid sup {top!r} exceeds width {width!r}"
    return None


# ---- sweep -----------------------------------------------------------------

def check_sweep_csv(cfg: dict, text: str, thresholds: Thresholds) -> list[str | None]:
    """Per expected row, the reason it is rejected, or None if accepted."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(q, b, n) for q in cfg["q_list"] for b in cfg["beta_list"]
                for n in cfg["n_list"]]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"] * len(expected)
    return [_check_sweep_row(cfg, row, q, beta, n, thresholds)
            for row, (q, beta, n) in zip(rows, expected)]


def _check_sweep_row(cfg, row, q, beta, n, thresholds) -> str | None:
    where = f"row q={q} beta={beta} n={n}"
    if (float(row["q"]), float(row["beta"]), int(row["n"])) != (q, beta, n):
        return f"{where}: keyed {row['q']},{row['beta']},{row['n']}"
    if not float(row["oracle_delta"]) <= 1e-10:
        return f"{where}: oracle_delta {row['oracle_delta']}"
    first = thresholds.guaranteed(q, beta, cfg["nq_cap"])
    want = "" if first is None else ("true" if n >= first else "false")
    if row["nq_flag"] != want:
        return f"{where}: nq_flag {row['nq_flag']!r}, expected {want!r}"
    reason = check_width(q, beta, n, float(row["y0"]), float(row["width"]))
    if reason:
        return f"{where}: {reason}"
    scanned = thresholds.first(q, cfg["nq_cap"]) if n >= 2 else None
    if scanned is not None and n >= scanned and row["cy2n_holds"] != "true":
        return f"{where}: cy2n_holds {row['cy2n_holds']!r} past n={scanned}"
    return None


# ---- cy2n-ladder -----------------------------------------------------------

def check_cy2n(q: float, n: int, doc: dict, thresholds: Thresholds) -> str | None:
    """A verify-cy2n verdict: well formed, ``holds`` agrees with its own signs,
    and the condition holds wherever n reaches the scanned threshold."""
    signs = doc.get("signs")
    if doc.get("n") != n or not isinstance(signs, list) or len(signs) != 2 * n:
        return f"malformed verdict for n={n}"
    nonzero = [(k, s) for k, s in enumerate(signs) if s != 0]
    alternating = all(s == nonzero[0][1] * (-1) ** (k - nonzero[0][0])
                      for k, s in nonzero)
    if doc["holds"] != alternating:
        return f"holds={doc['holds']} but the signs {'do' if alternating else 'do not'} alternate"
    first = thresholds.first(q, 1_000_000)
    if first is not None and n >= first and not doc["holds"]:
        return f"condition fails at n={n} >= threshold {first}"
    return None


# ---- cvd-dets --------------------------------------------------------------

def true_det(q: float, beta: float, x: list[float], y: list[float],
             epsilon: int = 1):
    """det(eps * N(x_i - y_j)) at 40 digits, with
    N(t) = Re(e^(-i beta pi/2) * -log(1 - q e^(it))) and the differences
    x_i - y_j rounded to double exactly as the program forms them."""
    import mpmath

    with mpmath.workdps(40):
        rot = mpmath.expj(-mpmath.mpf(beta % 4.0) * mpmath.pi / 2)
        qm = mpmath.mpf(q)
        mat = mpmath.matrix([[epsilon * mpmath.re(-rot * mpmath.log(
            1 - qm * mpmath.expj(mpmath.mpf(xi - yj)))) for yj in y] for xi in x])
        return mpmath.det(mat)


def check_det(q: float, beta: float, x: list[float], y: list[float],
              det: dict, epsilon: int = 1) -> str | None:
    """The value lies within its error estimate of the 40-digit determinant,
    and a result marked significant carries the true sign."""
    truth = true_det(q, beta, x, y, epsilon)
    value, err = det["value"], det["error_estimate"]
    if det["significant"] and (value > 0) != (truth > 0):
        return f"sign of {value!r} disagrees with the true {float(truth)!r}"
    if abs(value - truth) > err:
        return f"{value!r} is {float(abs(value - truth)):.3e} from the true {float(truth)!r}, estimate {err:.3e}"
    return None


def check_witness_value(det: dict) -> str | None:
    """The q = 0.21, beta = 1 negative witness against its known true value."""
    if abs(det["value"] - WITNESS_BETA1_TRUE) > det["error_estimate"]:
        return f"beta=1 witness {det['value']!r}, true value {WITNESS_BETA1_TRUE!r}"
    return None
