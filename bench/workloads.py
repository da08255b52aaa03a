"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its ``random.Random`` stream, so one
seed gives the same inputs on every machine.  Inputs are drawn from fixed
strata with a seeded jitter inside each stratum: the cost of one round then
barely depends on the draw, which keeps the run-to-run spread of the timed
metrics small while every seed still exercises different values.

A run's inputs are a few *rounds*; the timed loop makes whole passes over
all of them, so the mix of ops never depends on where the clock ran out, and
each input is timed once per pass.
"""

from __future__ import annotations

import math
import random

# ---- sweep ---------------------------------------------------------------

# q strata: below both phase cutoffs; between the non-integer cutoff 0.193864
# and the integer cutoff 0.2 (only non-integer beta scans); three scanned
# bands with growing thresholds; a band whose threshold lies in
# (SWEEP_NQ_CAP/4, SWEEP_NQ_CAP], so its later-failure scan always stops at
# the cap; and a band beyond the scan's reach (NotFound after SWEEP_NQ_CAP
# verdicts).  The two top bands cost the same number of verdicts per row
# whatever q is drawn.
SWEEP_Q_STRATA = ((0.10, 0.18), (0.1940, 0.1995), (0.22, 0.28), (0.33, 0.40),
                  (0.45, 0.50), (0.56, 0.59), (0.62, 0.72))
SWEEP_NQ_CAP = 30_000
SWEEP_WORKERS = 2


def sweep_round(rng: random.Random) -> dict:
    """One sweep config (without output and cache paths): 7 q x 3 beta x 5 n."""
    q_list = [round(rng.uniform(lo, hi), 6) for lo, hi in SWEEP_Q_STRATA]
    beta_list = [float(rng.randrange(4)), round(rng.uniform(0.05, 0.95), 4),
                 round(rng.uniform(1.05, 1.95), 4)]
    n_list = [1, rng.randint(2, 4), rng.randint(6, 12), rng.randint(16, 28),
              rng.randint(36, 48)]
    return {"q_list": q_list, "beta_list": beta_list, "n_list": n_list,
            "policy": {"abs_tol": 1e-14, "max_terms": 1_000_000},
            "format": "csv", "workers": SWEEP_WORKERS, "verify": True,
            "oracle_grid": 4096, "oracle_refine_tol": 1e-13,
            "nq_cap": SWEEP_NQ_CAP}


# ---- cy2n-ladder -----------------------------------------------------------

CY2N_Q_STRATA = ((0.050, 0.060), (0.120, 0.130), (0.190, 0.200), (0.260, 0.270))
LADDER_START = 10
LADDER_RUNGS = 9  # rungs per ladder, the top one at E - 1
PROBE_RATIO = 1.35
PROBE_REACH = 2.5  # past-edge probe rungs run up to this multiple of the edge


def underflow_edge(q: float) -> int:
    """Smallest n at which the squared smallest-eigenvalue scale
    (2 q^n / n^2)^2 underflows to zero in double precision.

    From this n on, ``verify_cy2n`` at this commit cannot form its
    eigenvalue quotients: it raises a bare ZeroDivisionError or exits 4.
    """
    n = 2
    while (2.0 * q**n / n**2) ** 2 != 0.0:
        n += 1
    return n


def ladder(q: float) -> list[int]:
    """LADDER_RUNGS rungs spaced geometrically from LADDER_START to E - 1,
    the last n before the underflow edge E.  The count and the relative
    spacing are fixed, so a ladder's cost depends on q alone."""
    top = underflow_edge(q) - 1
    step = (top / LADDER_START) ** (1.0 / (LADDER_RUNGS - 1))
    return [int(round(LADDER_START * step**k)) for k in range(LADDER_RUNGS - 1)] + [top]


def past_edge(q: float) -> list[int]:
    """Probe rungs from the underflow edge E up to PROBE_REACH * E."""
    edge = underflow_edge(q)
    rungs, x = [], float(edge)
    while x <= PROBE_REACH * edge:
        rungs.append(int(round(x)))
        x *= PROBE_RATIO
    return rungs


def ladder_round(rng: random.Random) -> list[tuple[float, float, int]]:
    """(q, beta, n) ops: one ladder per q stratum, in seeded random order.
    Each stratum has a fixed beta class (0, a non-integer in (0, 1), 1, a
    non-integer in (1, 2)), since small-n costs differ by class: the cost
    of every rung then hardly depends on the seed."""
    betas = [0.0, round(rng.uniform(0.05, 0.95), 4), 1.0, round(rng.uniform(1.05, 1.95), 4)]
    ops = []
    for (lo, hi), beta in zip(CY2N_Q_STRATA, betas):
        q = round(rng.uniform(lo, hi), 6)
        ops.extend((q, beta, n) for n in ladder(q))
    rng.shuffle(ops)
    return ops


# ---- cvd-dets --------------------------------------------------------------

CVD_Q_STRATA = tuple((0.05 + 0.15 * i, 0.05 + 0.15 * (i + 1)) for i in range(6))
CVD_BETAS = (0.0, 0.5, 1.0)
CVD_ORDERS = (3, 5, 7)
NODE_DENOMINATOR = 3600  # nodes on a pi/3600 lattice: close to uniform draws
WITNESS_SEARCH_BUDGET = 2000


def _pi_rationals(rng: random.Random, size: int) -> list[list[int]]:
    nums = sorted(rng.sample(range(2 * NODE_DENOMINATOR), size))
    return [[num, NODE_DENOMINATOR] for num in nums]


def cvd_round(rng: random.Random) -> list[dict]:
    """Per (q stratum, beta): one determinant of each order from a node file,
    the built-in pair and one witness search; plus the q = 0.21, beta = 1
    built-in pair whose negative determinant has a known true value."""
    ops = [{"kind": "pair", "q": 0.21, "beta": 1.0}]
    for lo, hi in CVD_Q_STRATA:
        for beta in CVD_BETAS:
            q = round(rng.uniform(lo, hi), 6)
            ops.append({"kind": "pair", "q": q, "beta": beta})
            ops.append({"kind": "search", "q": q, "beta": beta,
                        "seed": rng.randrange(1 << 30)})
            for size in CVD_ORDERS:
                ops.append({"kind": "vectors", "q": q, "beta": beta,
                            "nodes": {"x": _pi_rationals(rng, size),
                                      "y": _pi_rationals(rng, size)}})
    rng.shuffle(ops)
    return ops


GENERATORS = {"sweep": sweep_round, "cy2n-ladder": ladder_round,
              "cvd-dets": cvd_round}
# Rounds in a run's input set: one timed pass over them takes a few seconds,
# so a run of 30 s repeats every input several times.
ROUNDS = {"sweep": 1, "cy2n-ladder": 1, "cvd-dets": 2}


def generate(workload: str, seed: int) -> list:
    """A run's input set, drawn from one stream seeded by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [GENERATORS[workload](rng) for _ in range(ROUNDS[workload])]


def pi_multiple(num: int, den: int) -> float:
    """The float the program builds for the node num/den * pi."""
    return num * math.pi / den
