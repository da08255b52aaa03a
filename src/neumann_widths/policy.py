"""Truncation policy shared by every series evaluator, and the one copy of
each scalar input rule (``_check_q``, ``_check_beta``, ``_check_n``,
``_check_cap``, ``_check_oracle_grid``), run by the library and by the
sweep config check.

This module imports neither numpy nor ``dataclasses``: ``EvalPolicy`` is a
named tuple, so the command-line parser and the sweep config check read
the default policy and run the rules on the start-up modules alone.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError


class EvalPolicy(namedtuple("EvalPolicy", ("abs_tol", "max_terms"),
                            defaults=(1e-14, 1_000_000))):
    """Truncation policy: absolute tolerance plus a hard cap on terms.

    Immutable and hashable; ``abs_tol`` must be a positive finite number (an
    infinite one would stop every certified series after one term) and
    ``max_terms`` at least 1.  As a tuple it also unpacks and compares equal
    to the plain tuple ``(abs_tol, max_terms)``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be a positive finite number, got {self.abs_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        return self

    @classmethod
    def _make(cls, iterable):
        """``_replace`` builds through here: validate as ``EvalPolicy(...)`` does."""
        return cls(*iterable)


DEFAULT_POLICY = EvalPolicy()


def _check_q(q: float) -> None:
    """Reject q outside (0, 1), NaN and the infinities included."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")


def _check_beta(beta: float) -> None:
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")


def _check_n(n: int) -> None:
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")


def _check_cap(n_cap: int) -> None:
    """Reject a threshold cap below 1, NaN or fractional; 3000.0 and inf pass."""
    if not n_cap >= 1:
        raise DomainError(f"n_cap must be >= 1, got {n_cap}")
    if n_cap != math.inf and n_cap != int(n_cap):
        raise DomainError(f"n_cap must be an integer, got {n_cap}")


def _check_oracle_grid(grid_points: int, refine_tol: float) -> None:
    """Reject an oracle grid below 64 points or a refine_tol not in (0, inf)."""
    if grid_points < 64:
        raise DomainError(f"grid_points must be >= 64, got {grid_points}")
    if not 0.0 < refine_tol < math.inf:
        raise DomainError(f"refine_tol must be a positive finite number, got {refine_tol}")
