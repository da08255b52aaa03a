"""Truncation policy shared by every series evaluator.

This module imports no numpy, so the command-line parser and the sweep
cache key read the default policy without loading the numerical modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


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
