"""Truncation policy shared by every series evaluator.

This module imports neither numpy nor ``dataclasses``: ``EvalPolicy`` is a
named tuple, so the command-line parser and the sweep cache read the
default policy on the interpreter's start-up modules alone.
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
