"""Exception hierarchy shared by all modules.

CLI exit-code mapping: DomainError -> 2 (validation), NotFound -> 3,
everything else below -> 4 (numerical failure).
"""


class NeumannWidthsError(Exception):
    """Base class for all package errors."""


class DomainError(NeumannWidthsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class TolUnreachable(NeumannWidthsError):
    """Series truncation hit the term cap before the certified tail bound
    dropped below the requested tolerance (q too close to 1 for the cap)."""

    def __init__(self, message, terms_used=None, tail_bound=None):
        super().__init__(message)
        self.terms_used = terms_used
        self.tail_bound = tail_bound


class BracketFailure(NeumannWidthsError):
    """Root bracketing failed where analysis guarantees a sign change.

    Should be impossible for valid parameters; surfaced, never swallowed.
    """


class SignDegenerate(NeumannWidthsError):
    """sin(n*y - beta*pi/2) vanishes, so the Fourier-side eigenvalue
    decomposition is invalid at this shift (the finite node sum still works)."""


class SingularSystem(NeumannWidthsError):
    """The spline interpolation system is numerically singular, signalling an
    eigenvalue magnitude indistinguishable from zero."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class UnderflowLimit(NeumannWidthsError):
    """A quantity the computation divides by underflows to zero in double
    precision at this n (it scales like a power of q^n/n): the result needs
    rescaled units, which this routine does not use."""


class NotFound(NeumannWidthsError):
    """A bounded search ended without a result (scan cap or search budget)."""
