"""Exception types shared across the package.

The CLI maps these onto exit codes: parse errors (2), validation errors (3),
and hypothesis / budget failures (4).
"""


class ValidationError(ValueError):
    """Input fails a structural check (not unitary, not square, bad weights)."""


class DimensionError(ValidationError):
    """Input has the wrong shape or incompatible sizes."""


class DomainError(ValueError):
    """Argument outside the documented domain (bad index, bad parameter)."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold for the input."""


class HypothesisError(ValueError):
    """A generation hypothesis fails; carries the diagnostic report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BudgetInfeasibleError(RuntimeError):
    """No certificate within the stated budget exists for this input."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested construction (e.g. central)."""


class NumericalDegeneracyError(RuntimeError):
    """A numeric routine missed its accuracy target, as a diagonalization
    whose residual is still above TOL.diag_residual after its one separation
    pass."""


class EmbeddingBlowupError(RuntimeError):
    """A common-denominator embedding would exceed the configured cap."""


class CertificateFormatError(ValueError):
    """A serialized certificate or report does not match its schema."""
