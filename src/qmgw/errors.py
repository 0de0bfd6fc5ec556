"""Exception types shared across the package."""


class QmgwError(Exception):
    """Base class for all package errors."""


class VariableMismatch(QmgwError):
    """Arithmetic attempted between series in different formal variables."""


class InvalidSeries(QmgwError):
    """Series violates an operation precondition (constant term, valuation...)."""


class NotQuasiModular(QmgwError):
    """A q-series failed the verification margin of the weight-w basis fit."""


class InsufficientOrder(QmgwError):
    """Truncation order too small for the requested operation."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class UnsupportedInsertion(QmgwError):
    """Correlation-function spec outside the implemented (stationary) sector."""
