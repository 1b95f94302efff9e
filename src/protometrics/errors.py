"""Exception types, and the type check of a scalar argument that raises one.

Two families matter downstream: InputError for structurally bad usage
(malformed text, unknown labels, invalid parameters) and PreconditionError
for well-formed data that fails an operation's mathematical precondition.
The command-line layer maps them to distinct exit codes.
"""

from __future__ import annotations

import numbers


class ProtometricsError(Exception):
    """Base class for every error raised by this package."""


class InputError(ProtometricsError, ValueError):
    """Structurally invalid usage: bad parameters, labels, or values."""


class InvalidMatrixError(InputError):
    """Matrix data violates the container invariants (shape, finiteness, labels)."""


class ParseError(InputError):
    """Malformed matrix text. Carries a 1-based position when one is known."""

    def __init__(self, message: str, *, row: int | None = None, col: int | None = None):
        if row is not None and col is not None:
            message = f"{message} (row {row}, column {col})"
        elif row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)
        self.row = row
        self.col = col


class PreconditionError(ProtometricsError):
    """Input data fails an operation's precondition.

    ``witness`` holds the offending triple or pair when one exists.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TransitivityError(PreconditionError):
    """The thresholded zero-relation is not transitive.

    Raised defensively by the preorder construction; it signals that the
    equality tolerance is inconsistent with the inequality tolerance for
    the given data.
    """


def _real_number(what: str, value) -> float:
    """``value`` as a float, or InputError unless it is a real number.

    Any ``numbers.Real`` is accepted, numpy's real scalars included; a bool
    is rejected, and so is a value too large for a float, which float() would
    raise OverflowError on. Range checks are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} is too large for a float") from None
