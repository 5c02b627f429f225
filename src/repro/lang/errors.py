"""Error types for the MiniAda front end and interpreter."""

from __future__ import annotations

__all__ = [
    "MiniAdaError", "LexError", "ParseError", "TypeError_", "RuntimeFault",
    "StepLimitExceeded",
]


class MiniAdaError(Exception):
    """Base class; carries an optional source line number."""

    def __init__(self, message: str, line: int = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LexError(MiniAdaError):
    pass


class ParseError(MiniAdaError):
    pass


class TypeError_(MiniAdaError):
    """Static semantic error (named with a trailing underscore to avoid
    shadowing the builtin)."""


class RuntimeFault(MiniAdaError):
    """A run-time check failed during interpretation (index out of bounds,
    division by zero).  These are exactly the faults SPARK's exception-freedom
    VCs guard against, so the defect experiment treats them as observable."""


class StepLimitExceeded(MiniAdaError):
    """The interpreter exceeded its step budget (non-termination guard;
    Echo's definition of refactoring assumes the source program terminates)."""
