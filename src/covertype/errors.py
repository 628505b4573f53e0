"""Exception types shared across the package, and the quoting of a
user's word in an error line."""

from __future__ import annotations


def shown(word: str) -> str:
    """A word given by the user, quoted for an error line, and cut to
    its first 20 characters and its length when long."""
    return repr(word) if len(word) <= 40 else f"{word[:20]!r}... ({len(word)} characters)"


class CoveringTypeError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(CoveringTypeError):
    """Raw data does not describe a valid simplicial complex."""


class ParseError(MalformedInputError):
    """A complex file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotFoundError(CoveringTypeError):
    """A referenced vertex or simplex is not part of the complex."""


class PreconditionError(CoveringTypeError):
    """An operation was invoked outside its stated hypotheses."""


class PropertyAViolationError(CoveringTypeError):
    """A reduction step found a configuration that is impossible when the
    complex has the cup-product regularity (property A) it was assumed
    to have: contracting the offending edge would change the homotopy
    type, so the pipeline must stop."""


class InconsistencyError(CoveringTypeError):
    """An internal invariant failed mid-computation; either the input
    violates a standing assumption or there is a bug."""


class DomainError(CoveringTypeError):
    """A numeric argument lies outside the defined domain."""


class StageError(CoveringTypeError):
    """Wraps an error raised inside a named stage of the reduction
    pipeline so callers can report which stage failed."""

    def __init__(self, stage: str, cause: CoveringTypeError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
