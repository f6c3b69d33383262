"""Exception classes, one per CLI exit code.

Parse 2, validation 3, computation 4, hypothesis 5: everything raised
by the library is one of these four, so the command dispatcher maps a
failure to its exit code by class alone.  The message names the
condition that failed.
"""

from __future__ import annotations


class MoravakError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ParseError(MoravakError):
    """Malformed input text (space/module files, element expressions)."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(MoravakError):
    """Structurally well-formed input violating a declared axiom."""

    exit_code = 3


class ComputationError(MoravakError):
    """A computation could not be carried out on valid inputs."""

    exit_code = 4


class HypothesisViolatedError(MoravakError):
    """A stated hypothesis of a check fails on the supplied data."""

    exit_code = 5
