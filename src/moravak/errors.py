"""Exception hierarchy.

The four base classes correspond to the CLI exit codes (parse 2,
validation 3, computation 4, hypothesis 5); everything raised by the
library derives from one of them so the command dispatcher can map
failures to exit codes without inspecting messages.
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


# -- validation family -------------------------------------------------------

class IllFormedElementError(ValidationError):
    """Element references unknown generators or illegal exponents."""


class DegreeCapExceededError(ValidationError):
    """A degree query lies outside the algebra's truncation window."""


class NotIntegralError(ValidationError):
    """A class required to lie in the declared integral image does not."""


class MalformedExponentListError(ValidationError):
    """Twist exponent lists must be strictly increasing and in range."""


class InvalidIndexError(ValidationError):
    """Homological index out of range."""


class InvalidTensorModuleError(ValidationError):
    """Tensor-module operators fail commutation or the defining relation."""


class WrongTwistDegreeError(ValidationError):
    """Twist class does not sit in degree n+2."""


class IntegralDataRequiredError(ValidationError):
    """An integral computation was requested without integral-image data."""


class MissingClassError(ValidationError):
    """A required Stiefel-Whitney class was not supplied."""


class AnomalyRelationViolatedError(ValidationError):
    """The linear constraint a + b = lambda fails."""


class InvalidPairError(ValidationError):
    """The boundary restriction map is not a map of algebras."""


# -- computation family ------------------------------------------------------

class NotGrouplikeError(ComputationError):
    """A series is not a product of (1 + y^{2^k}) factors."""


class InconsistentActionError(ComputationError):
    """The differential fails d^2 = 0, signalling a bad Sq table."""


class Not2TypicalError(ComputationError):
    """The 2-series cannot be matched by a formal sum of theta-terms."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"not 2-typical: unmatched term at degree {degree}")


class DifferentialNotFilledError(ComputationError):
    """Page homology requested before the differential was computed."""
