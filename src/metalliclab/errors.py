"""Exception types shared across the package."""


class MetallicLabError(Exception):
    """Base class for all errors raised by this package.  One raised at a
    known sample names its ``point``, the witness of the check that raised."""

    def __init__(self, message: str = "", point=None):
        self.point = None if point is None else tuple(float(v) for v in point)
        super().__init__(message if point is None else f"{message} at point {self.point}")


class ParseError(MetallicLabError):
    """Raised when an expression string cannot be parsed.

    Carries the byte offset of the offending token, a message, and a hint
    describing what would have been accepted at that position.
    """

    def __init__(self, offset: int, message: str, expected: str = ""):
        self.offset = offset
        self.message = message
        self.expected = expected
        text = f"parse error at offset {offset}: {message}"
        if expected:
            text += f" (expected {expected})"
        super().__init__(text)


class DomainError(MetallicLabError):
    """Evaluation produced a non-finite value (division by zero, log of a
    negative number, ...)."""


class SingularMetric(MetallicLabError):
    """Metric determinant vanished (|det g| below threshold) at a sample."""


class ComplexDiscriminant(MetallicLabError):
    """p^2 + 4q < 0: the metallic number is not real."""


class ZeroQ(MetallicLabError):
    """Operation requires q != 0 (the structure is not invertible otherwise)."""


class NotAProjection(MetallicLabError):
    """Supplied endomorphism fails P^2 = P or g-symmetry."""


class DimensionMismatch(MetallicLabError):
    """Array shapes are inconsistent with the chart dimension."""


class IncompatiblePair(MetallicLabError):
    """g J is not symmetric: (J, g) is not a metallic Riemannian pair."""


class DegenerateForm(MetallicLabError):
    """A bilinear form has an eigenvalue too close to zero for a signature."""


class SchemaError(MetallicLabError):
    """Scenario file violates the schema (missing/extra/ill-shaped fields)."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ValidationError(MetallicLabError):
    """Scenario file is well-formed but semantically invalid."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
