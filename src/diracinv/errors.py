"""Exception hierarchy shared across the toolkit."""


class DiracinvError(Exception):
    """Base class for all toolkit errors."""


class ParseError(DiracinvError):
    """Syntax error in expression text, with byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected: {', '.join(expected)})"
        super().__init__(detail)


class EvaluationError(DiracinvError):
    """Expression evaluation failed: unbound name, domain error, or non-finite result."""


class QuadratureError(EvaluationError):
    """Adaptive quadrature along the path failed to converge."""


class GuardViolated(DiracinvError):
    """A pointwise denominator bilinear fell below its guard threshold."""


class ZeroNorm(DiracinvError):
    """The spinor vanishes at the requested point."""


class NonRealPotential(DiracinvError):
    """Recovered potential has an imaginary part beyond tolerance."""


class NonRealTheta(DiracinvError):
    """A theta ratio has an imaginary part beyond tolerance."""


class NoSupportPoints(DiracinvError):
    """No sampled point carries a nonzero spinor value."""


class MassInconsistent(DiracinvError):
    """Pointwise mass extraction disagrees across the sample beyond tolerance."""


class NotDegenerate(DiracinvError):
    """Operation requires a spinor classified as degenerate."""


class ParameterOnSingularLocus(DiracinvError):
    """Catalog parameters are within margin of a singular locus (vanishing cosine)."""


class ScenarioError(DiracinvError):
    """Scenario file is malformed or violates the documented schema."""
