"""Exception hierarchy shared by all modules."""


class CuspCountError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CuspCountError):
    """Malformed input expression; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionInfinite(CuspCountError):
    """A quotient that must be finite-dimensional is not (CLI exit 3)."""


class ExponentOverflow(CuspCountError):
    """A product, power or substitution of polynomials, or a standard-basis
    completion, reaches a degree above polyring.MAX_DEGREE (32767), the
    largest a packed monomial holds; raised before any exponent field could
    carry into the next (CLI exit 3)."""


class HypothesisError(CuspCountError):
    """The input family fails one of the method's hypotheses (CLI exit 2);
    raised only in derive, verify_hypotheses and compute_xi's cap."""


class OriginNotMapped(HypothesisError):
    """A component of the input germ has a nonzero constant term."""


class JNotVanishing(HypothesisError):
    """J(0) != 0: the family has no degenerate point at the origin."""


class HypothesisFailed(HypothesisError):
    """A required quotient dimension is infinite; names the failing condition."""

    def __init__(self, condition: str):
        super().__init__(f"hypothesis failed: {condition} is not finite-dimensional")
        self.condition = condition


class XiSearchExceededBound(HypothesisError):
    """The membership exponent search passed its cap without success."""


class InternalInconsistency(CuspCountError):
    """Computed quantities contradict each other; indicates an upstream bug
    (CLI exit 3)."""


class NegativeBranchCount(InternalInconsistency):
    pass


class OddBPrime(InternalInconsistency):
    pass


class InconsistentSystem(InternalInconsistency):
    pass


class ParityViolation(InternalInconsistency):
    pass


class PipelineError(CuspCountError):
    """Wraps an error with the pipeline stage where it happened."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
