"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: input/precondition problems exit 2,
exhausted search budgets exit 3.  "Not found" outcomes are ordinary return
values (``None``), never exceptions.
"""

from __future__ import annotations


class KitelinkError(Exception):
    """Base class for all library errors."""


class FormatError(KitelinkError):
    """A graph or kite description violates the input format."""


class MalformedLine(FormatError):
    pass


class VertexOutOfRange(FormatError):
    pass


class LoopEdge(FormatError):
    pass


class DuplicateEdge(FormatError):
    pass


class PreconditionViolated(KitelinkError):
    """An operation was called outside its documented domain."""


class GraphTooSmall(PreconditionViolated):
    pass


class DuplicateTerminals(PreconditionViolated):
    pass


class VertexNotOnPath(KitelinkError):
    pass


class SegmentsNotChainable(KitelinkError):
    pass


class InteriorOverlap(KitelinkError):
    pass


class InvalidCycle(KitelinkError):
    pass


class InvalidBaseFan(PreconditionViolated):
    pass


# Node expansions a bounded search may spend unless its caller says otherwise.
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(KitelinkError):
    """A bounded search ran out of node expansions before deciding."""


class NotSevenConnected(PreconditionViolated):
    pass


class StageFailure(KitelinkError):
    """Base class for failures inside the constructive pipeline.

    The top-level search catches these, records a diagnostic and falls
    back to exhaustive search; they are not meant to escape to users.
    """

    stage = "pipeline"


class NoSevenFan(StageFailure):
    stage = "apex-fan"


class OrderingViolated(StageFailure):
    stage = "landmarks"


class AssemblyFailed(StageFailure):
    stage = "assembly"


class FlowerInvalid(StageFailure):
    stage = "flower"


class FlowerResolutionExhausted(StageFailure):
    """No candidate cycle of the flower leaves x2 a path to x4; unlike
    BudgetExceeded, more budget cannot help."""

    stage = "flower-resolution"


class LinkageBudgetExceeded(StageFailure, BudgetExceeded):
    """two_linkage's search ran out of expansions; find_kite falls back."""

    stage = "linkage"


class InvariantViolation(StageFailure):
    """An internal consistency check failed; signals an implementation bug."""

    stage = "invariant"


class ConstructionFailed(KitelinkError):
    """Pipeline and fallback both exhausted: the graph is likely not
    7-connected, or there is an implementation bug.

    exhausted distinguishes a spent budget (retry with more) from a
    definitive no-kite answer.
    """

    def __init__(self, message: str, exhausted: bool = False):
        super().__init__(message)
        self.exhausted = exhausted


class GenerationExhausted(KitelinkError):
    pass
