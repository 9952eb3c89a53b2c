"""Constructive rooted kite subdivisions in highly connected graphs.

The package splits into a constructive side (fans, 2-linkages, staged
assembly, flowers) and an independent brute-force side (oracle) so the
two can cross-check each other. Graph and path value objects are shared.
Each public name is stated once, in the import that binds it here;
``__all__`` is read off those bindings.
"""

from types import ModuleType as _ModuleType

from .constructor import (
    ApexFan,
    DiagnosticRecord,
    FindKiteOptions,
    FindKiteResult,
    Landmarks,
    apex_fan,
    assemble,
    build_flower,
    claim1_assembly,
    claim2_assembly,
    claim3_assembly,
    compute_landmarks,
    find_kite,
    resolve_flower,
)
from .errors import (
    AssemblyFailed,
    BudgetExceeded,
    ConstructionFailed,
    DuplicateEdge,
    DuplicateTerminals,
    FlowerInvalid,
    FlowerResolutionExhausted,
    FormatError,
    GenerationExhausted,
    GraphTooSmall,
    InteriorOverlap,
    InvalidBaseFan,
    InvalidCycle,
    InvariantViolation,
    KitelinkError,
    LinkageBudgetExceeded,
    LoopEdge,
    MalformedLine,
    NoSevenFan,
    NoTerminalFan,
    NotSevenConnected,
    OrderingViolated,
    PreconditionViolated,
    SegmentsNotChainable,
    StageFailure,
    VertexNotOnPath,
    VertexOutOfRange,
)
from .fans import (
    CutCertificate,
    Fan,
    TerminalFan,
    extend_fan,
    find_fan,
    has_connectivity_at_least,
    terminal_fan,
    vertex_connectivity,
)
from .generators import gen_complete_minus_matching, gen_random_kconnected
from .graphs import (
    Graph,
    format_graph,
    graph_as_json,
    parse_graph,
    parse_graph_json,
)
from .harness import (
    TrialConfig,
    TrialReport,
    iter_trials,
    report_lines,
    run_trials,
    stage_counts,
)
from .linkage import LinkagePair, two_linkage
from .oracle import (
    KiteLinkedVerdict,
    SearchBudget,
    find_kite_exhaustive,
    is_kite_linked,
)
from .paths import Cycle, Path, concat_paths, subpath
from .structures import (
    Flower,
    KiteSubdivision,
    RootQuadruple,
    Verdict,
    check_fan,
    kite_from_json,
    verify_flower,
    verify_kite,
)

__version__ = "0.1.0"

# The imports above also bind each submodule; a star import skips them.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
