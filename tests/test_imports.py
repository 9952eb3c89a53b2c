"""The two routes to a kite share only the graph type: the oracle side
imports nothing of the constructive side.  Read from the source with
ast, so no module needs importing.  Also pins the package's exports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kitelink"
CONSTRUCTIVE = {"constructor", "fans", "flow", "linkage", "harness", "cli"}
ALLOWED = {
    "oracle": {"errors", "graphs", "paths", "structures"},
    "structures": {"errors", "graphs", "paths"},
    "paths": {"errors"},
}


def _package_imports(module: str) -> set[str]:
    """The kitelink modules a module imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "kitelink":
                continue
            parts = (node.module or "").split(".")
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kitelink":
                    found.add(parts[1] if len(parts) > 1 else "kitelink")
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_the_oracle_side_imports_nothing_of_the_constructive_side(module):
    imported = _package_imports(module)
    assert "errors" in imported  # the parse sees the imports at all
    assert imported <= ALLOWED[module]
    assert not imported & CONSTRUCTIVE


# kitelink's 80 public names, sorted: the one list of them outside the
# imports of __init__.py, so a name added, lost or leaked there shows here.
EXPORTS = """
    ApexFan AssemblyFailed BudgetExceeded ConstructionFailed CutCertificate
    Cycle DiagnosticRecord DuplicateEdge DuplicateTerminals Fan
    FindKiteOptions FindKiteResult Flower FlowerInvalid
    FlowerResolutionExhausted FormatError GenerationExhausted Graph
    GraphTooSmall InteriorOverlap InvalidBaseFan InvalidCycle
    InvariantViolation KiteLinkedVerdict KiteSubdivision KitelinkError
    Landmarks LinkageBudgetExceeded LinkagePair LoopEdge MalformedLine
    NoSevenFan NoTerminalFan NotSevenConnected OrderingViolated Path
    PreconditionViolated RootQuadruple SearchBudget SegmentsNotChainable
    StageFailure TerminalFan TrialConfig TrialReport Verdict VertexNotOnPath
    VertexOutOfRange apex_fan assemble build_flower check_fan claim1_assembly
    claim2_assembly claim3_assembly compute_landmarks concat_paths extend_fan
    find_fan find_kite find_kite_exhaustive format_graph
    gen_complete_minus_matching gen_random_kconnected graph_as_json
    has_connectivity_at_least is_kite_linked iter_trials kite_from_json
    parse_graph parse_graph_json report_lines resolve_flower run_trials
    stage_counts subpath terminal_fan two_linkage verify_flower verify_kite
    vertex_connectivity
""".split()


def test_the_fan_check_sits_with_the_kite_verifier():
    import kitelink

    assert kitelink.check_fan.__module__ == "kitelink.structures"


def test_the_package_exports_its_public_names_sorted():
    import kitelink

    assert len(EXPORTS) == 80
    assert kitelink.__all__ == EXPORTS


def test_a_star_import_binds_exactly_the_exports_and_no_submodule():
    script = (
        "import json, types\n"
        "before = set(globals())\n"
        "from kitelink import *\n"
        "bound = {k: v for k, v in dict(globals()).items() if k not in before and k != 'before'}\n"
        "modules = [k for k, v in bound.items() if isinstance(v, types.ModuleType)]\n"
        "print(json.dumps([sorted(bound), modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    bound, modules = json.loads(out.stdout)
    assert bound == EXPORTS
    assert modules == []
