"""The two routes to a kite share only the graph type: the oracle side
imports nothing of the constructive side.  Read from the source with
ast, so no module needs importing."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kitelink"
CONSTRUCTIVE = {"constructor", "fans", "flow", "linkage", "harness", "cli"}
ALLOWED = {
    "oracle": {"errors", "graphs", "paths", "structures"},
    "structures": {"errors", "graphs", "paths"},
    "paths": {"errors", "graphs", "paths"},
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
    assert "graphs" in imported  # the parse sees the imports at all
    assert imported <= ALLOWED[module]
    assert not imported & CONSTRUCTIVE
