"""The names the benchmark imports from cmfuse still resolve.

benchmarks/harness.py checks every run's outputs with cmfuse's own
readers, and benchmarks/tracing.py builds its micro-timings from public
names. A name that left cmfuse would not fail a run: every run would
read as incorrect instead. The two files are parsed, not imported, since
harness.py needs Python 3.11.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# what the two files import from cmfuse today
EXPECTED = {
    ("cmfuse", name)
    for name in (
        "IntegrationError",
        "parse_alignment",
        "parse_component_set",
        "ANCHOR_UNIQUE",
        "KIND_ATTRIBUTE",
        "Concept",
        "anchor",
        "load_domain_ontology",
        "semantic_similarity",
    )
} | {("cmfuse.assignment", "max_assignment"), ("cmfuse.cli", None)}


def _cmfuse_imports(path: Path) -> set[tuple[str, str | None]]:
    # (module, name) of each `from cmfuse... import name`, and (module,
    # None) of each `import cmfuse...`
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmfuse":
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name, None) for a in node.names if a.name.split(".")[0] == "cmfuse"}
    return found


def test_every_name_the_benchmark_imports_from_cmfuse_resolves():
    found = _cmfuse_imports(BENCHMARKS / "harness.py") | _cmfuse_imports(BENCHMARKS / "tracing.py")
    assert EXPECTED <= found, EXPECTED - found
    for module, name in sorted(found, key=str):
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{module}.{name}"
    # harness.py runs a replay's set-up pipeline through it
    assert callable(importlib.import_module("cmfuse.cli").main)
