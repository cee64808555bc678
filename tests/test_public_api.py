"""The names cmfuse exports.

A public name may only leave the package with a reason in CHANGES.md;
this list makes such a removal visible in review. Each name must also
have a user, so a change that leaves one without any shows here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import cmfuse

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "ANCHOR_AMBIGUOUS", "ANCHOR_NONE", "ANCHOR_UNIQUE", "Alignment", "AlignmentDocument",
    "AnchorResult", "Attribute", "BusinessComponent", "CLASS_DISTINCT", "CLASS_EQUIVALENT",
    "CLASS_HOMONYM_CONFLICT", "CLASS_SYNONYM_PAIR", "ComponentOntology", "ComponentSet",
    "Concept", "Correspondence", "DocumentError", "DomainConcept", "DomainOntology",
    "Endpoint", "IntegrationError", "KINDS", "KIND_ATTRIBUTE", "KIND_COMPONENT",
    "KIND_OPERATION", "MODE_BIPARTITE", "MODE_LITERAL", "MergeError", "MergedComponent",
    "MergedRoot", "ONE", "OPERATION_MARKER", "Operation", "PairScore",
    "RepresentationOntology", "Thesaurus", "ThesaurusEntry", "VERDICT_NOT_SYNONYM",
    "VERDICT_SYNONYM", "ZERO", "align", "anchor", "check_layering",
    "classify", "component_ontology_from_json",
    "detect_naming_conflicts", "load_domain_ontology", "merge", "normalize_term",
    "operation_term", "parse_alignment", "parse_component_ontology", "parse_component_set",
    "parse_representation", "parse_score", "semantic_similarity",
    "serialize_alignment", "serialize_component_ontology", "serialize_component_set",
    "serialize_domain_ontology", "serialize_representation", "similarity_matrix",
    "term_stem", "to_component", "to_ontology", "union",
]

SUBMODULES = [
    "assignment", "components", "errors", "integrate", "jsonio", "ontology", "similarity",
    "transform",
]


def test_public_names_are_pinned():
    assert sorted(cmfuse.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in cmfuse.__all__:
        assert hasattr(cmfuse, name), name


def test_star_import_binds_no_module_yet_submodules_resolve():
    namespace: dict = {}
    exec("from cmfuse import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
    for name in SUBMODULES:
        assert getattr(cmfuse, name).__name__ == f"cmfuse.{name}"


def test_every_public_name_has_a_user():
    # a user is code of the package beyond its own export list, the README
    # or the benchmark; a name that only the tests reach has none
    used = set()
    for path in (ROOT / "src" / "cmfuse").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8") for p in (ROOT / "benchmarks").glob("*.py")]
    unused = [
        name
        for name in cmfuse.__all__
        if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts)
    ]
    assert unused == []
