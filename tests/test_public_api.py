"""The names cmfuse exports.

A public name may only leave the package with a reason in CHANGES.md;
this list makes such a removal visible in review.
"""

from __future__ import annotations

import cmfuse

PUBLIC = [
    "ANCHOR_AMBIGUOUS", "ANCHOR_NONE", "ANCHOR_UNIQUE", "Alignment", "AlignmentDocument",
    "AnchorResult", "Attribute", "BusinessComponent", "CLASS_DISTINCT", "CLASS_EQUIVALENT",
    "CLASS_HOMONYM_CONFLICT", "CLASS_SYNONYM_PAIR", "ComponentOntology", "ComponentSet",
    "Concept", "Correspondence", "DocumentError", "DomainConcept", "DomainOntology",
    "Endpoint", "IntegrationError", "KINDS", "KIND_ATTRIBUTE", "KIND_COMPONENT",
    "KIND_OPERATION", "MODE_BIPARTITE", "MODE_LITERAL", "MergeError", "MergedComponent",
    "MergedRoot", "ONE", "OPERATION_MARKER", "Operation", "PairScore", "RELATION_HOMONYM",
    "RELATION_SAME", "RELATION_UNRELATED", "RepresentationOntology", "Score", "Thesaurus",
    "ThesaurusEntry", "VERDICT_NOT_SYNONYM",
    "VERDICT_SYNONYM", "ZERO", "align", "anchor", "bipartite_score", "check_layering",
    "classify", "component_ontology_from_json", "component_ontology_to_json",
    "detect_naming_conflicts", "load_domain_ontology", "merge", "normalize_term",
    "operation_term", "parse_alignment", "parse_component_ontology", "parse_component_set",
    "parse_representation", "parse_score", "relation", "semantic_similarity",
    "serialize_alignment", "serialize_component_ontology", "serialize_component_set",
    "serialize_domain_ontology", "serialize_representation", "similarity_matrix",
    "syntactic_similarity", "term_stem", "to_component", "to_ontology", "union",
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
