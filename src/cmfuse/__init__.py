"""Semantic integration of business component models.

Parse candidate component sets, lift each component into a concept
graph, score pairs against a domain ontology with exact rational
similarities, flag synonym and homonym naming conflicts, and merge the
survivors into one result set.
"""

from __future__ import annotations

from types import ModuleType as _Module

__version__ = "0.1.0"

from .components import (
    Attribute,
    BusinessComponent,
    ComponentSet,
    KINDS,
    Operation,
    check_layering,
    parse_component_set,
    serialize_component_set,
    union,
)
from .errors import DocumentError, IntegrationError, MergeError
from .integrate import (
    Alignment,
    AlignmentDocument,
    CLASS_DISTINCT,
    CLASS_EQUIVALENT,
    CLASS_HOMONYM_CONFLICT,
    CLASS_SYNONYM_PAIR,
    Correspondence,
    Endpoint,
    MergedComponent,
    MergedRoot,
    RepresentationOntology,
    align,
    classify,
    detect_naming_conflicts,
    merge,
    parse_alignment,
    parse_representation,
    serialize_alignment,
    serialize_representation,
)
from .ontology import (
    ANCHOR_AMBIGUOUS,
    ANCHOR_NONE,
    ANCHOR_UNIQUE,
    AnchorResult,
    DomainConcept,
    DomainOntology,
    OPERATION_MARKER,
    Thesaurus,
    ThesaurusEntry,
    anchor,
    load_domain_ontology,
    normalize_term,
    operation_term,
    serialize_domain_ontology,
    term_stem,
)
from .similarity import (
    MODE_BIPARTITE,
    MODE_LITERAL,
    ONE,
    PairScore,
    VERDICT_NOT_SYNONYM,
    VERDICT_SYNONYM,
    ZERO,
    parse_score,
    semantic_similarity,
    similarity_matrix,
)
from .transform import (
    ComponentOntology,
    Concept,
    KIND_ATTRIBUTE,
    KIND_COMPONENT,
    KIND_OPERATION,
    component_ontology_from_json,
    parse_component_ontology,
    serialize_component_ontology,
    to_component,
    to_ontology,
)

# the names imported above, without the submodules and the __future__ feature
__all__ = [
    name
    for name in dir()
    if not (name.startswith("_") or name == "annotations" or isinstance(globals()[name], _Module))
]
