"""The exact diagnostics, in order, that each document reader reports.

One row per malformed document: the reader, the document and the full
``DocumentError.diagnostics`` list it must produce. The rows cover every
message form of the readers, including the places where a reader
stops early or holds a diagnostic back.
"""

from __future__ import annotations

import copy
import json

import pytest

from cmfuse import (
    DocumentError,
    load_domain_ontology,
    parse_alignment,
    parse_component_ontology,
    parse_component_set,
    parse_representation,
)

READERS = {
    "set": parse_component_set,
    "ontology": load_domain_ontology,
    "graph": parse_component_ontology,
    "alignment": parse_alignment,
    "representation": parse_representation,
}

COMPONENT = {
    "name": "Lecteur",
    "kind": "entity",
    "attributes": [{"name": "nom"}],
    "operations": [{"name": "emprunter", "params": ["livre"]}],
}
SET = {"system": "S", "components": [COMPONENT]}

ONTOLOGY = {
    "concepts": [{"id": "PERSON", "label": "personne"}],
    "thesaurus": [{"concept": "PERSON", "terms": ["lecteur"]}],
}

MEMBER = {"term": "nom", "raw_label": "nom", "kind": "attribute", "members": []}
ROOT = {"term": "lecteur", "raw_label": "Lecteur", "kind": "component", "members": [MEMBER]}
GRAPH = {"source": "A", "origin": "Lecteur", "root": ROOT}
# concept graphs are flat: each member that has members is reported at
# its members, and nothing below them is walked
ADRESSE = {**MEMBER, "term": "adresse", "raw_label": "Adresse", "members": [{**MEMBER, "term": "rue"}]}
VILLE = {**MEMBER, "term": "ville", "raw_label": "Ville", "members": [{"term": " ", "kind": "op"}]}
NESTED = {**GRAPH, "root": {**ROOT, "members": [ADRESSE, MEMBER, VILLE]}}


def flat(root: str) -> list[str]:
    return [f"{root}.members[{i}].members: must be empty; concept graphs are flat" for i in (0, 2)]


ENDPOINT = {"source": "A", "origin": "Lecteur", "member": None}
CORRESPONDENCE = {
    "left": ENDPOINT,
    "right": {"source": "B", "origin": "Usager", "member": None},
    "score": "1/2",
    "class": "distinct",
}
ALIGNMENT = {
    "correspondences": [CORRESPONDENCE],
    "conflicts": [],
    "diagnostics": [],
    "settings": {"mode": "literal", "recursive": True},
    "ontologies": [GRAPH, {**GRAPH, "source": "B", "origin": "Usager"}],
    "domain": ONTOLOGY,
}

REPRESENTATION = {"roots": [{**GRAPH, "merged_from": ["A/Lecteur"]}], "equivalences": []}

MUST_BE_CLASS = "must be one of equivalent, synonym_pair, homonym_conflict, distinct"
MUST_BE_KIND = "must be one of component, attribute, operation"


DROP = object()


def edit(base: dict, **changes) -> dict:
    """A deep copy of base with top-level keys replaced; a DROP value removes the key."""
    doc = copy.deepcopy(base)
    for key, value in changes.items():
        if value is DROP:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def component(**changes) -> dict:
    return edit(SET, components=[edit(COMPONENT, **changes)])


def root(**changes) -> dict:
    return edit(GRAPH, root=edit(ROOT, **changes))


def corr(**changes) -> dict:
    return edit(ALIGNMENT, correspondences=[edit(CORRESPONDENCE, **changes)])


ROWS = [
    # ---- component sets
    ("set-syntax", "set", '{"system": "S",\n  oops}',
     ["syntax error at line 2, column 3: Expecting property name enclosed in double quotes"]),
    ("set-top-level", "set", [], ["top level must be an object"]),
    ("set-top-keys", "set", {"components": [], "colour": 1},
     ["missing required key 'system'", "unknown key 'colour'"]),
    # an invalid system leaves every component without a source
    ("set-system", "set", edit(SET, system=""),
     ["system: must be a non-empty string", "components[0]: source must be non-empty"]),
    # a path "<source>/<origin>" ends its source at the first "/"
    ("set-system-slash", "set", edit(SET, system="Sys/A"), ["system: must not hold '/'"]),
    ("set-components-type", "set", edit(SET, components={}), ["components: must be a list"]),
    ("set-null-is-absent", "set", edit(SET, components=None, extra=1), ["unknown key 'extra'"]),
    ("set-component-type", "set", edit(SET, components=[1, "x"]),
     ["components[0]: must be an object", "components[1]: must be an object"]),
    ("set-component-keys", "set", edit(SET, components=[{"name": "X", "color": "red"}]),
     [
         "components[0]: missing required key 'attributes'",
         "components[0]: missing required key 'kind'",
         "components[0]: missing required key 'operations'",
         "components[0]: unknown key 'color'",
     ]),
    ("set-component-field-types", "set",
     component(name=1, kind=None, doc=5, attributes="x", operations={}, provides="p",
               requires=[1, " ", "ok"], anchors=[]),
     [
         "components[0].name: must be a string",
         "components[0].kind: must be a string",
         "components[0].doc: must be a string",
         "components[0].attributes: must be a list",
         "components[0].operations: must be a list",
         "components[0].provides: must be a list of strings",
         "components[0].requires[0]: must be a non-empty string",
         "components[0].requires[1]: must be a non-empty string",
         "components[0].anchors: must be an object",
     ]),
    ("set-null-optionals", "set",
     component(doc=None, attributes=None, operations=None, provides=None, requires=None,
               anchors=None, kind=None),
     ["components[0].kind: must be a string"]),
    ("set-anchors", "set", component(anchors={"nom": "", "x": 3, "ok": "PERSON"}),
     [
         "components[0].anchors['nom']: must be a non-empty concept id",
         "components[0].anchors['x']: must be a non-empty concept id",
     ]),
    ("set-attributes", "set",
     component(attributes=[5, {"name": 1, "datatype": 2, "unit": []}, {"name": "  "},
                           {"unit": "kg", "size": 1}, {"name": "ok", "datatype": None}]),
     [
         "components[0].attributes[0]: must be an object",
         "components[0].attributes[1].name: must be a string",
         "components[0].attributes[1].datatype: must be a string",
         "components[0].attributes[1].unit: must be a string",
         "components[0].attributes[2]: name must be non-empty",
         "components[0].attributes[3]: missing required key 'name'",
         "components[0].attributes[3]: unknown key 'size'",
     ]),
    ("set-operations", "set",
     component(operations=[{"name": 2, "params": ["a", 1], "returns": 3}, {"name": "()"},
                           {"name": "lire", "params": "a", "mode": 1}]),
     [
         "components[0].operations[0].name: must be a string",
         "components[0].operations[0].params: must be a list of strings",
         "components[0].operations[0].returns: must be a string",
         "components[0].operations[1]: name must be non-empty",
         "components[0].operations[2]: unknown key 'mode'",
         "components[0].operations[2].params: must be a list of strings",
     ]),
    ("set-component-invariants", "set",
     component(name="X", kind="widget", attributes=[{"name": "nom"}, {"name": "Nom"}],
               operations=[{"name": "nom"}]),
     [
         "components[0]: unknown kind 'widget' (expected one of entity, process, utility, data)",
         "components[0]: duplicate attribute term 'nom'",
         "components[0]: operation 'nom()' shares its term with an attribute",
     ]),
    ("set-component-name", "set", component(name="  "), ["components[0]: name must be non-empty"]),
    # a component's invariants are reported in place, before later components
    ("set-invariant-order", "set",
     edit(SET, components=[edit(COMPONENT, kind="widget"), edit(COMPONENT, name=7)]),
     [
         "components[0]: unknown kind 'widget' (expected one of entity, process, utility, data)",
         "components[1].name: must be a string",
     ]),
    ("set-duplicates", "set",
     edit(SET, components=[COMPONENT, edit(COMPONENT, name="lecteur"), edit(COMPONENT, name="LECTEUR ")]),
     [
         "components[1]: duplicate component 'lecteur' (already declared at components[0])",
         "components[2]: duplicate component 'LECTEUR ' (already declared at components[0])",
     ]),
    # duplicates are reported only when nothing else is wrong
    ("set-duplicates-held-back", "set",
     edit(SET, components=[COMPONENT, edit(COMPONENT, name="lecteur"), edit(COMPONENT, name="Z", doc=1)]),
     ["components[2].doc: must be a string"]),
    # ---- domain ontologies
    ("ontology-top-level", "ontology", "3", ["top level must be an object"]),
    ("ontology-top-keys", "ontology", {"concepts": [], "extra": 1},
     ["missing required key 'thesaurus'", "unknown key 'extra'"]),
    ("ontology-list-types", "ontology", {"concepts": {}, "thesaurus": "t"},
     ["concepts: must be a list", "thesaurus: must be a list"]),
    ("ontology-concepts", "ontology",
     edit(ONTOLOGY, concepts=["x", {"id": "", "label": 3, "parent": 4, "definitions": "d"},
                              {"label": "l", "definitions": ["a", 2, None]},
                              {"id": "B", "label": "b", "note": 1}, {"id": None, "label": None}]),
     [
         "concepts[0]: must be an object",
         "concepts[1].id: must be a non-empty string",
         "concepts[1].label: must be a string",
         "concepts[1].parent: must be a string",
         "concepts[1].definitions: must be a list of strings",
         "concepts[2]: missing required key 'id'",
         "concepts[2].definitions[1]: must be a string",
         "concepts[2].definitions[2]: must be a string",
         "concepts[3]: unknown key 'note'",
         "concepts[4].id: must be a non-empty string",
         "concepts[4].label: must be a string",
     ]),
    ("ontology-thesaurus", "ontology",
     edit(ONTOLOGY, thesaurus=[{"concept": None, "terms": [1, "a", None]}, {"terms": "t"}, 7,
                               {"concept": "PERSON", "terms": None, "x": 0}]),
     [
         "thesaurus[0].concept: must be a non-empty string",
         "thesaurus[0].terms[0]: must be a string",
         "thesaurus[0].terms[2]: must be a string",
         "thesaurus[1]: missing required key 'concept'",
         "thesaurus[1].terms: must be a list of strings",
         "thesaurus[2]: must be an object",
         "thesaurus[3]: unknown key 'x'",
     ]),
    ("ontology-invariants", "ontology",
     {"concepts": [{"id": "A", "label": "a"}, {"id": "A", "label": "b"},
                   {"id": "B", "label": " ", "parent": "GHOST"}],
      "thesaurus": [{"concept": "X", "terms": ["t"]}, {"concept": "A", "terms": ["t", "T", " "]}]},
     [
         "duplicate concept id 'A'",
         "concept 'B': label must be non-empty",
         "concept 'B': parent 'GHOST' does not exist",
         "thesaurus entry for unknown concept 'X'",
         "thesaurus entry 'A': duplicate term 't'",
         "thesaurus entry 'A': empty term",
     ]),
    ("ontology-cycle", "ontology",
     {"concepts": [{"id": "A", "label": "a", "parent": "B"}, {"id": "B", "label": "b", "parent": "A"}],
      "thesaurus": []},
     ["taxonomy cycle: A -> B -> A", "taxonomy cycle: B -> A -> B"]),
    # invariants are checked only on a well-formed document
    ("ontology-invariants-held-back", "ontology",
     {"concepts": [{"id": "A", "label": "a"}, {"id": "A", "label": 1}], "thesaurus": []},
     ["concepts[1].label: must be a string"]),
    # ---- concept graphs
    ("graph-top-level", "graph", "null", ["top level must be an object"]),
    ("graph-top-keys", "graph", {"source": "A", "origin": "O", "x": 1},
     ["missing required key 'root'", "unknown key 'x'"]),
    # a null root is reported as missing, and only when nothing else is wrong
    ("graph-null-root", "graph", edit(GRAPH, root=None), ["root: missing"]),
    ("graph-null-root-held-back", "graph", edit(GRAPH, root=None, source=""),
     ["source: must be a non-empty string"]),
    ("graph-names", "graph", edit(GRAPH, source=1, origin=""),
     ["source: must be a non-empty string", "origin: must be a non-empty string"]),
    ("graph-source-slash", "graph", edit(GRAPH, source="A/B"), ["source must not hold '/'"]),
    ("graph-metadata-type", "graph", edit(GRAPH, metadata=[]), ["metadata: must be an object"]),
    ("graph-metadata-fields", "graph",
     edit(GRAPH, metadata={"kind": 3, "provides": "p", "requires": ["a", 1], "extra": 0}),
     [
         "metadata: unknown key 'extra'",
         "metadata.kind: must be a string",
         "metadata.provides: must be a list of strings",
         "metadata.requires: must be a list of strings",
     ]),
    ("graph-metadata-null-kind", "graph", edit(GRAPH, metadata={"kind": None, "provides": None}),
     ["metadata.kind: must be a string"]),
    ("graph-root-type", "graph", edit(GRAPH, root="x"), ["root: must be an object"]),
    # the fields are checked in the order a graph is written: root, then metadata
    ("graph-root-then-metadata", "graph", edit(GRAPH, metadata={"kind": 1}, root=edit(ROOT, term=" ")),
     ["root.term: must be a non-empty string", "metadata.kind: must be a string"]),
    ("graph-concept-fields", "graph",
     root(term=" ", raw_label=5, kind="widget", anchor="", definitions=[1], members={}, note=1),
     [
         "root: unknown key 'note'",
         "root.term: must be a non-empty string",
         "root.raw_label: must be a string",
         f"root.kind: {MUST_BE_KIND}",
         "root.anchor: must be a non-empty string",
         "root.definitions: must be a list of strings",
         "root.members: must be a list",
     ]),
    ("graph-nested-members", "graph",
     root(members=[3, {"term": "a", "kind": "attribute", "members": [
         {"term": "b", "raw_label": "b", "kind": "op", "members": None}]}]),
     [
         "root.members[0]: must be an object",
         "root.members[1]: missing required key 'raw_label'",
         "root.members[1].members: must be empty; concept graphs are flat",
     ]),
    ("graph-member-with-members", "graph", NESTED, flat("root")),
    # a member's members must be a list, and null counts as absent
    ("graph-member-members-not-a-list", "graph",
     root(members=[{**MEMBER, "members": 5},
                   {**MEMBER, "term": "age", "raw_label": "age", "members": None}]),
     ["root.members[0].members: must be a list"]),
    ("graph-concept-invariants", "graph",
     root(members=[MEMBER, {**MEMBER, "raw_label": "Nom"}, {**MEMBER, "kind": "component"}]),
     [
         "root: duplicate member term 'nom' (attribute)",
         "root: the component kind may only appear at the root",
     ]),
    ("graph-root-kind", "graph", root(kind="attribute"),
     ["the root concept must have the component kind"]),
    # ---- alignments
    ("alignment-top-level", "alignment", "[1]", ["top level must be an object"]),
    ("alignment-member-with-members", "alignment",
     edit(ALIGNMENT, ontologies=[GRAPH, {**NESTED, "source": "B", "origin": "Usager"}]),
     flat("ontologies[1].root")),
    # key problems at the top level stop the parse
    ("alignment-top-keys-stop", "alignment",
     edit(ALIGNMENT, domain=DROP, extra=1, settings=[], diagnostics=3),
     ["missing required key 'domain'", "unknown key 'extra'"]),
    # correspondences that are not a list stop the parse too
    ("alignment-correspondences-stop", "alignment",
     edit(ALIGNMENT, correspondences={}, settings={"mode": "x"}, diagnostics=3),
     ["correspondences: must be a list"]),
    ("alignment-settings-type", "alignment", edit(ALIGNMENT, settings=[]),
     ["settings: must be an object"]),
    ("alignment-settings-fields", "alignment",
     edit(ALIGNMENT, settings={"mode": "fuzzy", "recursive": "yes", "x": 1}),
     [
         "settings: unknown key 'x'",
         "settings.mode: must be literal or bipartite",
         "settings.recursive: must be a boolean",
     ]),
    ("alignment-settings-null-values", "alignment",
     edit(ALIGNMENT, settings={"mode": None, "recursive": 1}),
     ["settings.mode: must be literal or bipartite", "settings.recursive: must be a boolean"]),
    # the conflicts list is checked as a correspondence list, after the
    # correspondences; a missing endpoint is also not an object
    ("alignment-correspondences", "alignment",
     edit(ALIGNMENT, conflicts="ignored", correspondences=[
         5, {"left": {"source": "A", "origin": "X"}, "score": 3, "class": "same"}]),
     [
         "correspondences[0]: must be an object",
         "correspondences[1]: missing required key 'right'",
         "correspondences[1].left: missing required key 'member'",
         "correspondences[1].right: must be an object",
         "correspondences[1].score: must be a string",
         f"correspondences[1].class: {MUST_BE_CLASS}",
         "conflicts: must be a list",
     ]),
    ("alignment-endpoint-fields", "alignment",
     corr(left={"source": "", "origin": 5, "member": 3, "x": 0}, right=None, **{"class": None}),
     [
         "correspondences[0].left: unknown key 'x'",
         "correspondences[0].left.source: must be a non-empty string",
         "correspondences[0].left.origin: must be a non-empty string",
         "correspondences[0].left.member: must be a string or null",
         "correspondences[0].right: must be an object",
         f"correspondences[0].class: {MUST_BE_CLASS}",
     ]),
    ("alignment-scores", "alignment",
     edit(ALIGNMENT, correspondences=[edit(CORRESPONDENCE, score=s) for s in ("3/2", "1/0", "half", "2", "0")]),
     [
         "correspondences[0].score: not a rational in [0, 1]",
         "correspondences[1].score: not a rational in [0, 1]",
         "correspondences[2].score: not a rational in [0, 1]",
         "correspondences[3].score: not a rational in [0, 1]",
     ]),
    ("alignment-lists", "alignment", edit(ALIGNMENT, diagnostics=["ok", 1], ontologies={}, domain=[]),
     [
         "diagnostics: must be a list of strings",
         "ontologies: must be a list",
         "domain: must be an object",
     ]),
    # graph diagnostics carry the ontologies[i] path; graph invariants do not
    ("alignment-ontologies", "alignment",
     edit(ALIGNMENT, ontologies=[
         3,
         edit(GRAPH, origin=DROP, root=edit(ROOT, term="")),
         edit(GRAPH, root=None),
         edit(GRAPH, root=edit(ROOT, kind="operation")),
         edit(GRAPH, metadata={"kind": 1}),
     ]),
     [
         "ontologies[0]: must be an object",
         "ontologies[1]: missing required key 'origin'",
         "ontologies[1].root.term: must be a non-empty string",
         "ontologies[2].root: missing",
         "the root concept must have the component kind",
         "ontologies[4].metadata.kind: must be a string",
     ]),
    ("alignment-ontology-source-slash", "alignment",
     edit(ALIGNMENT, ontologies=[GRAPH, edit(GRAPH, source="B/C", origin="Usager")]),
     ["source must not hold '/'"]),
    ("alignment-graph-root-then-metadata", "alignment",
     edit(ALIGNMENT, ontologies=[edit(GRAPH, metadata={"kind": 1}, root=edit(ROOT, term=" "))]),
     ["ontologies[0].root.term: must be a non-empty string", "ontologies[0].metadata.kind: must be a string"]),
    # the embedded domain reports as a document of its own, under a domain: prefix
    ("alignment-domain-shape", "alignment",
     edit(ALIGNMENT, domain={"concepts": [{"id": 1, "label": "x"}], "extra": 1}),
     [
         "domain: missing required key 'thesaurus'",
         "domain: unknown key 'extra'",
         "domain: concepts[0].id: must be a non-empty string",
     ]),
    ("alignment-domain-invariants", "alignment",
     edit(ALIGNMENT, domain={"concepts": [{"id": "A", "label": "a"}, {"id": "A", "label": "b"}],
                             "thesaurus": [{"concept": "Z", "terms": []}]}),
     ["domain: duplicate concept id 'A'", "domain: thesaurus entry for unknown concept 'Z'"]),
    ("alignment-everything-at-once", "alignment",
     edit(ALIGNMENT, settings={"recursive": None}, correspondences=[edit(CORRESPONDENCE, score="2/1")],
          diagnostics=None, ontologies=[None], domain={"concepts": None, "thesaurus": [1]}),
     [
         "settings.recursive: must be a boolean",
         "correspondences[0].score: not a rational in [0, 1]",
         "diagnostics: must be a list of strings",
         "ontologies[0]: must be an object",
         "domain: thesaurus[0]: must be an object",
     ]),
    # ---- representations
    ("representation-member-with-members", "representation",
     edit(REPRESENTATION, roots=[{**NESTED, "merged_from": ["A/Lecteur"]}]),
     flat("roots[0].root")),
]


def _text(document) -> str:
    return document if isinstance(document, str) else json.dumps(document, ensure_ascii=False)


@pytest.mark.parametrize("reader,document,expected", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_diagnostics(reader, document, expected):
    with pytest.raises(DocumentError) as err:
        READERS[reader](_text(document), source="doc.json")
    assert err.value.source == "doc.json"
    assert err.value.diagnostics == expected


@pytest.mark.parametrize("reader,document", [
    ("set", SET), ("ontology", ONTOLOGY), ("graph", GRAPH), ("alignment", ALIGNMENT),
    ("representation", REPRESENTATION),
])
def test_base_documents_are_valid(reader, document):
    READERS[reader](_text(document), source="doc.json")
