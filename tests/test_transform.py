"""Component-to-concept-graph transformation and its inverse."""

from __future__ import annotations

import sys

import pytest

from cmfuse import (
    KIND_ATTRIBUTE,
    KIND_COMPONENT,
    KIND_OPERATION,
    Attribute,
    BusinessComponent,
    Concept,
    DocumentError,
    component_ontology_from_json,
    component_ontology_to_json,
    parse_component_ontology,
    serialize_component_ontology,
    to_component,
    to_ontology,
)

from helpers import atom, component, quick_ontology, root


class TestToOntology:
    def test_personne_graph(self, biblio1, library_ontology):
        graph = to_ontology(biblio1.components[0], library_ontology)
        assert graph.source == "Biblio1"
        assert graph.origin == "Personne"
        assert graph.path == "Biblio1/Personne"
        assert graph.root.term == "personne"
        assert graph.root.kind == KIND_COMPONENT
        assert graph.root.anchor == "PERSON"
        assert graph.kind == "entity"
        assert graph.provides == ("lire()",)

    def test_members_preserve_order_attributes_first(self, biblio1, library_ontology):
        graph = to_ontology(biblio1.components[0], library_ontology)
        terms = [m.term for m in graph.root.members]
        assert terms == ["numéro lecteur", "prénom", "nom", "consulter()"]
        kinds = [m.kind for m in graph.root.members]
        assert kinds == [KIND_ATTRIBUTE] * 3 + [KIND_OPERATION]

    def test_operation_anchor_resolved_from_thesaurus(self, biblio1, library_ontology):
        graph = to_ontology(biblio1.components[0], library_ontology)
        consulter = graph.root.members[-1]
        assert consulter.term == "consulter()"
        assert consulter.anchor == "ACT-READ"

    def test_doc_becomes_first_definition(self, biblio1, library_ontology):
        graph = to_ontology(biblio1.components[0], library_ontology)
        assert graph.root.definitions
        assert graph.root.definitions[0] == biblio1.components[0].doc

    def test_ambiguous_term_left_unanchored(self, biblio1, library_ontology):
        diagnostics: list[str] = []
        graph = to_ontology(
            biblio1.components[1], library_ontology, diagnostics=diagnostics
        )
        assert graph.root.anchor is None
        assert diagnostics == [
            "Biblio1/Publication: term 'publication' is listed under several "
            "concepts (PUB-PRESS, PUB-GENERIC); left unanchored"
        ]

    def test_hint_pins_ambiguous_term(self, biblio1, library_ontology):
        pinned = component(
            "Publication",
            attrs=["titre"],
            source="Biblio1",
            anchors={"publication": "PUB-PRESS"},
        )
        graph = to_ontology(pinned, library_ontology)
        assert graph.root.anchor == "PUB-PRESS"

    def test_hint_with_unknown_concept_falls_back(self, library_ontology):
        bad = component("Personne", source="S", anchors={"personne": "NOPE"})
        diagnostics: list[str] = []
        graph = to_ontology(bad, library_ontology, diagnostics=diagnostics)
        # lookup still succeeds through the thesaurus
        assert graph.root.anchor == "PERSON"
        assert diagnostics == [
            "S/Personne: anchor hint 'NOPE' for 'personne' is not a known"
            " concept; falling back to the thesaurus lookup"
        ]

    def test_unused_hint_is_reported(self, library_ontology):
        c = component("Personne", source="S", anchors={"fantôme": "PERSON"})
        diagnostics: list[str] = []
        to_ontology(c, library_ontology, diagnostics=diagnostics)
        assert diagnostics == [
            "S/Personne: anchor hint 'fantôme' matches no member term"
        ]

    def test_hint_matches_operation_by_stem(self, library_ontology):
        c = component(
            "Personne", ops=["Lire ()"], source="S", anchors={"lire": "ACT-READ"}
        )
        graph = to_ontology(c, library_ontology)
        assert graph.root.members[0].anchor == "ACT-READ"

    def test_respelled_hint_pins_its_member(self):
        # the hint key matches the member term as it would read back from a file
        od = quick_ontology({"c1": ["nom"], "c2": ["appellation"]})
        c = BusinessComponent(
            "Client", "entity", "A", attributes=(Attribute("Nom"),), anchors={"Nom": "c2"}
        )
        diagnostics: list[str] = []
        graph = to_ontology(c, od, diagnostics=diagnostics)
        assert graph.root.members[0].anchor == "c2"
        assert diagnostics == []

    def test_unanchorable_term_stays_bare(self, biblio1, library_ontology):
        graph = to_ontology(biblio1.components[0], library_ontology)
        nom = graph.root.members[2]
        assert nom.term == "nom"
        assert nom.anchor is None


class TestToComponent:
    def test_round_trip_personne(self, biblio1, library_ontology):
        original = biblio1.components[0]
        back = to_component(to_ontology(original, library_ontology))
        assert back.name == original.name
        assert back.kind == original.kind
        assert back.doc == original.doc
        assert back.provides == original.provides
        assert [a.name for a in back.attributes] == ["numéro lecteur", "Prénom", "Nom"]
        assert [o.term for o in back.operations] == ["consulter()"]

    def test_round_trip_keeps_name_and_term_multiset(
        self, biblio1, biblio2, library_ontology
    ):
        for cs in (biblio1, biblio2):
            for original in cs.components:
                back = to_component(to_ontology(original, library_ontology))
                assert back.name == original.name
                original_terms = sorted(
                    m.term for m in original.attributes + original.operations
                )
                back_terms = sorted(
                    m.term for m in back.attributes + back.operations
                )
                assert back_terms == original_terms

    def test_operation_marker_stripped_from_name(self, library_ontology):
        c = component("C", ops=["Lire ()"], source="S")
        back = to_component(to_ontology(c, library_ontology))
        assert back.operations[0].name == "Lire"
        assert back.operations[0].term == "lire()"


class TestConceptInvariants:
    def test_component_kind_forbidden_below_root(self):
        inner = root("x")
        with pytest.raises(DocumentError, match="only appear at the root"):
            root("outer", members=(inner,))

    def test_a_member_with_members_is_rejected(self):
        # concept graphs are flat, whether read from a file or built in code
        adresse = Concept("Adresse", "Adresse", KIND_ATTRIBUTE, members=(atom("rue"),))
        with pytest.raises(DocumentError) as err:
            root("client", members=(atom("nom"), adresse))
        assert err.value.diagnostics == ["member 'adresse' has members; concept graphs are flat"]

    def test_duplicate_member_terms_within_kind_rejected(self):
        with pytest.raises(DocumentError, match="duplicate member term 'nom'"):
            root("r", members=(atom("nom"), atom("Nom ")))

    def test_same_term_across_kinds_allowed(self):
        # an attribute "solde" and an operation "solde()" carry distinct terms
        r = root("compte", members=(atom("solde"), atom("solde()", KIND_OPERATION)))
        assert len(r.members) == 2

    def test_term_is_stored_normalized(self):
        concept = Concept("Nom", "Nom", KIND_ATTRIBUTE)
        assert concept.term == "nom" and concept.raw_label == "Nom"

    def test_whitespace_only_term_rejected(self):
        with pytest.raises(DocumentError, match="term must be non-empty"):
            Concept("  ", "  ", KIND_ATTRIBUTE)

    def test_atomicity(self):
        leaf = atom("nom")
        assert leaf.is_atomic
        assert not root("c", members=(leaf,)).is_atomic


class TestGraphSerialization:
    def test_json_round_trip(self, library_graphs):
        for graph in library_graphs:
            data = component_ontology_to_json(graph)
            back = component_ontology_from_json(data, "test", source=graph.source)
            assert back == graph

    def test_text_round_trip(self, library_graphs):
        for graph in library_graphs:
            text = serialize_component_ontology(graph)
            assert parse_component_ontology(text) == graph
            assert serialize_component_ontology(parse_component_ontology(text)) == text

    def test_metadata_omitted_when_default(self, library_ontology):
        plain = component("C", attrs=["nom"], source="S")
        data = component_ontology_to_json(to_ontology(plain, library_ontology))
        assert "metadata" not in data

    def test_metadata_present_when_set(self, biblio1, library_ontology):
        data = component_ontology_to_json(
            to_ontology(biblio1.components[0], library_ontology)
        )
        assert data["metadata"] == {"provides": ["lire()"]}

    def test_unknown_key_rejected(self):
        with pytest.raises(DocumentError, match="unknown key 'extra'"):
            parse_component_ontology(
                '{"source": "S", "origin": "C", "extra": 1,'
                ' "root": {"term": "c", "raw_label": "C", "kind": "component",'
                ' "members": []}}'
            )

    def test_bad_member_kind_rejected(self):
        with pytest.raises(DocumentError, match="must be one of component"):
            parse_component_ontology(
                '{"source": "S", "origin": "C",'
                ' "root": {"term": "c", "raw_label": "C", "kind": "component",'
                ' "members": [{"term": "x", "raw_label": "x", "kind": "thing",'
                ' "members": []}]}}'
            )

    def test_nesting_deeper_than_the_checker_walks_is_a_document_error(self):
        # a parsed object nested past the interpreter's recursion limit:
        # concept graphs are flat, so the checker stops at the first
        # member's members
        node = {"term": "leaf", "raw_label": "leaf", "kind": "attribute", "members": []}
        for depth in range(sys.getrecursionlimit()):
            node = {"term": f"m{depth}", "raw_label": "m", "kind": "attribute", "members": [node]}
        data = {
            "source": "S",
            "origin": "C",
            "root": {"term": "c", "raw_label": "C", "kind": "component", "members": [node]},
        }
        with pytest.raises(DocumentError) as err:
            component_ontology_from_json(data, "", source="deep")
        assert err.value.diagnostics == [
            "root.members[0].members: must be empty; concept graphs are flat"
        ]
