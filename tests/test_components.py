"""Component-set parsing, serialization, union and layering checks."""

from __future__ import annotations

import random

import pytest

from cmfuse import (
    Attribute,
    ComponentSet,
    DocumentError,
    check_layering,
    parse_component_set,
    serialize_component_set,
    union,
)

from conftest import read_fixture
from helpers import component, random_component_set


class TestParsing:
    def test_library_fixture(self, biblio1):
        assert biblio1.system == "Biblio1"
        names = [c.name for c in biblio1.components]
        assert names == ["Personne", "Publication"]
        personne = biblio1.components[0]
        assert personne.kind == "entity"
        assert personne.source == "Biblio1"
        assert [a.term for a in personne.attributes] == ["numéro lecteur", "prénom", "nom"]
        assert [o.term for o in personne.operations] == ["consulter()"]
        assert personne.provides == ("lire()",)

    def test_empty_components_list(self):
        cs = parse_component_set('{"system": "S", "components": []}')
        assert cs.components == ()

    def test_duplicate_attribute_term_rejected(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [{"name": "Nom"}, {"name": "nom"}], "operations": []}]}'
        )
        with pytest.raises(DocumentError, match="duplicate attribute term 'nom'"):
            parse_component_set(doc)

    def test_operation_clashing_with_attribute_rejected(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [{"name": "lire"}], "operations": [{"name": "Lire ()"}]}]}'
        )
        with pytest.raises(DocumentError, match="shares its term with an attribute"):
            parse_component_set(doc)

    def test_duplicate_operation_term_rejected(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [], "operations": [{"name": "lire"}, {"name": "Lire ()"}]}]}'
        )
        expected = r"components\[0\]: duplicate operation term 'lire\(\)'"
        with pytest.raises(DocumentError, match=expected):
            parse_component_set(doc)

    def test_unknown_kind_rejected(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "widget",'
            ' "attributes": [], "operations": []}]}'
        )
        with pytest.raises(DocumentError, match="unknown kind 'widget'"):
            parse_component_set(doc)

    def test_duplicate_component_rejected(self):
        doc = (
            '{"system": "S", "components": ['
            '{"name": "C", "kind": "entity", "attributes": [], "operations": []},'
            '{"name": "c", "kind": "data", "attributes": [], "operations": []}]}'
        )
        with pytest.raises(DocumentError, match="duplicate component"):
            parse_component_set(doc)

    def test_unknown_key_rejected_with_path(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [], "operations": [], "color": "red"}]}'
        )
        with pytest.raises(DocumentError, match=r"components\[0\]: unknown key 'color'"):
            parse_component_set(doc)

    def test_missing_required_keys_reported(self):
        doc = '{"system": "S", "components": [{"name": "C", "kind": "entity"}]}'
        with pytest.raises(DocumentError) as err:
            parse_component_set(doc)
        assert "missing required key 'attributes'" in str(err.value)
        assert "missing required key 'operations'" in str(err.value)

    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(DocumentError, match="syntax error at line 2"):
            parse_component_set('{\n  "system": }')

    def test_every_violation_reported_in_one_pass(self):
        doc = (
            '{"system": "S", "components": ['
            '{"name": "A", "kind": "widget", "attributes": [], "operations": []},'
            '{"name": "B", "kind": "entity", "attributes": [{"name": ""}],'
            ' "operations": []}]}'
        )
        with pytest.raises(DocumentError) as err:
            parse_component_set(doc)
        text = str(err.value)
        assert "components[0]" in text and "components[1]" in text

    def test_anchor_keys_are_normalized(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [], "operations": [{"name": "Lire ()"}],'
            ' "anchors": {"Lire ()": "ACT-READ"}}]}'
        )
        cs = parse_component_set(doc)
        assert cs.components[0].anchors == {"lire()": "ACT-READ"}

    def test_operation_params_and_returns(self):
        doc = (
            '{"system": "S", "components": [{"name": "C", "kind": "entity",'
            ' "attributes": [], "operations": [{"name": "f", "params": ["x"],'
            ' "returns": "int"}]}]}'
        )
        op = parse_component_set(doc).components[0].operations[0]
        assert op.params == ("x",)
        assert op.returns == "int"


class TestInvariantsOnConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(DocumentError, match="name must be non-empty"):
            component("   ")

    def test_attribute_empty_name_rejected(self):
        with pytest.raises(DocumentError, match="name must be non-empty"):
            Attribute(name=" ")

    def test_same_stem_attribute_and_operation_rejected(self):
        with pytest.raises(DocumentError, match="shares its term"):
            component("C", attrs=["solde"], ops=["Solde"])

    def test_attribute_and_operation_with_distinct_stems_coexist(self):
        c = component("C", attrs=["solde"], ops=["calculer"])
        assert [m.term for m in c.operations] == ["calculer()"]

    def test_set_rejects_same_source_and_name(self):
        a = component("C", source="S")
        b = component(" c ", source="S")
        with pytest.raises(DocumentError, match="duplicate component"):
            ComponentSet(system="S", components=(a, b))


class TestSerialization:
    def test_parse_serialize_identity(self, biblio1):
        document = serialize_component_set(biblio1)
        assert parse_component_set(document, source="x") == ComponentSet(
            system=biblio1.system, components=biblio1.components
        )

    def test_serialization_is_byte_stable(self, biblio1):
        once = serialize_component_set(biblio1)
        twice = serialize_component_set(parse_component_set(once))
        assert once == twice

    def test_fixture_file_is_canonical_after_one_round(self):
        raw = read_fixture("biblio2.json")
        cs = parse_component_set(raw, source="biblio2.json")
        again = parse_component_set(serialize_component_set(cs), source="copy")
        assert again.components == cs.components

    def test_random_sets_round_trip(self):
        rng = random.Random(23)
        for case in range(200):
            cs = random_component_set(rng, case)
            document = serialize_component_set(cs)
            back = parse_component_set(document)
            assert back == cs
            assert serialize_component_set(back) == document


class TestUnion:
    def test_concatenates_and_keeps_sources(self, biblio1, biblio2):
        merged = union(biblio1, biblio2)
        assert merged.system == "Biblio1+Biblio2"
        assert len(merged.components) == 4
        assert {c.source for c in merged.components} == {"Biblio1", "Biblio2"}

    def test_empty_set_is_identity(self, biblio1):
        empty = ComponentSet(system="Empty")
        assert union(biblio1, empty) == biblio1
        assert union(empty, biblio1) == biblio1

    def test_associative(self):
        a = ComponentSet("A", (component("X", source="A"),))
        b = ComponentSet("B", (component("Y", source="B"),))
        c = ComponentSet("C", (component("Z", source="C"),))
        assert union(union(a, b), c) == union(a, union(b, c))

    def test_identical_source_and_name_collide(self, biblio1):
        with pytest.raises(DocumentError, match="duplicate component"):
            union(biblio1, biblio1)


class TestLayering:
    def test_entity_requiring_process_is_flagged(self):
        worker = component("Worker", kind="process", source="S1", provides=("flow",))
        store = component("Store", kind="entity", source="S2", requires=("flow",))
        warnings = check_layering(ComponentSet("S", (worker, store)))
        assert len(warnings) == 1
        assert "S2/Store (entity) requires 'flow'" in warnings[0]
        assert "S1/Worker (process)" in warnings[0]

    def test_process_requiring_entity_is_fine(self):
        store = component("Store", kind="entity", source="S1", provides=("data",))
        worker = component("Worker", kind="process", source="S2", requires=("data",))
        assert check_layering(ComponentSet("S", (store, worker))) == []

    def test_interface_names_match_after_normalization(self):
        worker = component("Worker", kind="process", source="S1", provides=("Flow ",))
        store = component("Store", kind="data", source="S2", requires=("flow",))
        assert len(check_layering(ComponentSet("S", (worker, store)))) == 1

    def test_unprovided_requirement_is_silent(self):
        lonely = component("Lone", kind="data", source="S", requires=("ghost",))
        assert check_layering(ComponentSet("S", (lonely,))) == []

    def test_a_component_requiring_what_it_provides_is_silent(self):
        reader = component("Reader", source="S", provides=("lire()",), requires=("lire()",))
        assert check_layering(ComponentSet("S", (reader,))) == []

    def test_fixture_has_no_layering_warnings(self, biblio1, biblio2):
        assert check_layering(union(biblio1, biblio2)) == []
