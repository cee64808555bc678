"""Term normalization, ontology loading, and thesaurus lookups."""

from __future__ import annotations

import random

import pytest

from cmfuse import (
    ANCHOR_AMBIGUOUS,
    ANCHOR_NONE,
    ANCHOR_UNIQUE,
    DocumentError,
    DomainConcept,
    DomainOntology,
    IntegrationError,
    RELATION_HOMONYM,
    RELATION_SAME,
    RELATION_UNRELATED,
    ThesaurusEntry,
    anchor,
    load_domain_ontology,
    normalize_term,
    operation_term,
    relation,
    serialize_domain_ontology,
    term_stem,
)

from helpers import quick_ontology, reference_normalize_term


class TestNormalizeTerm:
    def test_strips_and_casefolds(self):
        assert normalize_term("  Prénom ") == "prénom"

    def test_trailing_call_marker_is_glued(self):
        assert normalize_term("Lire ()") == "lire()"

    def test_plain_term_is_a_fixpoint(self):
        assert normalize_term("nom") == "nom"

    def test_internal_whitespace_collapses(self):
        assert normalize_term("numéro   lecteur") == "numéro lecteur"

    def test_composes_decomposed_accents(self):
        assert normalize_term("prénom") == "prénom"

    def test_accents_survive(self):
        assert normalize_term("Éditeur") == "éditeur"

    def test_idempotent_on_arbitrary_input(self):
        rng = random.Random(7)
        alphabet = "aBé ()xY."
        for _ in range(300):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            once = normalize_term(raw)
            assert normalize_term(once) == once

    def test_the_cached_fold_equals_the_plain_one(self):
        # each raw label asked for twice, the second time from the cache,
        # and more distinct labels than the cache holds
        rng = random.Random(8)
        alphabet = ["a", "B", "é", "e\u0301", "ß", "Σ", "ﬁ", " ", "\t", "\u00a0", "\u2003", "(", ")", "()", ".", "İ"]
        labels = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(10))) for _ in range(3000)]
        labels += [f"label {i} ()" for i in range(normalize_term.cache_info().maxsize + 100)]
        for raw in labels + labels[:3000]:
            assert normalize_term(raw) == reference_normalize_term(raw), repr(raw)
        assert normalize_term.cache_info().currsize <= normalize_term.cache_info().maxsize

    def test_operation_term_appends_marker(self):
        assert operation_term("Consulter") == "consulter()"
        assert operation_term("Lire ()") == "lire()"

    def test_term_stem_drops_marker(self):
        assert term_stem("lire()") == "lire"
        assert term_stem("nom") == "nom"


class TestLoading:
    def test_library_fixture_loads(self, library_ontology):
        assert len(library_ontology.concepts) == 5
        assert library_ontology.label("PERSON") == "personne"
        assert library_ontology.concept("PUB-PRESS").parent == "DOCUMENT"

    def test_labels_join_their_thesaurus_entry(self, library_ontology):
        # DOCUMENT has no thesaurus entry in the file; its label still anchors
        found = anchor("document", library_ontology)
        assert found.kind == ANCHOR_UNIQUE
        assert found.concepts == ("DOCUMENT",)

    def test_empty_ontology_is_valid(self):
        od = load_domain_ontology('{"concepts": [], "thesaurus": []}')
        assert od.concepts == ()
        assert anchor("anything", od).kind == ANCHOR_NONE

    def test_unknown_parent_rejected(self):
        doc = '{"concepts": [{"id": "A", "label": "a", "parent": "GHOST"}], "thesaurus": []}'
        with pytest.raises(DocumentError, match="parent 'GHOST' does not exist"):
            load_domain_ontology(doc)

    def test_empty_concept_id_rejected(self):
        # the document readers reject an empty id first; only code reaches this check
        with pytest.raises(DocumentError, match="concept with empty id"):
            DomainOntology([DomainConcept("", "x")])

    def test_duplicate_concept_id_rejected(self):
        doc = (
            '{"concepts": [{"id": "A", "label": "a"}, {"id": "A", "label": "b"}],'
            ' "thesaurus": []}'
        )
        with pytest.raises(DocumentError, match="duplicate concept id 'A'"):
            load_domain_ontology(doc)

    def test_taxonomy_cycle_rejected(self):
        doc = (
            '{"concepts": [{"id": "A", "label": "a", "parent": "B"},'
            ' {"id": "B", "label": "b", "parent": "A"}], "thesaurus": []}'
        )
        with pytest.raises(DocumentError, match="taxonomy cycle"):
            load_domain_ontology(doc)

    def test_thesaurus_for_unknown_concept_rejected(self):
        doc = '{"concepts": [], "thesaurus": [{"concept": "X", "terms": ["t"]}]}'
        with pytest.raises(DocumentError, match="unknown concept 'X'"):
            load_domain_ontology(doc)

    def test_duplicate_term_within_entry_rejected(self):
        doc = (
            '{"concepts": [{"id": "A", "label": "a"}],'
            ' "thesaurus": [{"concept": "A", "terms": ["T", "t"]}]}'
        )
        with pytest.raises(DocumentError, match="duplicate term 't'"):
            load_domain_ontology(doc)

    def test_shared_term_across_concepts_is_allowed(self, library_ontology):
        # homonymy is modelled exactly this way
        found = anchor("publication", library_ontology)
        assert found.kind == ANCHOR_AMBIGUOUS

    def test_unknown_keys_rejected(self):
        doc = '{"concepts": [], "thesaurus": [], "extra": 1}'
        with pytest.raises(DocumentError, match="unknown key 'extra'"):
            load_domain_ontology(doc)

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentError, match=r"line 1, column"):
            load_domain_ontology("{nope}")

    def test_all_violations_reported_together(self):
        doc = (
            '{"concepts": [{"id": "A", "label": "a", "parent": "GHOST"},'
            ' {"id": "A", "label": "b"}], "thesaurus": []}'
        )
        with pytest.raises(DocumentError) as err:
            load_domain_ontology(doc)
        text = str(err.value)
        assert "GHOST" in text and "duplicate concept id" in text

    def test_serialize_round_trip(self, library_ontology):
        document = serialize_domain_ontology(library_ontology)
        assert load_domain_ontology(document) == library_ontology


class TestAnchor:
    def test_unique(self, library_ontology):
        found = anchor("consulter()", library_ontology)
        assert found.kind == ANCHOR_UNIQUE
        assert found.concepts == ("ACT-READ",)

    def test_normalizes_before_lookup(self, library_ontology):
        assert anchor("Consulter ()", library_ontology).kind == ANCHOR_UNIQUE

    def test_unknown_term(self, library_ontology):
        found = anchor("inconnu", library_ontology)
        assert found.kind == ANCHOR_NONE
        assert found.concepts == ()

    def test_ambiguous_lists_candidates_in_declaration_order(self, library_ontology):
        found = anchor("publication", library_ontology)
        assert found.concepts == ("PUB-PRESS", "PUB-GENERIC")

    def test_exactly_one_case_applies(self, library_ontology):
        rng = random.Random(11)
        known = [
            t
            for entry in library_ontology.thesaurus.entries
            for t in entry.terms
        ]
        pool = known + [f"fake-{i}" for i in range(10)]
        for _ in range(300):
            term = rng.choice(pool)
            found = anchor(term, library_ontology)
            assert found.kind in (ANCHOR_UNIQUE, ANCHOR_AMBIGUOUS, ANCHOR_NONE)
            expected = {ANCHOR_NONE: 0, ANCHOR_UNIQUE: 1}.get(found.kind)
            if expected is None:
                assert len(found.concepts) >= 2
            else:
                assert len(found.concepts) == expected


class TestRelation:
    def test_same(self, library_ontology):
        assert relation("PERSON", "PERSON", library_ontology) == RELATION_SAME

    def test_homonym_via_shared_term(self, library_ontology):
        assert relation("PUB-PRESS", "PUB-GENERIC", library_ontology) == RELATION_HOMONYM

    def test_unrelated(self, library_ontology):
        assert relation("PERSON", "ACT-READ", library_ontology) == RELATION_UNRELATED

    def test_symmetric(self, library_ontology):
        ids = [c.id for c in library_ontology.concepts]
        for a in ids:
            for b in ids:
                assert relation(a, b, library_ontology) == relation(b, a, library_ontology)

    def test_unknown_concept_raises(self, library_ontology):
        with pytest.raises(IntegrationError, match="unknown concept id"):
            relation("PERSON", "GHOST", library_ontology)

    def test_synonymous_terms_resolve_to_same_concept(self, library_ontology):
        a = anchor("lire()", library_ontology)
        b = anchor("consulter()", library_ontology)
        assert a.concepts == b.concepts == ("ACT-READ",)


class TestQuickOntologyHelper:
    def test_builder_round_trips(self):
        od = quick_ontology({"K1": ["alpha", "beta"], "K2": ["gamma"]})
        assert anchor("beta", od).concepts == ("K1",)
        assert relation("K1", "K2", od) == RELATION_UNRELATED

    def test_programmatic_duplicate_id_rejected(self):
        with pytest.raises(DocumentError):
            DomainOntology(
                [DomainConcept("A", "a"), DomainConcept("A", "b")],
                [],
            )

    def test_entries_for_one_concept_merge(self):
        od = DomainOntology(
            [DomainConcept("A", "a")],
            [ThesaurusEntry("A", ("x",)), ThesaurusEntry("A", ("y",))],
        )
        assert anchor("x", od).concepts == ("A",)
        assert anchor("y", od).concepts == ("A",)
        assert od.terms_of("A") == frozenset({"a", "x", "y"})
