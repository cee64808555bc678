"""Alignment, conflict detection and the merge into one result set."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from cmfuse import (
    KIND_ATTRIBUTE,
    Alignment,
    CLASS_DISTINCT,
    CLASS_EQUIVALENT,
    CLASS_HOMONYM_CONFLICT,
    CLASS_SYNONYM_PAIR,
    MODE_BIPARTITE,
    MODE_LITERAL,
    ComponentOntology,
    ComponentSet,
    Concept,
    Correspondence,
    DocumentError,
    Endpoint,
    MergeError,
    Score,
    align,
    classify,
    detect_naming_conflicts,
    merge,
    normalize_term,
    parse_alignment,
    parse_component_set,
    serialize_alignment,
    serialize_component_set,
    serialize_representation,
    to_ontology,
    union,
)
from cmfuse.cli import main

from helpers import (
    EMPTY_ONTOLOGY,
    atom,
    component,
    quick_ontology,
    random_domain,
    random_source_pair,
    root,
)


class TestClassify:
    def test_four_way_table(self):
        assert classify(True, True) == CLASS_EQUIVALENT
        assert classify(False, True) == CLASS_SYNONYM_PAIR
        assert classify(True, False) == CLASS_HOMONYM_CONFLICT
        assert classify(False, False) == CLASS_DISTINCT


class TestEndpoint:
    def test_paths(self):
        assert Endpoint("S", "C").path == "S/C"
        assert Endpoint("S", "C", "nom").path == "S/C/nom"


class TestCorrespondence:
    def test_a_slotted_value(self):
        # one is kept per correspondence of an alignment, so it has no
        # __dict__; a named tuple, so that the reader builds it without a
        # Python call
        c = Correspondence(Endpoint("S", "C"), Endpoint("T", "D", "nom"), Score(1, 2), CLASS_DISTINCT)
        assert not hasattr(c, "__dict__")
        # AttributeError is also the base of a frozen dataclass's error
        with pytest.raises(AttributeError):
            c.score = Score(1)
        same = Correspondence(Endpoint("S", "C"), Endpoint("T", "D", "nom"), Score(1, 2), CLASS_DISTINCT)
        assert c == same and hash(c) == hash(same)
        assert pickle.loads(pickle.dumps(c)) == c == copy.copy(c) == copy.deepcopy(c)
        other = c._replace(classification=CLASS_EQUIVALENT)
        assert other.classification == CLASS_EQUIVALENT and other.left is c.left and other != c


class TestAlign:
    def test_fixture_root_correspondences(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        roots = alignment.roots
        assert len(roots) == 4
        by_pair = {(c.left.origin, c.right.origin): c for c in roots}
        personne = by_pair[("Personne", "Lecteur")]
        assert personne.score == Score(1)
        assert personne.classification == CLASS_SYNONYM_PAIR
        clash = by_pair[("Publication", "Publication")]
        assert clash.score == Score(2, 3)
        assert clash.classification == CLASS_HOMONYM_CONFLICT
        assert by_pair[("Personne", "Publication")].classification == CLASS_DISTINCT
        assert by_pair[("Publication", "Lecteur")].classification == CLASS_DISTINCT

    def test_fixture_member_correspondences(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        members = [c for c in alignment.correspondences if c.left.member is not None]
        assert len(members) == 6
        pairs = {(c.left.path, c.right.path): c.classification for c in members}
        assert pairs[
            ("Biblio1/Personne/consulter()", "Biblio2/Lecteur/lire()")
        ] == CLASS_SYNONYM_PAIR
        assert pairs[
            ("Biblio1/Personne/nom", "Biblio2/Lecteur/nom")
        ] == CLASS_EQUIVALENT
        assert pairs[
            ("Biblio1/Publication/titre", "Biblio2/Publication/titre")
        ] == CLASS_EQUIVALENT
        assert all(c.score == Score(1) for c in members)

    def test_same_source_pairs_are_skipped(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        for c in alignment.correspondences:
            assert c.left.source != c.right.source

    def test_correspondences_follow_input_order(
        self, library_graphs, library_ontology
    ):
        alignment = align(library_graphs, library_ontology)
        first = alignment.correspondences[0]
        assert (first.left.origin, first.right.origin) == ("Personne", "Lecteur")

    def test_conflicts_property(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        conflicts = alignment.conflicts
        assert len(conflicts) == 1
        assert conflicts[0].classification == CLASS_HOMONYM_CONFLICT

    def test_roots_and_conflicts_are_computed_once(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        fields = repr(alignment)
        roots, conflicts = alignment.roots, alignment.conflicts
        assert alignment.roots is roots and alignment.conflicts is conflicts
        assert roots == tuple(c for c in alignment.correspondences if c.left.member is None)
        # the cache is not a field: repr, equality and replace ignore it
        assert repr(alignment) == fields
        fresh = Alignment(alignment.correspondences, alignment.diagnostics)
        assert fresh == alignment
        changed = dataclasses.replace(alignment, correspondences=roots[:1])
        assert changed.roots == roots[:1] and changed.conflicts == ()
        assert copy.deepcopy(alignment) == alignment

    def test_diagnostics_ride_along(self, library_graphs, library_ontology):
        alignment = align(
            library_graphs, library_ontology, diagnostics=["note one"]
        )
        assert alignment.diagnostics == ("note one",)


class TestDetect:
    def test_fixture_conflicts_in_path_order(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        flagged = detect_naming_conflicts(alignment)
        assert [c.classification for c in flagged] == [
            CLASS_SYNONYM_PAIR,
            CLASS_HOMONYM_CONFLICT,
        ]
        assert flagged[0].left.origin == "Personne"
        assert flagged[1].left.origin == "Publication"

    def test_member_level_synonyms_are_not_flagged(
        self, library_graphs, library_ontology
    ):
        alignment = align(library_graphs, library_ontology)
        for c in detect_naming_conflicts(alignment):
            assert c.left.member is None


def merge_fixture(library_graphs, library_ontology):
    alignment = align(library_graphs, library_ontology)
    return merge(alignment, library_graphs, library_ontology)


class TestMerge:
    def test_result_components(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        names = [c.name for c in merged.result]
        assert names == ["personne", "Biblio1.Publication", "Biblio2.Publication"]

    def test_synonym_class_collapses(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        personne = merged.result[0]
        assert [a.name for a in personne.attributes] == [
            "numéro lecteur",
            "Prénom",
            "Nom",
        ]
        assert [o.term for o in personne.operations] == ["lire()"]
        assert personne.provides == ("lire()",)
        assert personne.kind == "entity"
        assert personne.source == "Biblio1+Biblio2"
        # both docs survive as definitions; the first becomes the doc
        assert personne.doc == "Personne qui consulte les publications en ligne."

    def test_an_error_rebuilding_a_component_names_its_class(self):
        # a member whose label folds to nothing cannot come back as an attribute
        blank = Concept(term="x", raw_label=" ", kind=KIND_ATTRIBUTE)
        graph = ComponentOntology("A", "X", root("X", [blank]))
        with pytest.raises(DocumentError) as caught:
            merge(Alignment(()), [graph], quick_ontology({}))
        assert caught.value.source == "A/X (merged from A/X)"
        assert caught.value.diagnostics == ["name must be non-empty"]

    def test_conflicted_roots_are_qualified(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        pub1, pub2 = merged.result[1], merged.result[2]
        assert pub1.source == "Biblio1"
        assert [a.name for a in pub1.attributes] == ["titre", "éditeur", "périodicité"]
        assert [a.name for a in pub2.attributes] == ["titre", "éditeur"]
        # requires got rewritten to the canonical interface name
        assert pub1.requires == ("lire()",)
        assert pub2.requires == ("lire()",)

    def test_merged_from_covers_every_input_once(
        self, library_graphs, library_ontology
    ):
        merged = merge_fixture(library_graphs, library_ontology)
        folded = [e.path for r in merged.representation.roots for e in r.merged_from]
        assert sorted(folded) == sorted(g.path for g in library_graphs)

    def test_equivalence_links(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        links = merged.representation.equivalences
        assert ("Biblio1/Personne", "Biblio2/Lecteur") in links
        assert (
            "Biblio1/Personne/consulter()",
            "Biblio2/Lecteur/lire()",
        ) in links
        assert len(links) == 5

    def test_merge_is_idempotent(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        graphs = [r.ontology for r in merged.representation.roots]
        again = merge(align(graphs, library_ontology), graphs, library_ontology)
        assert again.result == merged.result

    def test_untouched_graph_passes_through(self, library_ontology):
        lone = to_ontology(
            component("Archive", attrs=["cote"], source="S3"), library_ontology
        )
        merged = merge(align([lone], library_ontology), [lone], library_ontology)
        assert merged.representation.roots[0].ontology is lone
        assert merged.result[0].name == "Archive"

    def test_duplicate_graph_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        doubled = list(library_graphs) + [library_graphs[0]]
        with pytest.raises(MergeError, match="duplicate graph"):
            merge(alignment, doubled, library_ontology)

    def test_dangling_endpoint_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        with pytest.raises(MergeError, match="not in the merged set"):
            merge(alignment, library_graphs[:2], library_ontology)

    def test_uniform_kind_survives_mixed_kind_does_not(self):
        od = quick_ontology({"R": ["x", "y"]})
        a = to_ontology(component("x", kind="process", source="A"), od)
        b = to_ontology(component("y", kind="utility", source="B"), od)
        merged = merge(align([a, b], od), [a, b], od)
        assert merged.result[0].kind == "entity"
        c = to_ontology(component("x", kind="process", source="A"), od)
        d = to_ontology(component("y", kind="process", source="B"), od)
        merged = merge(align([c, d], od), [c, d], od)
        assert merged.result[0].kind == "process"

    def test_homonymous_members_get_qualified(self):
        od = quick_ontology(
            {"R": ["x", "y"], "C1": ["t"], "C2": ["t", "u"], "S": ["c", "d"]}
        )
        left = to_ontology(
            component("x", attrs=["t", "c", "d"], source="A", anchors={"t": "C1"}),
            od,
        )
        right = to_ontology(
            component("y", attrs=["t", "c", "d"], source="B", anchors={"t": "C2"}),
            od,
        )
        merged = merge(align([left, right], od), [left, right], od)
        assert len(merged.result) == 1
        # the synonymous c/d quartet folds to one attribute; the two
        # homonymous t members stay apart, the second source-qualified
        assert [a.name for a in merged.result[0].attributes] == ["t", "c", "B.y.t"]

    def test_transitive_synonyms_fold_into_one_class(self):
        od = quick_ontology({"R": ["x", "y", "z"]})
        graphs = [
            to_ontology(component(n, source=s), od)
            for n, s in (("x", "A"), ("y", "B"), ("z", "C"))
        ]
        merged = merge(align(graphs, od), graphs, od)
        assert len(merged.result) == 1
        assert merged.result[0].name == "x"
        assert merged.result[0].source == "A+B+C"

    def test_pass_through_named_like_a_merged_class_is_qualified(self):
        od = quick_ontology({"PERSON": ["personne", "lecteur", "usager"]})
        graphs = [
            to_ontology(component("Lecteur", attrs=["nom"], source="A"), od),
            to_ontology(component("Usager", attrs=["nom"], source="B"), od),
            to_ontology(component("Personne", attrs=["titre"], source="B"), od),
        ]
        merged = merge(align(graphs, od), graphs, od)
        assert [c.name for c in merged.result] == ["personne", "B.Personne"]

    def test_merged_classes_named_alike_are_qualified(self):
        # x~y and z~x are synonym pairs, and both classes would be named x
        od = quick_ontology({"N": ["nom"], "T": ["titre"]})
        graphs = [
            to_ontology(component(name, attrs=[attr], source=source), od)
            for name, attr, source in (
                ("x", "nom", "A"), ("z", "titre", "A"), ("y", "nom", "B"), ("x", "titre", "B")
            )
        ]
        merged = merge(align(graphs, od), graphs, od)
        assert [c.name for c in merged.result] == ["A.x", "A.z"]
        assert [r.ontology.origin for r in merged.representation.roots] == ["A.x", "A.z"]

    def test_a_qualified_name_taken_by_a_merged_class_is_numbered(self):
        # A's X is qualified A.X for its conflict with B's X, and the class
        # of A's A.X and B's Z, both only titre, is named A.X
        graphs = [
            to_ontology(component(name, attrs=[attr], source=source), EMPTY_ONTOLOGY)
            for name, attr, source in (
                ("X", "nom", "A"), ("A.X", "titre", "A"), ("X", "code", "B"), ("Z", "titre", "B")
            )
        ]
        merged = merge(align(graphs, EMPTY_ONTOLOGY), graphs, EMPTY_ONTOLOGY)
        assert [c.name for c in merged.result] == ["A.X.2", "A.X", "B.X"]
        assert [c.source for c in merged.result] == ["A", "A+B", "B"]

    def test_result_names_stay_unique_next_to_qualified_looking_names(self):
        # components named like the qualified names merge gives, and like
        # their numbered forms, next to random synonym and homonym pairs
        rng = random.Random(7001)
        numbered = 0
        for _ in range(400):
            od, pool = random_domain(rng)
            sets = dict(zip("AB", random_source_pair(rng, pool)))
            for _ in range(rng.randrange(1, 4)):
                system = rng.choice("AB")
                other = rng.choice([*sets["A"].components, *sets["B"].components])
                name = f"{rng.choice([system, other.source])}.{other.name}{rng.choice(['', '.2'])}"
                if all(c.term != normalize_term(name) for c in sets[system].components):
                    extra = component(name, attrs=rng.sample(pool, rng.randrange(3)), source=system)
                    sets[system] = union(sets[system], ComponentSet(system, (extra,)))
            graphs = [to_ontology(c, od) for c in union(sets["A"], sets["B"]).components]
            mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
            merged = merge(align(graphs, od, mode=mode), graphs, od, mode=mode)
            text = serialize_component_set(ComponentSet("A+B", merged.result))
            terms = [c.term for c in parse_component_set(text).components]
            assert len(set(terms)) == len(terms)
            numbered += any(c.name.endswith(".2") for c in merged.result)
        assert numbered >= 20


def _graph(source: str, origin: str, members=()) -> ComponentOntology:
    return ComponentOntology(source, origin, root(origin, members))


def _merge_through_the_cli(tmp_path, capsys, alignment, graphs, od) -> ComponentSet:
    """Write the alignment document, check that validate accepts it, then
    merge it and validate both outputs; return the result set."""
    document = tmp_path / "alignment.json"
    document.write_text(serialize_alignment(alignment, graphs, od), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["validate", str(document)]) == 0
    assert main(["merge", str(document), "-o", str(out)]) == 0
    assert main(["validate", str(out / "cm_r.json"), str(out / "ocm_r.json")]) == 0
    assert capsys.readouterr().out.count("ok: ") == 3
    return parse_component_set((out / "cm_r.json").read_text(encoding="utf-8"))


class TestMergeIsTotal:
    """Merges of valid alignment documents that must exit 0 and write
    documents that validate accepts."""

    def test_a_member_qualified_into_a_taken_term_is_numbered(self, tmp_path, capsys):
        # Q's x is homonymous with P's x, and its qualified term s2.q.x is
        # the term of P's member labelled Zed, so it is numbered S2.Q.2.x
        od = quick_ontology({"C1": ["c1"], "C2": ["c2"], "K": ["k"]})
        zed = Concept(term="s2.q.x", raw_label="Zed", kind=KIND_ATTRIBUTE)
        k1, k2, k3, k4 = (atom(f"k{n}", anchor="K") for n in range(1, 5))
        p = _graph("S1", "P", [atom("x", anchor="C1"), zed, k1, k2])
        q = _graph("S2", "Q", [atom("x", anchor="C2"), k3, k4])
        alignment = align([p, q], od)
        assert [c.classification for c in alignment.roots] == [CLASS_SYNONYM_PAIR]
        result = _merge_through_the_cli(tmp_path, capsys, alignment, [p, q], od)
        (merged,) = result.components
        assert [a.name for a in merged.attributes] == ["x", "Zed", "k", "S2.Q.2.x"]

    def test_same_source_roots_named_alike_are_qualified(self, tmp_path, capsys):
        # one source is never aligned with itself, so no correspondence
        # relates the two roots
        graphs = [_graph("S1", "Foo", [atom("a")]), _graph("S1", "FOO", [atom("b")])]
        alignment = align(graphs, EMPTY_ONTOLOGY)
        assert alignment.correspondences == ()
        result = _merge_through_the_cli(tmp_path, capsys, alignment, graphs, EMPTY_ONTOLOGY)
        assert [c.name for c in result.components] == ["S1.Foo", "S1.FOO.2"]

    def test_unrelated_roots_named_alike_are_qualified(self, tmp_path, capsys):
        # an alignment document without correspondences over two sources
        graphs = [_graph("S1", "Foo", [atom("a")]), _graph("S2", "foo", [atom("b")])]
        result = _merge_through_the_cli(tmp_path, capsys, Alignment(()), graphs, EMPTY_ONTOLOGY)
        assert [c.name for c in result.components] == ["S1.Foo", "S2.foo"]


class TestAlignmentDocument:
    def test_round_trip(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology, diagnostics=["d1"])
        text = serialize_alignment(
            alignment,
            library_graphs,
            library_ontology,
            mode="bipartite",
            recursive=False,
        )
        doc = parse_alignment(text)
        assert doc.alignment == alignment
        assert doc.graphs == tuple(library_graphs)
        assert doc.domain == library_ontology
        assert doc.mode == "bipartite"
        assert doc.recursive is False

    def test_settings_default_when_absent(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        text = serialize_alignment(alignment, library_graphs, library_ontology)
        stripped = text.replace(
            '  "settings": {\n    "mode": "literal",\n    "recursive": true\n  },\n',
            "",
        )
        assert "settings" not in stripped
        doc = parse_alignment(stripped)
        assert doc.mode == "literal"
        assert doc.recursive is True

    def test_bad_score_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        text = serialize_alignment(alignment, library_graphs, library_ontology)
        with pytest.raises(DocumentError, match="not a rational"):
            parse_alignment(text.replace('"score": "1"', '"score": "1.0"'))

    def test_bad_class_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        text = serialize_alignment(alignment, library_graphs, library_ontology)
        with pytest.raises(DocumentError, match="class: must be one of"):
            parse_alignment(text.replace('"class": "distinct"', '"class": "other"'))

    def test_bad_mode_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        text = serialize_alignment(alignment, library_graphs, library_ontology)
        with pytest.raises(DocumentError, match="mode: must be literal or bipartite"):
            parse_alignment(text.replace('"mode": "literal"', '"mode": "loose"'))

    def test_unknown_key_rejected(self, library_graphs, library_ontology):
        alignment = align(library_graphs, library_ontology)
        text = serialize_alignment(alignment, library_graphs, library_ontology)
        with pytest.raises(DocumentError, match="unknown key 'extra'"):
            parse_alignment(text.replace('"domain"', '"extra": 1, "domain"', 1))


class TestRepresentationDocument:
    def test_serialized_shape(self, library_graphs, library_ontology):
        merged = merge_fixture(library_graphs, library_ontology)
        text = serialize_representation(merged.representation)
        import json

        data = json.loads(text)
        assert set(data) == {"roots", "equivalences"}
        assert len(data["roots"]) == 3
        assert data["roots"][0]["merged_from"] == [
            "Biblio1/Personne",
            "Biblio2/Lecteur",
        ]
        assert ["Biblio1/Personne", "Biblio2/Lecteur"] in data["equivalences"]
