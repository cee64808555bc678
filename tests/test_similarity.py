"""Score texts plus the syntactic and semantic comparison layers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cmfuse import (
    ComponentOntology,
    KIND_ATTRIBUTE,
    KIND_OPERATION,
    MODE_BIPARTITE,
    MODE_LITERAL,
    ONE,
    VERDICT_NOT_SYNONYM,
    VERDICT_SYNONYM,
    ZERO,
    parse_score,
    semantic_similarity,
    similarity_matrix,
    to_ontology,
)
from cmfuse.assignment import max_assignment
from cmfuse.similarity import Scorer

import reference_similarity as reference
from helpers import (
    EMPTY_ONTOLOGY,
    atom,
    client_pair,
    component,
    quick_ontology,
    random_concept,
    random_domain,
    root,
)


def _syntactic(a, b):
    """The engine with no ontology: the syntactic layer alone."""
    return semantic_similarity(a, b, EMPTY_ONTOLOGY)


def _bipartite(a, b, od):
    """The bipartite aggregate of two composite concepts' members."""
    scorer = Scorer(od, mode=MODE_BIPARTITE)
    return scorer.score(scorer.node(a), scorer.node(b)).aggregate


class TestScore:
    def test_reduced_to_lowest_terms(self):
        # a score is written reduced, and only its reduced text is read
        assert str(Fraction(2, 4)) == "1/2"
        assert parse_score("2/3") == Fraction(6, 9)
        for text in ("2/4", "6/9"):
            with pytest.raises(ValueError):
                parse_score(text)

    def test_out_of_range_rejected(self):
        for text in ("3/2", "-1/2", "1/0"):
            with pytest.raises(ValueError, match="bad score"):
                parse_score(text)

    def test_string_forms(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(Fraction(0, 7)) == "0"
        assert str(Fraction(5, 5)) == "1"
        assert str(Fraction(2, 3)) == "2/3"

    def test_parse_round_trip(self):
        for s in (ZERO, ONE, Fraction(1, 2), Fraction(7, 12)):
            assert parse_score(str(s)) == s

    def test_parse_rejects_junk(self):
        for text in ("", "1.5", "-1/2", "1/0", "a/b", "1 / 2", "1/1", "0/3", "+1", "1_0", " 1"):
            with pytest.raises(ValueError):
                parse_score(text)

    def test_fraction_bridge(self):
        # every public score is a Fraction itself, ready for arithmetic
        left = root("c", members=(atom("a"), atom("b")))
        right = root("c", members=(atom("a"),))
        for score in (
            semantic_similarity(left, right, EMPTY_ONTOLOGY),
            _bipartite(left, right, EMPTY_ONTOLOGY),
            parse_score("1/2"),
        ):
            assert type(score) is Fraction and score == Fraction(3, 6)
            assert score + score == ONE


class TestSyntactic:
    def test_atomic_terms_match_exactly(self):
        assert _syntactic(atom("nom"), atom("nom")) == ONE
        assert _syntactic(atom("nom"), atom("prénom")) == ZERO

    def test_kind_mismatch_scores_zero(self):
        op = atom("nom()", KIND_OPERATION)
        assert _syntactic(atom("nom"), op) == ZERO

    def test_shared_attribute_over_two(self):
        left = root("client", members=(atom("nom"), atom("âge")))
        right = root("client", members=(atom("nom"), atom("prénom")))
        assert _syntactic(left, right) == Fraction(1, 2)

    def test_larger_arity_divides(self):
        left = root("c", members=(atom("a"), atom("b"), atom("x")))
        right = root("c", members=(atom("a"),))
        assert _syntactic(left, right) == Fraction(1, 3)

    def test_composite_against_atomic_wraps_singleton(self):
        composite = root("c", members=(atom("a"), atom("b")))
        bare = root("c")
        assert _syntactic(composite, bare) == ZERO

    def test_duplicate_matches_clamp_at_one(self):
        # both "a" kinds on one side match the single "a" on the other
        left = root("c", members=(atom("a"), atom("a", KIND_OPERATION)))
        right = root("c", members=(atom("a"), atom("a", KIND_OPERATION)))
        assert _syntactic(left, right) == ONE


class TestSemantic:
    def test_same_concept_scores_one(self):
        od = quick_ontology({"ACT": ["lire", "consulter"]})
        a = atom("lire()", KIND_OPERATION)
        b = atom("consulter()", KIND_OPERATION)
        # marker-stripped stems resolve through the thesaurus
        od2 = quick_ontology({"ACT": ["lire()", "consulter()"]})
        assert semantic_similarity(a, b, od2) == ONE
        assert semantic_similarity(atom("lire"), atom("consulter"), od) == ONE

    def test_homonymous_concepts_score_zero(self):
        od = quick_ontology({"A": ["titre", "nom"], "B": ["titre", "rang"]})
        assert semantic_similarity(atom("nom"), atom("rang"), od) == ZERO

    def test_unrelated_anchored_atoms_score_zero(self):
        od = quick_ontology({"A": ["nom"], "B": ["âge"]})
        assert semantic_similarity(atom("nom"), atom("âge"), od) == ZERO

    def test_explicit_anchor_beats_lookup(self):
        od = quick_ontology({"A": ["x"], "B": ["y"], "C": ["z"]})
        a = atom("x", anchor="C")
        b = atom("z")
        assert semantic_similarity(a, b, od) == ONE

    def test_stale_anchor_is_ignored(self):
        od = quick_ontology({"A": ["nom"]})
        a = atom("nom", anchor="GONE")
        assert semantic_similarity(a, atom("nom"), od) == ONE
        # the term decides; it is not looked up in the thesaurus instead
        od = quick_ontology({"P": ["personne", "lecteur"]})
        assert semantic_similarity(atom("lecteur", anchor="GHOST"), atom("personne"), od) == ZERO
        assert semantic_similarity(atom("lecteur"), atom("personne"), od) == ONE

    def test_falls_back_to_syntactic_without_anchors(self):
        first, second = client_pair()
        left = to_ontology(first, EMPTY_ONTOLOGY)
        right = to_ontology(second, EMPTY_ONTOLOGY)
        score = semantic_similarity(left.root, right.root, EMPTY_ONTOLOGY)
        assert score == Fraction(1, 2)

    def test_composite_recursion_sees_member_synonyms(self):
        od = quick_ontology({"ACT": ["lire()", "consulter()"]})
        left = root("x", members=(atom("consulter()", KIND_OPERATION),))
        right = root("y", members=(atom("lire()", KIND_OPERATION),))
        assert semantic_similarity(left, right, od) == ONE

    def _both_ways(self, left, right, od):
        """semantic_similarity of two roots, checked equal to similarity_matrix."""
        graphs = [ComponentOntology("S1", "L", left), ComponentOntology("S2", "R", right)]
        score = semantic_similarity(left, right, od)
        assert similarity_matrix(*graphs, od).aggregate == score
        return score

    def test_anchored_composites_follow_the_ontology(self):
        # as sim, align and merge score two graphs: through their members'
        # anchors; the roots' shared anchor plays no part once both have members
        od = quick_ontology({"P": ["personne", "lecteur"], "N": ["nom", "patronyme"]})
        left = root("Personne", members=(atom("nom"),), anchor="P")
        assert self._both_ways(left, root("Lecteur", (atom("patronyme"),), "P"), od) == ONE
        assert self._both_ways(left, root("Lecteur", (atom("âge"),), "P"), od) == ZERO

    def test_homonymous_roots_are_scored_by_their_members(self):
        # root homonymy no longer decides two graphs: a shared member does
        od = quick_ontology({"A": ["client", "acheteur"], "B": ["client", "poste"]})
        left = root("acheteur", members=(atom("nom"),))
        right = root("poste", members=(atom("nom"),))
        assert self._both_ways(left, right, od) == ONE

    def test_unrelated_composites_recurse_instead_of_zero(self):
        od = quick_ontology({"A": ["facture"], "B": ["commande"]})
        left = root("facture", members=(atom("montant"),))
        right = root("commande", members=(atom("montant"),))
        assert semantic_similarity(left, right, od) == ONE


class TestModes:
    def _pair(self, od):
        left = root("x", members=(atom("lire()", KIND_OPERATION),))
        right = root(
            "y",
            members=(
                atom("lire()", KIND_OPERATION),
                atom("consulter()", KIND_OPERATION),
            ),
        )
        return left, right

    def test_literal_counts_every_synonymous_cell(self):
        od = quick_ontology({"ACT": ["lire()", "consulter()"]})
        left, right = self._pair(od)
        assert semantic_similarity(left, right, od, mode=MODE_LITERAL) == ONE

    def test_bipartite_counts_each_member_once(self):
        od = quick_ontology({"ACT": ["lire()", "consulter()"]})
        left, right = self._pair(od)
        score = semantic_similarity(left, right, od, mode=MODE_BIPARTITE)
        assert score == Fraction(1, 2)
        assert _bipartite(left, right, od) == Fraction(1, 2)

    def test_modes_agree_on_synonym_free_members(self):
        od = quick_ontology({"A": ["nom"], "B": ["âge"]})
        left = root("c", members=(atom("nom"), atom("âge")))
        right = root("c", members=(atom("nom"), atom("prénom")))
        for mode in (MODE_LITERAL, MODE_BIPARTITE):
            assert semantic_similarity(left, right, od, mode=mode) == Fraction(1, 2)

    def test_unknown_mode_rejected(self):
        left = root("c", members=(atom("a"), atom("b")))
        with pytest.raises(ValueError, match="unknown mode"):
            semantic_similarity(left, left, EMPTY_ONTOLOGY, mode="fuzzy")


class TestMatrix:
    def test_identity_matrix(self, library_ontology, biblio1):
        graph = to_ontology(biblio1.components[0], library_ontology)
        matrix = similarity_matrix(graph, graph, library_ontology)
        n = len(graph.root.members)
        assert n > 1
        # the non-zero cells, row-major: exactly the diagonal, each one
        assert matrix.cells == tuple((i, i) for i in range(n))
        assert matrix.aggregate == ONE
        assert matrix.verdict == VERDICT_SYNONYM

    def test_client_pair_matrix(self):
        first, second = client_pair()
        left = to_ontology(first, EMPTY_ONTOLOGY)
        right = to_ontology(second, EMPTY_ONTOLOGY)
        assert [m.term for m in left.root.members] == ["nom", "âge"]
        assert [m.term for m in right.root.members] == ["nom", "prénom"]
        matrix = similarity_matrix(left, right, EMPTY_ONTOLOGY)
        assert matrix.cells == ((0, 0),)
        assert matrix.aggregate == Fraction(1, 2)
        assert matrix.verdict == VERDICT_NOT_SYNONYM

    def test_both_memberless_judged_by_roots(self):
        od = quick_ontology({"P": ["personne", "lecteur"]})
        left = to_ontology(component("Personne", source="S1"), od)
        right = to_ontology(component("Lecteur", source="S2"), od)
        matrix = similarity_matrix(left, right, od)
        assert matrix.cells == ()
        assert matrix.aggregate == ONE
        assert matrix.verdict == VERDICT_SYNONYM

    def test_one_memberless_side_scores_zero(self):
        od = quick_ontology({"P": ["personne", "lecteur"]})
        left = to_ontology(component("Personne", attrs=["nom"], source="S1"), od)
        right = to_ontology(component("Lecteur", source="S2"), od)
        matrix = similarity_matrix(left, right, od)
        assert matrix.aggregate == ZERO
        assert matrix.verdict == VERDICT_NOT_SYNONYM


class TestProperties:
    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
            assert semantic_similarity(a, b, od, mode=mode) == semantic_similarity(
                b, a, od, mode=mode
            )

    def test_range(self):
        rng = random.Random(8)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            for score in (
                semantic_similarity(a, b, od),
                semantic_similarity(a, b, od, mode=MODE_BIPARTITE),
            ):
                assert 0 <= score <= 1

    def test_semantic_equals_syntactic_without_ontology(self):
        # each draw also scores a root of attribute kind against the
        # component root whose members it shares: roots' kinds play no part
        rng = random.Random(9)
        for _ in range(500):
            _, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            twin = a._replace(kind=KIND_ATTRIBUTE)
            for x, y in ((a, b), (twin, a)):
                assert _syntactic(x, y) == reference.semantic(x, y, EMPTY_ONTOLOGY)
            if a.members:
                assert _syntactic(twin, a) == ONE

    def test_reflexivity(self):
        rng = random.Random(10)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool, distinct=True)
            assert semantic_similarity(a, a, od) == ONE
            assert semantic_similarity(a, a, od, mode=MODE_BIPARTITE) == ONE

    def test_bipartite_aggregate_matches_assignment(self):
        rng = random.Random(11)
        cases = 0
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            if not (a.members and b.members):
                continue
            cases += 1
            cells = [[reference.cell(x, y, od) for y in b.members] for x in a.members]
            value, _ = max_assignment(cells)
            assert _bipartite(a, b, od) == value / max(len(a.members), len(b.members))
        assert cases == 326
