"""Acceptance gate for the integration pipeline.

One test per required behavior. Scores are checked with exact rational
equality; the worked library example must reproduce cell by cell; the
bulk guarantees run as seeded random property checks with the case
counts stated inline.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import cmfuse
from cmfuse import (
    ComponentOntology,
    KIND_ATTRIBUTE,
    MODE_BIPARTITE,
    MODE_LITERAL,
    ONE,
    VERDICT_NOT_SYNONYM,
    VERDICT_SYNONYM,
    align,
    classify,
    load_domain_ontology,
    merge,
    parse_alignment,
    parse_component_ontology,
    parse_component_set,
    parse_representation,
    parse_score,
    semantic_similarity,
    serialize_alignment,
    serialize_component_ontology,
    serialize_component_set,
    serialize_domain_ontology,
    serialize_representation,
    similarity_matrix,
    to_component,
    to_ontology,
)
from cmfuse.cli import main
from cmfuse.similarity import Scorer

import reference_similarity as reference
from conftest import FIXTURES
from helpers import (
    EMPTY_ONTOLOGY,
    client_pair,
    component,
    quick_ontology,
    random_anchored_concept,
    random_component_set,
    random_concept,
    random_domain,
    random_source_pair,
)

BIBLIO1 = str(FIXTURES / "biblio1.json")
BIBLIO2 = str(FIXTURES / "biblio2.json")
DOMAIN = str(FIXTURES / "library_ontology.json")


def _passed(label: str):
    print(f"ACCEPTANCE: {label}: PASS")


def test_client_pair_scores_exactly_one_half():
    """Same-named components sharing one of two attributes score 1/2,
    are not synonyms, and clash as a homonym conflict."""
    started = time.monotonic()
    first, second = client_pair()
    left = to_ontology(first, EMPTY_ONTOLOGY)
    right = to_ontology(second, EMPTY_ONTOLOGY)

    half = Fraction(1, 2)
    assert semantic_similarity(left.root, right.root, EMPTY_ONTOLOGY) == half

    matrix = similarity_matrix(left, right, EMPTY_ONTOLOGY)
    assert matrix.aggregate == half
    assert matrix.verdict == VERDICT_NOT_SYNONYM
    names_equal = left.root.term == right.root.term
    assert names_equal
    assert classify(names_equal, False) == "homonym_conflict"

    assert time.monotonic() - started < 1.0
    _passed("client pair scores exactly 1/2 and clashes as homonym")


def test_library_member_matrix_reproduction():
    """The person/reader member matrix is the 4x4 identity, with the
    consulter()/lire() cell resolved through the thesaurus."""
    started = time.monotonic()
    domain = load_domain_ontology(
        (FIXTURES / "library_ontology.json").read_text(encoding="utf-8")
    )
    biblio1 = parse_component_set((FIXTURES / "biblio1.json").read_text(encoding="utf-8"))
    biblio2 = parse_component_set((FIXTURES / "biblio2.json").read_text(encoding="utf-8"))
    personne = to_ontology(biblio1.components[0], domain)
    lecteur = to_ontology(biblio2.components[0], domain)

    left_terms = [m.term for m in personne.root.members]
    right_terms = [m.term for m in lecteur.root.members]
    assert left_terms == ["numéro lecteur", "prénom", "nom", "consulter()"]
    assert right_terms == ["numéro lecteur", "prénom", "nom", "lire()"]
    matrix = similarity_matrix(personne, lecteur, domain)
    # the non-zero cells, row-major: exactly the diagonal, each one
    assert matrix.cells == tuple((i, i) for i in range(4))
    assert matrix.cells[3] == (3, 3)  # consulter() ~ lire(), via the thesaurus
    assert matrix.aggregate == ONE
    assert matrix.verdict == VERDICT_SYNONYM

    assert time.monotonic() - started < 1.0
    _passed("library person/reader matrix matches all sixteen cells")


def test_library_pipeline_end_to_end(tmp_path):
    """The full pipeline flags the synonym pair and the homonym clash
    and writes a result set of exactly three components."""
    started = time.monotonic()
    out = tmp_path / "run"
    assert main(["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(out)]) == 0

    doc = parse_alignment((out / "alignment.json").read_text(encoding="utf-8"))
    classes = {
        (c.left.origin, c.right.origin): c.classification
        for c in doc.alignment.roots
    }
    assert classes[("Personne", "Lecteur")] == "synonym_pair"
    assert classes[("Publication", "Publication")] == "homonym_conflict"

    result = parse_component_set((out / "cm_r.json").read_text(encoding="utf-8"))
    assert len(result.components) == 3
    merged_person = result.components[0]
    assert merged_person.name == "personne"
    assert merged_person.source == "Biblio1+Biblio2"
    assert {c.name for c in result.components[1:]} == {
        "Biblio1.Publication",
        "Biblio2.Publication",
    }

    assert time.monotonic() - started < 1.0
    _passed("library pipeline merges to exactly 3 components")


def _synonym_case(rng: random.Random):
    """An ontology of disjoint synonym sets plus two components whose
    members are synonym-substituted copies of one another."""
    n_concepts = rng.randrange(1, 6)
    synsets: dict[str, list[str]] = {}
    flags: list[bool] = []
    counter = 0
    for k in range(n_concepts):
        is_op = rng.random() < 0.4
        terms = []
        for _ in range(rng.randrange(2, 5)):
            stem = f"m{counter}"
            counter += 1
            terms.append(stem + "()" if is_op else stem)
        synsets[f"K{k}"] = terms
        flags.append(is_op)
    od = quick_ontology(synsets)

    def pick_terms():
        return [rng.choice(synsets[f"K{k}"]) for k in range(n_concepts)]

    return od, flags, pick_terms


def _build_graph(od, flags, terms, source, name):
    attrs = [t for t, is_op in zip(terms, flags) if not is_op]
    ops = [t[:-2] for t, is_op in zip(terms, flags) if is_op]
    return to_ontology(component(name, attrs=attrs, ops=ops, source=source), od)


def test_synonym_constructed_pairs_aggregate_to_one():
    """Member-wise synonymous pairs always aggregate to exactly 1; one
    injected mismatch always breaks the verdict. 1000 random cases."""
    rng = random.Random(171)
    cases = 0
    for _ in range(1000):
        od, flags, pick_terms = _synonym_case(rng)
        mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
        left = _build_graph(od, flags, pick_terms(), "S1", "Alpha")
        right = _build_graph(od, flags, pick_terms(), "S2", "Beta")
        matrix = similarity_matrix(left, right, od, mode=mode)
        assert matrix.aggregate == ONE
        assert matrix.verdict == VERDICT_SYNONYM

        # replace one member with a term the ontology has never seen
        broken = pick_terms()
        k = rng.randrange(len(broken))
        broken[k] = "zzz()" if flags[k] else "zzz"
        damaged = _build_graph(od, flags, broken, "S2", "Beta")
        matrix = similarity_matrix(left, damaged, od, mode=mode)
        assert matrix.aggregate != ONE
        assert matrix.verdict == VERDICT_NOT_SYNONYM
        cases += 1
    assert cases == 1000
    _passed("synonym-constructed pairs aggregate to 1 (1000 cases)")


class TestPropertySuite:
    """Bulk guarantees, each over at least 500 seeded random cases."""

    def test_similarity_is_symmetric(self):
        rng = random.Random(3001)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
            left = semantic_similarity(a, b, od, mode=mode)
            assert left == semantic_similarity(b, a, od, mode=mode)
        _passed("similarity is symmetric (500 cases)")

    def test_scores_stay_in_the_unit_interval(self):
        """Every score is a Fraction in [0, 1] that reads back from its
        text: concept pairs, then every aggregate and correspondence of
        align, on random source pairs with hand-built anchored graphs beside
        them, in both modes; every member cell is a member correspondence."""
        seen = Counter()

        def check(score):
            assert type(score) is Fraction
            assert 0 <= score <= 1
            assert parse_score(str(score)) == score
            seen["fractional" if score.denominator > 1 else str(score)] += 1

        rng = random.Random(3002)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            check(semantic_similarity(a, b, od))
            check(semantic_similarity(a, b, od, mode=MODE_BIPARTITE))
        rng = random.Random(3010)
        for _ in range(100):
            od, pool = random_domain(rng)
            concept_ids = [c.id for c in od.concepts]
            set_a, set_b = random_source_pair(rng, pool)
            graphs = [to_ontology(c, od) for c in (*set_a.components, *set_b.components)]
            graphs += [
                ComponentOntology(source, f"N{k}", random_anchored_concept(rng, pool, concept_ids))
                for source in "AB"
                for k in range(2)
            ]
            for mode in (MODE_LITERAL, MODE_BIPARTITE):
                alignment = align(graphs, od, mode=mode)
                for pair in alignment.scores:
                    check(pair.aggregate)
                    seen["cell"] += len(pair.cells)
                for corr in alignment.correspondences:
                    check(corr.score)
                members = [c for c in alignment.correspondences if c.left.member is not None]
                assert len(members) == sum(len(pair.cells) for pair in alignment.scores)
                assert all(c.score == 1 for c in members)
        # the cells, and the scores strictly between 0 and 1, are many
        assert min(seen["cell"], seen["fractional"], seen["0"], seen["1"]) >= 500, seen
        _passed("scores stay in [0, 1] and read back (500 concept pairs, 100 alignments)")

    def test_semantic_collapses_to_syntactic_when_nothing_anchors(self):
        rng = random.Random(3003)
        for _ in range(500):
            _, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            twin = a._replace(kind=KIND_ATTRIBUTE)
            for x, y in ((a, b), (twin, a)):
                score = semantic_similarity(x, y, EMPTY_ONTOLOGY)
                assert score == reference.semantic(x, y, EMPTY_ONTOLOGY)
        _passed("without anchors the engine equals the term rule of the reference (500 cases)")

    def test_reflexivity_on_non_synonymous_siblings(self):
        rng = random.Random(3004)
        for _ in range(500):
            od, pool = random_domain(rng)
            a = random_concept(rng, pool, distinct=True)
            assert semantic_similarity(a, a, od) == ONE
            assert semantic_similarity(a, a, od, mode=MODE_BIPARTITE) == ONE
        _passed("reflexivity holds (500 cases)")

    def test_bipartite_score_equals_exhaustive_matching(self):
        rng = random.Random(3005)
        cases = 0
        while cases < 500:
            od, pool = random_domain(rng)
            a = random_concept(rng, pool)
            b = random_concept(rng, pool)
            if not (a.members and b.members):
                continue
            weights = [
                [semantic_similarity(x, y, od) for y in b.members]
                for x in a.members
            ]
            best = Fraction(0)
            rows, cols = len(weights), len(weights[0])
            k = min(rows, cols)
            for picked_rows in itertools.combinations(range(rows), k):
                for picked_cols in itertools.permutations(range(cols), k):
                    total = sum(
                        (weights[r][c] for r, c in zip(picked_rows, picked_cols)),
                        Fraction(0),
                    )
                    best = max(best, total)
            expected = best / max(rows, cols)
            scorer = Scorer(od, mode=MODE_BIPARTITE)
            assert scorer.score(scorer.node(a), scorer.node(b)).aggregate == expected
            cases += 1
        _passed("bipartite score equals exhaustive matching (500 cases)")

    def test_merge_conserves_inputs_and_is_idempotent(self):
        rng = random.Random(3006)
        for _ in range(500):
            od, graphs, expected_count = _merge_universe(rng)
            mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
            merged = merge(align(graphs, od, mode=mode), graphs, od)
            assert len(merged.result) == expected_count
            folded = sorted(
                e.path for r in merged.representation.roots for e in r.merged_from
            )
            assert folded == sorted(g.path for g in graphs)

            second_graphs = [r.ontology for r in merged.representation.roots]
            again = merge(align(second_graphs, od, mode=mode), second_graphs, od)
            assert again.result == merged.result
        _passed("merge conserves inputs and is idempotent (500 cases)")

    def test_merge_properties_hold_on_random_pipeline_inputs(self):
        # unlike _merge_universe, these inputs meet homonym conflicts and
        # result names that merge has to qualify or number
        rng = random.Random(3009)
        for _ in range(1000):
            od, pool = random_domain(rng)
            set_a, set_b = random_source_pair(rng, pool)
            graphs = [to_ontology(c, od) for c in (*set_a.components, *set_b.components)]
            for mode in (MODE_LITERAL, MODE_BIPARTITE):
                merged = merge(align(graphs, od, mode=mode), graphs, od)
                folded = sorted(e.path for r in merged.representation.roots for e in r.merged_from)
                assert folded == sorted(g.path for g in graphs)
                roots = [r.ontology for r in merged.representation.roots]
                again = merge(align(roots, od, mode=mode), roots, od)
                assert again.result == merged.result
        _passed("merge properties hold on random pipeline inputs (1000 cases, both modes)")

    def test_round_trips(self):
        rng = random.Random(3007)
        hint_domain = quick_ontology({"K1": ["nom"]})
        for case in range(500):
            cs = random_component_set(rng, case)
            assert parse_component_set(serialize_component_set(cs)) == cs

            od, _ = random_domain(rng)
            assert load_domain_ontology(serialize_domain_ontology(od)) == od

            for original in cs.components:
                graph = to_ontology(original, hint_domain)
                text = serialize_component_ontology(graph)
                assert parse_component_ontology(text) == graph
                back = to_component(graph)
                assert back.name == original.name
                original_terms = sorted(
                    m.term for m in original.attributes + original.operations
                )
                back_terms = sorted(
                    m.term for m in back.attributes + back.operations
                )
                assert back_terms == original_terms
        _passed("documents and graphs round-trip (500 cases)")

    def test_pipeline_artifacts_validate_and_parse_back(self, tmp_path):
        rng = random.Random(3008)
        for case in range(300):
            od, pool = random_domain(rng)
            set_a, set_b = random_source_pair(rng, pool)
            inputs = []
            for name, text in (
                ("a.json", serialize_component_set(set_a)),
                ("b.json", serialize_component_set(set_b)),
                ("domain.json", serialize_domain_ontology(od)),
            ):
                (tmp_path / name).write_text(text, encoding="utf-8")
                inputs.append(str(tmp_path / name))
            out = tmp_path / f"out{case}"
            mode = rng.choice((MODE_LITERAL, MODE_BIPARTITE))
            argv = ["pipeline", inputs[0], inputs[1], "--domain", inputs[2], "-o", str(out)]
            assert main([*argv, "--mode", mode]) == 0

            alignment_text = (out / "alignment.json").read_text(encoding="utf-8")
            result_text = (out / "cm_r.json").read_text(encoding="utf-8")
            representation_text = (out / "ocm_r.json").read_text(encoding="utf-8")
            written = [str(out / name) for name in ("alignment.json", "cm_r.json", "ocm_r.json")]
            assert main(["validate", *written]) == 0
            representation = parse_representation(representation_text)
            assert serialize_representation(representation) == representation_text
            doc = parse_alignment(alignment_text)
            assert doc.alignment.mode == mode
            again = serialize_alignment(doc.alignment, doc.graphs, doc.domain)
            assert again == alignment_text
            result = parse_component_set(result_text)
            assert serialize_component_set(result) == result_text
            terms = [c.term for c in result.components]
            assert len(set(terms)) == len(terms)
        _passed("pipeline artifacts validate and parse back (300 cases)")


def _merge_universe(rng: random.Random):
    """Sources holding synonym-substituted copies of shared templates
    plus unrelated singletons, with the expected result count."""
    sources = [f"Sys{i}" for i in range(rng.randrange(2, 4))]
    synsets: dict[str, list[str]] = {}
    counter = 0

    def new_concept(is_op: bool) -> str:
        nonlocal counter
        terms = []
        for _ in range(rng.randrange(1, 4)):
            stem = f"w{counter}"
            counter += 1
            terms.append(stem + "()" if is_op else stem)
        cid = f"C{len(synsets)}"
        synsets[cid] = terms
        return cid

    templates = []
    for _ in range(rng.randrange(1, 4)):
        name_concept = new_concept(False)
        member_flags = [rng.random() < 0.4 for _ in range(rng.randrange(1, 4))]
        member_concepts = [new_concept(f) for f in member_flags]
        templates.append((name_concept, member_concepts, member_flags))
    od = quick_ontology(synsets)

    graphs = []
    for name_concept, member_concepts, member_flags in templates:
        used = rng.sample(sources, rng.randrange(1, len(sources) + 1))
        for src in used:
            name = rng.choice(synsets[name_concept])
            terms = [rng.choice(synsets[c]) for c in member_concepts]
            graphs.append(_build_graph(od, member_flags, terms, src, name))

    solos = rng.randrange(0, 3)
    for n in range(solos):
        src = rng.choice(sources)
        graph = to_ontology(
            component(f"solo{n}", attrs=[f"u{n}"], source=src), od
        )
        graphs.append(graph)

    rng.shuffle(graphs)
    return od, graphs, len(templates) + solos


def test_pipeline_output_is_deterministic(tmp_path):
    """Two consecutive pipeline runs write byte-identical artifacts, and so
    do processes under two hash seeds, down to merge's and report's output."""
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        code = main(
            ["pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(out)]
        )
        assert code == 0
    for name in ("alignment.json", "ocm_r.json", "cm_r.json", "report.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # each test run draws its own hash seed, so a byte that followed it
    # would show only now and then; two fixed seeds show it every time
    outputs = {}
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        # the children import the cmfuse this suite imported
        src = str(Path(cmfuse.__file__).parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)

        def cmfuse_run(*argv: str) -> str:
            proc = subprocess.run(
                [sys.executable, "-m", "cmfuse", *argv],
                capture_output=True, text=True, encoding="utf-8", env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        cmfuse_run("pipeline", BIBLIO1, BIBLIO2, "--domain", DOMAIN, "-o", str(out))
        cmfuse_run("merge", str(out / "alignment.json"), "-o", str(out / "merged"))
        report = cmfuse_run("report", str(out / "alignment.json"))
        files = sorted(p for p in out.rglob("*") if p.is_file())
        outputs[seed] = (report, {str(p.relative_to(out)): p.read_bytes() for p in files})
    assert len(outputs["0"][1]) == 6
    assert outputs["0"] == outputs["1"]
    _passed("pipeline, merge and report output is byte-identical across runs and hash seeds")
