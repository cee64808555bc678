"""The scoring engine against the plain reference kept in the tests.

Every aggregate and every cell the engine produces must equal what the
cell-by-cell rule and the dense matrix of reference_similarity give, and
align, merge and the pipeline report built on the engine must equal the
ones driven by that reference.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from cmfuse import (
    CLASS_DISTINCT,
    CLASS_SYNONYM_PAIR,
    MODE_BIPARTITE,
    MODE_LITERAL,
    ONE,
    Alignment,
    ComponentOntology,
    ComponentSet,
    Correspondence,
    Endpoint,
    MergedComponent,
    RepresentationOntology,
    VERDICT_SYNONYM,
    align,
    classify,
    load_domain_ontology,
    merge,
    parse_alignment,
    parse_component_set,
    semantic_similarity,
    serialize_alignment,
    similarity_matrix,
    to_ontology,
    union,
)
from cmfuse import similarity
from cmfuse.assignment import max_assignment, max_matching
from cmfuse.integrate import cross_pairs
from cmfuse.report import matrix_to_json, pipeline_report_pieces, render_matrix_text
from cmfuse.similarity import Scorer

import reference_similarity as reference
from conftest import FIXTURES
from helpers import (
    EMPTY_ONTOLOGY,
    atom,
    random_anchored_concept,
    random_concept,
    random_domain,
    random_source_pair,
    root,
)

# the report's matrices do not depend on the merge
NOTHING_MERGED = MergedComponent(RepresentationOntology((), ()), ())

MODES = (MODE_LITERAL, MODE_BIPARTITE)


def _graph(source: str, concept) -> ComponentOntology:
    return ComponentOntology(source=source, origin=concept.raw_label, root=concept)


def _random_graph(rng: random.Random, pool, concept_ids, source: str) -> ComponentOntology:
    roll = rng.random()
    if roll < 0.4:
        concept = random_anchored_concept(rng, pool, concept_ids)
    elif roll < 0.9:
        concept = random_concept(rng, pool)
    else:
        concept = root(rng.choice(pool))  # an empty member set
    return _graph(source, concept)


def _has_homonym(od) -> bool:
    seen: set[str] = set()
    for entry in od.thesaurus.entries:
        if seen & set(entry.terms):
            return True
        seen.update(entry.terms)
    return False


def test_every_cell_and_aggregate_equals_the_reference():
    rng = random.Random(5001)
    seen = {"homonym": 0, "stale": 0, "pinned": 0, "one empty": 0, "both empty": 0}
    for _ in range(600):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        a = _random_graph(rng, pool, concept_ids, "A")
        b = _random_graph(rng, pool, concept_ids, "B")
        concepts = [a.root, b.root, *a.root.members, *b.root.members]
        seen["homonym"] += _has_homonym(od)
        seen["stale"] += any(c.anchor == "GONE" for c in concepts)
        seen["pinned"] += any(c.anchor in concept_ids for c in concepts)
        empty = (not a.root.members) + (not b.root.members)
        seen["one empty"] += empty == 1
        seen["both empty"] += empty == 2
        for mode in MODES:
            expected = reference.similarity_matrix(a, b, od, mode=mode)
            got = similarity_matrix(a, b, od, mode=mode)
            assert got.aggregate == expected.aggregate
            assert got.verdict == expected.verdict
            assert got.cells == expected.nonzero
            for x, y in ((a.root, b.root), (rng.choice(concepts), rng.choice(concepts))):
                want = reference.semantic(x, y, od, mode)
                assert semantic_similarity(x, y, od, mode=mode) == want
    # every kind of input the engine must agree on was generated
    assert min(seen.values()) >= 20, seen


def test_bipartite_score_equals_the_reference_matching():
    # two roots with members, scored on their members alone in bipartite mode
    rng = random.Random(5002)
    cases = 0
    for _ in range(400):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        a = random_anchored_concept(rng, pool, concept_ids)
        b = random_anchored_concept(rng, pool, concept_ids)
        if not (a.members and b.members):
            continue
        cases += 1
        cells = [[reference.cell(x, y, od) for y in b.members] for x in a.members]
        value, _ = max_assignment(cells)
        expected = value / max(len(a.members), len(b.members))
        scorer = Scorer(od, mode=MODE_BIPARTITE)
        assert scorer.score(scorer.node(a), scorer.node(b)).aggregate == expected
    assert cases == 251


def test_integer_matching_equals_the_rational_assignment():
    rng = random.Random(5003)
    shapes = [(0, 0), (0, 3), (3, 0)] + [
        (rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(1000)
    ]
    with_empty_row = 0
    for n, m in shapes:
        density = rng.random()
        matrix = [[int(rng.random() < density) for _ in range(m)] for _ in range(n)]
        rows = [[j for j, hit in enumerate(row) if hit] for row in matrix]
        value, pairs = max_assignment([[Fraction(v) for v in row] for row in matrix])
        assert max_matching(rows) == value == len(pairs)
        with_empty_row += any(not row for row in rows)
    # max_matching skips a row without hits; of the 1003 cases
    assert with_empty_row == 432


def _reference_align(graphs, od, mode) -> tuple[Correspondence, ...]:
    # align as it was before the engine: one dense reference matrix per pair
    corrs = []
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            a, b = graphs[i], graphs[j]
            if a.source == b.source:
                continue
            matrix = reference.similarity_matrix(a, b, od, mode=mode)
            synonym = matrix.verdict == VERDICT_SYNONYM
            corrs.append(
                Correspondence(
                    Endpoint(a.source, a.origin),
                    Endpoint(b.source, b.origin),
                    matrix.aggregate,
                    classify(a.root.term == b.root.term, synonym),
                )
            )
            for mi, left in enumerate(a.root.members):
                for mj, right in enumerate(b.root.members):
                    if matrix.cells[mi][mj] == 1:
                        corrs.append(
                            Correspondence(
                                Endpoint(a.source, a.origin, left.term),
                                Endpoint(b.source, b.origin, right.term),
                                matrix.cells[mi][mj],
                                classify(left.term == right.term, True),
                            )
                        )
    return tuple(corrs)


def _reference_links(self, concepts, owners):
    # every pair from two owners whose reference cell is one
    for i in range(len(concepts)):
        for j in range(i + 1, len(concepts)):
            if owners[i] != owners[j] and reference.cell(concepts[i], concepts[j], self.od) == 1:
                yield i, j


def _merged_like_the_reference(alignment, graphs, od, monkeypatch):
    merged = merge(alignment, graphs, od)
    with monkeypatch.context() as patch:
        patch.setattr(Scorer, "links", _reference_links)
        assert merged == merge(alignment, graphs, od)


def _check_align_and_merge(graphs, od, monkeypatch):
    for mode in MODES:
        alignment = align(graphs, od, mode=mode)
        assert alignment.correspondences == _reference_align(graphs, od, mode)
        _merged_like_the_reference(alignment, graphs, od, monkeypatch)


def test_align_and_merge_equal_the_reference_on_random_sources(monkeypatch):
    rng = random.Random(5004)
    for _ in range(150):
        od, pool = random_domain(rng)
        set_a, set_b = random_source_pair(rng, pool)
        graphs = [to_ontology(c, od) for c in union(set_a, set_b).components]
        _check_align_and_merge(graphs, od, monkeypatch)


def test_align_and_merge_equal_the_reference_on_anchored_graphs(monkeypatch):
    rng = random.Random(5005)
    for _ in range(150):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        graphs = []
        for source in ("A", "B", "C"):
            for name in rng.sample(pool, rng.randrange(1, 4)):
                # a concept seen in another source often makes a synonym class
                if graphs and rng.random() < 0.5:
                    concept = rng.choice(graphs).root
                else:
                    concept = random_anchored_concept(rng, pool, concept_ids)
                graphs.append(ComponentOntology(source, name, concept))
        _check_align_and_merge(graphs, od, monkeypatch)
        _check_align_and_merge(graphs, EMPTY_ONTOLOGY, monkeypatch)


def test_merge_folds_members_like_the_reference_in_any_class(monkeypatch):
    # classes drawn at random, not from scores, bring together members
    # that share a term or an anchor in every combination
    rng = random.Random(5006)
    for _ in range(300):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        graphs = [
            ComponentOntology(source, name, random_anchored_concept(rng, pool, concept_ids))
            for source in ("A", "B", "C")
            for name in rng.sample(pool, rng.randrange(1, 4))
        ]
        corrs = []
        for a, b in itertools.combinations(graphs, 2):
            if a.source != b.source and rng.random() < 0.5:
                kind = rng.choice((CLASS_SYNONYM_PAIR, CLASS_DISTINCT))
                corrs.append(Correspondence(Endpoint(a.source, a.origin), Endpoint(b.source, b.origin), ONE, kind))
        _merged_like_the_reference(Alignment(tuple(corrs)), graphs, od, monkeypatch)


def _widened(rng: random.Random, graph: ComponentOntology) -> ComponentOntology:
    # sometimes a member term wider than any corner
    if not graph.root.members or rng.random() < 0.8:
        return graph
    wide = atom(graph.root.members[0].term + "x" * 20)
    return graph._replace(root=graph.root._replace(members=(*graph.root.members, wide)))


def test_the_report_renders_every_matrix_like_the_reference():
    # the report builds its tables from blocks cached per graph, per
    # first-column width and per aggregate and class; each case that takes
    # another path through them is counted
    rng = random.Random(5007)
    seen = dict.fromkeys(
        ["4+ graphs a side", "memberless left", "memberless right", "same name", "corner widest",
         "left term widest"],
        0,
    )
    for _ in range(100):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        sizes = {source: rng.choice([1, 2, 3, 4, 5, 6]) for source in ("A", "B")}
        graphs = [
            _widened(rng, _random_graph(rng, pool, concept_ids, source))
            for source, size in sizes.items()
            for _ in range(size)
        ]
        graphs = [g._replace(origin=f"{g.origin}{k}") for k, g in enumerate(graphs)]
        seen["4+ graphs a side"] += min(sizes.values()) >= 4
        for i, j in cross_pairs(graphs):
            a, b = graphs[i], graphs[j]
            widest = max((len(m.term) for m in a.root.members), default=0)
            seen["memberless left"] += not a.root.members
            seen["memberless right"] += not b.root.members
            seen["same name"] += a.root.term == b.root.term
            seen["corner widest"] += bool(a.root.members) and len(f"{a.path} \\ {b.path}") > widest
            seen["left term widest"] += len(f"{a.path} \\ {b.path}") < widest
        for mode in MODES:
            alignment = align(graphs, od, mode=mode)
            pieces = pipeline_report_pieces(graphs, od, alignment, NOTHING_MERGED, ComponentSet("S", ()))
            report = "".join(pieces)
            tables = []
            for i, j in cross_pairs(graphs):
                dense = reference.similarity_matrix(graphs[i], graphs[j], od, mode=mode)
                tables.append(reference.render_matrix_text(graphs[i], graphs[j], dense))
            expected = "\n---------------\n" + "".join(f"\n{t}" for t in tables) + "\nalignment\n"
            assert expected in report
    assert min(seen.values()) >= 20, seen


def test_sim_renders_every_pair_like_the_reference():
    # what sim prints: the engine's PairScore, as a table and as JSON
    rng = random.Random(5009)
    seen = {"cells": 0, "no cells": 0, "an empty side": 0, "same name": 0}
    for _ in range(300):
        od, pool = random_domain(rng)
        concept_ids = [c.id for c in od.concepts]
        a = _random_graph(rng, pool, concept_ids, "A")
        b = _random_graph(rng, pool, concept_ids, "B")
        seen["an empty side"] += not (a.root.members and b.root.members)
        seen["same name"] += a.root.term == b.root.term
        for mode in MODES:
            scorer = Scorer(od, mode=mode)
            pair = scorer.score(scorer.node(a.root), scorer.node(b.root))
            dense = reference.similarity_matrix(a, b, od, mode=mode)
            assert render_matrix_text(a, b, pair) == reference.render_matrix_text(a, b, dense)
            data = matrix_to_json(a, b, pair)
            assert data["cells"] == [[str(cell) for cell in row] for row in dense.cells]
            assert data["left_members"] == list(dense.left_members)
            assert data["right_members"] == list(dense.right_members)
            assert (data["aggregate"], data["verdict"]) == (str(dense.aggregate), dense.verdict)
            names_equal = a.root.term == b.root.term
            assert data["class"] == classify(names_equal, dense.verdict == VERDICT_SYNONYM)
            seen["cells" if pair.cells else "no cells"] += 1
    assert min(seen.values()) >= 20, seen


def test_the_engine_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'fuzzy'"):
        Scorer(EMPTY_ONTOLOGY, mode="fuzzy")


def _library():
    def read(name):
        return (FIXTURES / name).read_text(encoding="utf-8")

    od = load_domain_ontology(read("library_ontology.json"))
    sets = union(parse_component_set(read("biblio1.json")), parse_component_set(read("biblio2.json")))
    return od, [to_ontology(c, od) for c in sets.components]


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_BIPARTITE])
def test_the_pipeline_report_never_scores_again(mode, monkeypatch):
    od, graphs = _library()
    calls = Counter()
    score = Scorer.score

    def counted(self, left, right):
        calls["score"] += 1
        return score(self, left, right)

    monkeypatch.setattr(Scorer, "score", counted)
    alignment = align(graphs, od, mode=mode)
    assert calls["score"] == len(alignment.roots) > 0
    merged = merge(alignment, graphs, od)
    calls.clear()
    report = "".join(
        pipeline_report_pieces(graphs, od, alignment, merged, ComponentSet("S", merged.result))
    )
    assert calls["score"] == 0
    assert "aggregate: 1" in report


def test_the_pipeline_report_reads_the_same_from_a_read_back_alignment():
    # the report draws each pair's matrix from the alignment's member
    # correspondences, so the alignment align returns and the one its
    # document reads back give the same text
    rng = random.Random(5011)
    seen = Counter()
    for _ in range(120):
        od, pool = random_domain(rng)
        set_a, set_b = random_source_pair(rng, pool)
        graphs = [to_ontology(c, od) for c in (*set_a.components, *set_b.components)]
        for mode in MODES:
            alignment = align(graphs, od, mode=mode)
            merged = merge(alignment, graphs, od)
            result = ComponentSet("S", merged.result)
            read = parse_alignment(serialize_alignment(alignment, graphs, od)).alignment
            assert read == alignment
            report = "".join(pipeline_report_pieces(graphs, od, alignment, merged, result))
            assert "".join(pipeline_report_pieces(graphs, od, read, merged, result)) == report
            seen["cells"] += any(c.left.member is not None for c in read.correspondences)
            seen["cases"] += 1
    assert seen["cases"] >= 200 and seen["cells"] >= 50, seen


def _report(graphs, od, alignment):
    return "".join(pipeline_report_pieces(graphs, od, alignment, NOTHING_MERGED, ComponentSet("S", ())))


def test_the_pipeline_report_rejects_a_graph_that_repeats_a_member_term():
    # an attribute and an operation of one term: only a graph built in code
    # holds both, and its member endpoints cannot tell them apart
    x = root("x", [atom("x()"), atom("x()", "operation")])
    graphs = [_graph("A", x), _graph("B", root("y", [atom("x()")]))]
    with pytest.raises(ValueError, match="A/x repeats a member term"):
        _report(graphs, EMPTY_ONTOLOGY, align(graphs, EMPTY_ONTOLOGY))


def test_the_pipeline_report_rejects_an_alignment_of_other_graphs():
    # Biblio1/Personne ~ Biblio2/Lecteur is the first pair of both graph
    # lists, and then one list runs out of pairs before the other
    od, graphs = _library()
    fewer = [graphs[0], graphs[2]]
    assert "\nBiblio1/Personne \\ Biblio2/Lecteur" in _report(fewer, od, align(fewer, od))
    with pytest.raises(ValueError, match="zip"):
        _report(graphs, od, align(fewer, od))
    with pytest.raises(ValueError, match="zip"):
        _report(fewer, od, align(graphs, od))


def test_each_stage_looks_each_anchor_up_once(monkeypatch):
    od, graphs = _library()
    looked_up = []
    lookup = similarity.anchor

    def counted(term, od):
        looked_up.append(term)
        return lookup(term, od)

    monkeypatch.setattr(similarity, "anchor", counted)
    alignment = align(graphs, od)
    # align: once for each concept, root or member, without an explicit anchor
    unanchored = [c.term for g in graphs for c in (g.root, *g.root.members) if c.anchor is None]
    assert unanchored and sorted(looked_up) == sorted(unanchored)
    looked_up.clear()
    merged = merge(alignment, graphs, od)
    # merge: once for each unanchored member of a class of several roots
    by_path = {g.path: g for g in graphs}
    folded = [
        by_path[e.path] for r in merged.representation.roots if len(r.merged_from) > 1
        for e in r.merged_from
    ]
    unanchored = [m.term for g in folded for m in g.root.members if m.anchor is None]
    assert unanchored and sorted(looked_up) == sorted(unanchored)
