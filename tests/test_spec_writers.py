"""The spec writers against the reference builders.

Each O(N) document shape is written by the jsonio spec that reads it.
The reference is the builder in helpers that states the shape field by
field, laid out by json's own indenting encoder; and every shape must
read back as the value that was written.
"""

from __future__ import annotations

import random
from collections import Counter

from cmfuse import (
    Attribute,
    BusinessComponent,
    ComponentOntology,
    ComponentSet,
    Concept,
    DomainConcept,
    DomainOntology,
    Endpoint,
    KIND_ATTRIBUTE,
    KIND_COMPONENT,
    KIND_OPERATION,
    KINDS,
    MergedRoot,
    Operation,
    RepresentationOntology,
    ThesaurusEntry,
    load_domain_ontology,
    normalize_term,
    parse_component_ontology,
    parse_component_set,
    parse_representation,
    serialize_component_ontology,
    serialize_component_set,
    serialize_domain_ontology,
    serialize_representation,
)
from cmfuse.transform import graph_spec

from helpers import (
    component_set_to_json,
    domain_ontology_to_json,
    graph_to_json,
    reference_dump_json,
    representation_to_json,
)
from test_fast_io import _text


def _maybe_text(rng: random.Random, empty: str | None) -> str | None:
    return rng.choice([None, empty, _text(rng)])


def _names(rng: random.Random, prefix: str, most: int) -> list[str]:
    # distinct after normalization: the index ends before the text, which holds no digit
    return [f"{prefix}{i}{_text(rng)}" for i in range(rng.randrange(most + 1))]


def _component_set(rng: random.Random, seen: Counter) -> ComponentSet:
    components = []
    for name in _names(rng, "c", 3):
        stems = _names(rng, "m", 4)
        split = rng.randrange(len(stems) + 1)
        anchors = {normalize_term(s): _text(rng) for s in rng.sample(stems, len(stems) // 2)}
        component = BusinessComponent(
            name=name,
            kind=rng.choice(KINDS),
            source="Sys",
            doc=_maybe_text(rng, ""),
            attributes=tuple(
                Attribute(s, _maybe_text(rng, ""), _maybe_text(rng, "")) for s in stems[:split]
            ),
            operations=tuple(
                Operation(s, tuple(_names(rng, "p", 2)), _maybe_text(rng, "")) for s in stems[split:]
            ),
            provides=tuple(_names(rng, "i", 2)),
            requires=tuple(_names(rng, "j", 2)),
            anchors=anchors,
        )
        seen[f"doc {component.doc!r}" if not component.doc else "doc"] += 1
        seen["no attributes"] += not component.attributes
        seen["unsorted anchors"] += list(anchors) != sorted(anchors)
        components.append(component)
    return ComponentSet("Sys", tuple(components))


def _concept(rng: random.Random, kind: str, label: str, members: tuple[Concept, ...] = ()) -> Concept:
    definitions = tuple(_text(rng) for _ in range(rng.choice([0, 0, 1, 2])))
    anchor = rng.choice([None, _text(rng)])
    return Concept(normalize_term(label), label, kind, definitions, members, anchor)


def _graph(rng: random.Random, seen: Counter) -> ComponentOntology:
    graph = ComponentOntology(
        # a source ends at the first "/" of a path, so it holds none
        source="S" + _text(rng).replace("/", ""),
        origin="O" + _text(rng),
        root=_concept(
            rng,
            KIND_COMPONENT,
            "r" + _text(rng),
            tuple(
                _concept(rng, rng.choice((KIND_ATTRIBUTE, KIND_OPERATION)), m)
                for m in _names(rng, "m", 3)
            ),
        ),
        kind=rng.choice(KINDS + ("", "widget")),
        provides=tuple(_names(rng, "i", 2)),
        requires=tuple(_names(rng, "j", 2)),
    )
    seen["kind entity" if graph.kind == "entity" else "other kind"] += 1
    seen["no members"] += not graph.root.members
    seen["anchored member"] += any(m.anchor for m in graph.root.members)
    return graph


def test_component_set_writer_equals_reference():
    rng = random.Random(15001)
    seen: Counter = Counter()
    for _ in range(300):
        cs = _component_set(rng, seen)
        text = serialize_component_set(cs)
        assert text == reference_dump_json(component_set_to_json(cs))
        assert parse_component_set(text) == cs
    assert len(seen) == 5 and min(seen.values()) >= 20, seen


def test_graph_writer_equals_reference():
    rng = random.Random(15002)
    seen: Counter = Counter()
    for _ in range(300):
        graph = _graph(rng, seen)
        assert graph_spec.write(graph) == graph_to_json(graph)
        text = serialize_component_ontology(graph)
        assert text == reference_dump_json(graph_to_json(graph))
        assert parse_component_ontology(text) == graph
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_domain_writer_equals_reference():
    rng = random.Random(15003)
    empty_definitions = 0
    for _ in range(300):
        ids = _names(rng, "K", 5)
        concepts = [
            DomainConcept(
                cid,
                "l" + _text(rng),
                rng.choice([None, *ids[:i]]),
                tuple(_text(rng) for _ in range(rng.choice([0, 1, 2]))),
            )
            for i, cid in enumerate(ids)
        ]
        entries = [ThesaurusEntry(cid, tuple(_names(rng, "t", 3))) for cid in rng.sample(ids, len(ids) // 2)]
        od = DomainOntology(concepts, entries)
        text = serialize_domain_ontology(od)
        assert text == reference_dump_json(domain_ontology_to_json(od))
        assert load_domain_ontology(text) == od
        empty_definitions += any(not c.definitions for c in concepts)
    assert empty_definitions >= 20


def test_merged_root_writer_equals_reference():
    rng = random.Random(15004)
    for _ in range(300):
        roots = tuple(
            MergedRoot(
                _graph(rng, Counter()),
                tuple(Endpoint(f"S{i}", "O" + _text(rng)) for i in range(rng.randrange(1, 4))),
            )
            for _ in range(rng.randrange(4))
        )
        rep = RepresentationOntology(roots, ())
        text = serialize_representation(rep)
        assert text == reference_dump_json(representation_to_json(rep))
        assert parse_representation(text) == rep
