"""Small builders and random generators shared across the tests."""

from __future__ import annotations

import json
import random
import unicodedata

from cmfuse import (
    Attribute,
    BusinessComponent,
    ComponentSet,
    Concept,
    DomainConcept,
    DomainOntology,
    KIND_ATTRIBUTE,
    KIND_COMPONENT,
    KIND_OPERATION,
    Operation,
    ThesaurusEntry,
    detect_naming_conflicts,
    normalize_term,
)


def reference_normalize_term(raw: str) -> str:
    """normalize_term without its cache: NFC of the case fold, stripped,
    whitespace runs collapsed, a trailing call marker glued on."""
    text = unicodedata.normalize("NFC", raw.casefold()).strip()
    marker = text.endswith("()")
    if marker:
        text = text[:-2]
    text = " ".join(text.split())
    return text + "()" if marker else text


def atom(term: str, kind: str = KIND_ATTRIBUTE, anchor: str | None = None) -> Concept:
    return Concept(term=normalize_term(term), raw_label=term, kind=kind, anchor=anchor)


def root(term: str, members=(), anchor: str | None = None) -> Concept:
    return Concept(
        term=normalize_term(term),
        raw_label=term,
        kind=KIND_COMPONENT,
        members=tuple(members),
        anchor=anchor,
    )


def component(
    name: str,
    attrs=(),
    ops=(),
    *,
    kind: str = "entity",
    source: str = "S",
    **kwargs,
) -> BusinessComponent:
    return BusinessComponent(
        name=name,
        kind=kind,
        source=source,
        attributes=tuple(Attribute(name=a) for a in attrs),
        operations=tuple(Operation(name=o) for o in ops),
        **kwargs,
    )


def quick_ontology(synsets: dict[str, list[str]]) -> DomainOntology:
    """An ontology from {concept id: [terms]}; the first term is the label."""
    concepts = [DomainConcept(cid, terms[0]) for cid, terms in synsets.items()]
    entries = [ThesaurusEntry(cid, tuple(terms)) for cid, terms in synsets.items()]
    return DomainOntology(concepts, entries)


EMPTY_ONTOLOGY = DomainOntology((), ())


def reference_dump_json(obj) -> str:
    """What jsonio.dump_json writes, from json's own indenting encoder."""
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


# the JSON trees of every document cmfuse writes, built field by field;
# the writers must give reference_dump_json of these

def component_set_to_json(cs) -> dict:
    return {"system": cs.system, "components": [component_to_json(c) for c in cs.components]}


def component_to_json(c) -> dict:
    obj: dict = {"name": c.name, "kind": c.kind}
    if c.doc is not None:
        obj["doc"] = c.doc
    obj["attributes"] = [attribute_to_json(a) for a in c.attributes]
    obj["operations"] = [operation_to_json(o) for o in c.operations]
    if c.provides:
        obj["provides"] = list(c.provides)
    if c.requires:
        obj["requires"] = list(c.requires)
    if c.anchors:
        obj["anchors"] = {k: c.anchors[k] for k in sorted(c.anchors)}
    return obj


def attribute_to_json(a) -> dict:
    obj: dict = {"name": a.name}
    if a.datatype is not None:
        obj["datatype"] = a.datatype
    if a.unit is not None:
        obj["unit"] = a.unit
    return obj


def operation_to_json(o) -> dict:
    obj: dict = {"name": o.name}
    if o.params:
        obj["params"] = list(o.params)
    if o.returns is not None:
        obj["returns"] = o.returns
    return obj


def domain_ontology_to_json(od) -> dict:
    concepts = []
    for c in od.concepts:
        obj: dict = {"id": c.id, "label": c.label}
        if c.parent is not None:
            obj["parent"] = c.parent
        if c.definitions:
            obj["definitions"] = list(c.definitions)
        concepts.append(obj)
    thesaurus = [{"concept": e.concept, "terms": list(e.terms)} for e in od.thesaurus.entries]
    return {"concepts": concepts, "thesaurus": thesaurus}


def graph_to_json(graph) -> dict:
    obj: dict = {"source": graph.source, "origin": graph.origin, "root": concept_to_json(graph.root)}
    meta: dict = {}
    if graph.kind != "entity":
        meta["kind"] = graph.kind
    if graph.provides:
        meta["provides"] = list(graph.provides)
    if graph.requires:
        meta["requires"] = list(graph.requires)
    if meta:
        obj["metadata"] = meta
    return obj


def concept_to_json(c) -> dict:
    obj: dict = {"term": c.term, "raw_label": c.raw_label, "kind": c.kind}
    if c.anchor is not None:
        obj["anchor"] = c.anchor
    if c.definitions:
        obj["definitions"] = list(c.definitions)
    obj["members"] = [concept_to_json(m) for m in c.members]
    return obj


def merged_root_to_json(r) -> dict:
    return {**graph_to_json(r.ontology), "merged_from": [e.path for e in r.merged_from]}


def alignment_to_json(alignment, graphs, od, *, mode="literal", recursive=True) -> dict:
    return {
        "correspondences": [correspondence_to_json(c) for c in alignment.correspondences],
        "conflicts": [correspondence_to_json(c) for c in alignment.conflicts],
        "diagnostics": list(alignment.diagnostics),
        "settings": {"mode": mode, "recursive": recursive},
        "ontologies": [graph_to_json(g) for g in graphs],
        "domain": domain_ontology_to_json(od),
    }


def alignment_report_json(alignment) -> dict:
    return {
        "correspondences": [correspondence_to_json(c) for c in alignment.correspondences],
        "conflicts": [correspondence_to_json(c) for c in alignment.conflicts],
        "flagged": [correspondence_to_json(c) for c in detect_naming_conflicts(alignment)],
        "diagnostics": list(alignment.diagnostics),
    }


def correspondence_to_json(c) -> dict:
    return {
        "left": endpoint_json(c.left),
        "right": endpoint_json(c.right),
        "score": str(c.score),
        "class": c.classification,
    }


def endpoint_json(e) -> dict:
    return {"source": e.source, "origin": e.origin, "member": e.member}


def representation_to_json(rep) -> dict:
    return {
        "roots": [merged_root_to_json(r) for r in rep.roots],
        "equivalences": [list(pair) for pair in rep.equivalences],
    }


def client_pair() -> tuple[BusinessComponent, BusinessComponent]:
    """Two same-named components that share only one of two attributes."""
    first = component("client", attrs=["nom", "âge"], source="S1")
    second = component("client", attrs=["nom", "prénom"], source="S2")
    return first, second


def random_domain(rng: random.Random) -> tuple[DomainOntology, list[str]]:
    """A small ontology plus the pool of terms it knows about."""
    pool = [f"t{i}" for i in range(12)]
    synsets: dict[str, list[str]] = {}
    start = 0
    cid = 0
    while start < len(pool) and cid < 4:
        width = rng.randrange(1, 4)
        synsets[f"K{cid}"] = pool[start : start + width]
        start += width
        cid += 1
    if rng.random() < 0.3 and len(synsets) >= 2:
        # plant one homonymous term across the first two concepts
        synsets["K1"] = synsets["K1"] + [synsets["K0"][0]]
    return quick_ontology(synsets), pool


def random_concept(
    rng: random.Random, pool: list[str], distinct: bool = False
) -> Concept:
    width = rng.randrange(0, 5)
    terms = (
        rng.sample(pool, width)
        if distinct
        else [rng.choice(pool) for _ in range(width)]
    )
    members = []
    seen = set()
    for t in terms:
        kind = rng.choice((KIND_ATTRIBUTE, KIND_OPERATION))
        term = t + "()" if kind == KIND_OPERATION else t
        if (kind, term) in seen:
            continue
        seen.add((kind, term))
        members.append(atom(term, kind))
    return root(rng.choice(pool), members=tuple(members))


def random_component_set(rng: random.Random, case: int) -> ComponentSet:
    kinds = ("entity", "process", "utility", "data")
    components = []
    for ci in range(rng.randrange(4)):
        stems = rng.sample(
            ["nom", "prénom", "âge", "solde", "titre", "calculer", "vérifier", "lire"],
            rng.randrange(5),
        )
        split = rng.randrange(len(stems) + 1) if stems else 0
        attrs = tuple(
            Attribute(
                name=s,
                datatype=rng.choice([None, "int", "texte"]),
                unit=rng.choice([None, "ans"]),
            )
            for s in stems[:split]
        )
        ops = tuple(
            Operation(name=s, params=tuple(rng.sample(["x", "y"], rng.randrange(3))))
            for s in stems[split:]
        )
        components.append(
            BusinessComponent(
                name=f"Comp{case}_{ci}",
                kind=rng.choice(kinds),
                source="Sys",
                doc=rng.choice([None, "a short doc"]),
                attributes=attrs,
                operations=ops,
                provides=tuple(f"i{k}" for k in range(rng.randrange(3))),
                requires=tuple(f"j{k}" for k in range(rng.randrange(2))),
                anchors={"nom": "K1"} if rng.random() < 0.3 else {},
            )
        )
    return ComponentSet(system="Sys", components=tuple(components))


def random_source_pair(
    rng: random.Random, pool: list[str]
) -> tuple[ComponentSet, ComponentSet]:
    """Two sources whose component and member names come from the term pool.

    Names drawn from the domain's own terms make synonym pairs, homonym
    conflicts and merged classes named like other components all occur.
    """
    sets = []
    for system in ("A", "B"):
        components = []
        for name in rng.sample(pool, rng.randrange(1, 5)):
            stems = rng.sample(pool, rng.randrange(4))
            split = rng.randrange(len(stems) + 1)
            components.append(
                component(
                    name.capitalize(), attrs=stems[:split], ops=stems[split:], source=system
                )
            )
        sets.append(ComponentSet(system=system, components=tuple(components)))
    return sets[0], sets[1]


def random_anchor(rng: random.Random, concept_ids: list[str]) -> str | None:
    """Mostly none; otherwise a known concept id, or now and then a stale one."""
    roll = rng.random()
    if roll < 0.6:
        return None
    if roll < 0.9 and concept_ids:
        return rng.choice(concept_ids)
    return "GONE"


def random_members(
    rng: random.Random, pool: list[str], concept_ids: list[str], depth: int
) -> tuple[Concept, ...]:
    """Up to four members; while depth > 0 a member may have members of its own.

    Members differ in their stems, so a merge can rebuild a component
    from them.
    """
    members = []
    for stem in rng.sample(pool, rng.randrange(0, 5)):
        kind = rng.choice((KIND_ATTRIBUTE, KIND_OPERATION))
        label = stem + ("()" if kind == KIND_OPERATION else "")
        term = normalize_term(label)
        nested = (
            random_members(rng, pool, concept_ids, depth - 1)
            if depth > 0 and rng.random() < 0.4
            else ()
        )
        anchor = random_anchor(rng, concept_ids)
        members.append(Concept(term, label, kind, members=nested, anchor=anchor))
    return tuple(members)


def random_nested_concept(
    rng: random.Random, pool: list[str], concept_ids: list[str]
) -> Concept:
    """A root two member levels deep, with explicit and stale anchors."""
    members = random_members(rng, pool, concept_ids, depth=1)
    return root(rng.choice(pool), members=members, anchor=random_anchor(rng, concept_ids))
