"""What the ontology calls the same, cmfuse treats as the same.

Seeded metamorphic properties over random source pairs, in both modes.
Changes that leave the meaning of the inputs alone leave the merge
partition alone: the set of merged_from sets of the result roots.

- Listing source B before source A leaves the partition and the sorted
  result names unchanged.
- Reversing each source's component order leaves the partition
  unchanged.
- Renaming an attribute or an operation to another term that anchors
  uniquely to the same domain concept leaves every root score, every
  root class and the partition unchanged.
- Keying an attribute's anchor hint by a respelling of its name (upper
  case, capitalized, padded) gives the same graphs, diagnostics, root
  classes and partition as the component-set document of the same sets.

Not invariant, by design:

- renaming a root can turn equivalent into synonym_pair, or a homonym
  conflict into distinct, since a class reads the names; so only
  members are renamed here;
- an operation's term carries the call marker, so a synonym of an
  operation is a term whose operation_term anchors to the concept, not
  the bare thesaurus term.

Each property counts the cases that touch a pair with a non-zero cell,
so that the inputs are known to exercise it.
"""

from __future__ import annotations

import random
from collections import Counter

from cmfuse import (
    ANCHOR_UNIQUE,
    MODE_BIPARTITE,
    MODE_LITERAL,
    ComponentSet,
    align,
    anchor,
    merge,
    operation_term,
    parse_component_set,
    serialize_component_set,
    to_ontology,
)

from helpers import quick_ontology, random_domain, random_source_pair

MODES = (MODE_LITERAL, MODE_BIPARTITE)


def _domain(rng: random.Random):
    # random_domain's ontology, where some concepts also list the
    # operation form of their terms, so that operations anchor too
    od, pool = random_domain(rng)
    synsets = {}
    for entry in od.thesaurus.entries:
        terms = list(entry.terms)
        if rng.random() < 0.5:
            terms += [operation_term(t) for t in entry.terms]
        synsets[entry.concept] = terms
    return quick_ontology(synsets), pool


def _run(sets, od, mode):
    graphs = [to_ontology(c, od) for cs in sets for c in cs.components]
    alignment = align(graphs, od, mode=mode)
    return alignment, merge(alignment, graphs, od)


def _partition(merged) -> set[frozenset[str]]:
    return {frozenset(e.path for e in root.merged_from) for root in merged.representation.roots}


def _names(merged) -> list[str]:
    return sorted(root.ontology.root.raw_label for root in merged.representation.roots)


def _has_cells(alignment) -> bool:
    return any(c.left.member is not None for c in alignment.correspondences)


def test_listing_source_b_first_changes_no_class_and_no_name():
    rng = random.Random(7001)
    seen = Counter()
    for _ in range(250):
        od, pool = _domain(rng)
        set_a, set_b = random_source_pair(rng, pool)
        for mode in MODES:
            alignment, merged = _run((set_a, set_b), od, mode)
            _, swapped = _run((set_b, set_a), od, mode)
            assert _partition(swapped) == _partition(merged)
            assert _names(swapped) == _names(merged)
            seen["cells"] += _has_cells(alignment)
            seen["folded"] += any(len(r.merged_from) > 1 for r in merged.representation.roots)
    assert seen["cells"] >= 200 and seen["folded"] >= 30, seen


def test_reversing_each_source_changes_no_class():
    rng = random.Random(7002)
    seen = Counter()
    for _ in range(150):
        od, pool = _domain(rng)
        sets = random_source_pair(rng, pool)
        reversed_sets = [ComponentSet(cs.system, cs.components[::-1]) for cs in sets]
        for mode in MODES:
            alignment, merged = _run(sets, od, mode)
            _, again = _run(reversed_sets, od, mode)
            assert _partition(again) == _partition(merged)
            seen["cells"] += _has_cells(alignment)
            seen["folded"] += any(len(r.merged_from) > 1 for r in merged.representation.roots)
    assert seen["cells"] >= 120 and seen["folded"] >= 10, seen


def _synonyms(od, term: str, operation: bool) -> list[str]:
    # the names whose member term differs from term and anchors uniquely to
    # the concept term anchors to; an operation's term is its operation_term
    found = anchor(term, od)
    if found.kind != ANCHOR_UNIQUE:
        return []
    names = []
    for entry in od.thesaurus.entries:
        for name in entry.terms if entry.concept == found.concepts[0] else ():
            new = operation_term(name) if operation else name
            if not name.endswith("()") and new != term and anchor(new, od) == found:
                names.append(name)
    return names


def _renamed(component, rng: random.Random, od):
    # the component with one member renamed to a synonym, and that
    # member's old term; None when it has no member with a synonym that
    # it can hold
    attributes = {a.term for a in component.attributes}
    operations = {o.term for o in component.operations}
    choices = [
        ("attributes", k, name, a.term)
        for k, a in enumerate(component.attributes)
        for name in _synonyms(od, a.term, False)
        if name not in attributes and operation_term(name) not in operations
    ]
    choices += [
        ("operations", k, name, o.term)
        for k, o in enumerate(component.operations)
        for name in _synonyms(od, o.term, True)
        if operation_term(name) not in operations and name not in attributes
    ]
    if not choices:
        return None
    field, k, name, old = rng.choice(choices)
    members = list(getattr(component, field))
    members[k] = members[k]._replace(name=name)
    return component._replace(**{field: tuple(members)}), old


def test_renaming_a_member_to_a_synonym_changes_no_score_no_class():
    rng = random.Random(7003)
    seen = Counter()
    cases = 0
    while cases < 150:
        od, pool = _domain(rng)
        sets = list(random_source_pair(rng, pool))
        side = rng.randrange(2)
        components = list(sets[side].components)
        k = rng.randrange(len(components))
        found = _renamed(components[k], rng, od)
        if found is None:
            continue
        components[k], old = found
        renamed = list(sets)
        renamed[side] = ComponentSet(sets[side].system, tuple(components))
        seen["operation" if old.endswith("()") else "attribute"] += 1
        for mode in MODES:
            alignment, merged = _run(sets, od, mode)
            again, remerged = _run(renamed, od, mode)
            assert [c.score for c in again.roots] == [c.score for c in alignment.roots]
            assert [c.classification for c in again.roots] == [
                c.classification for c in alignment.roots
            ]
            assert _partition(remerged) == _partition(merged)
            path = f"{components[k].source}/{components[k].name}/{old}"
            seen["renamed member has a cell"] += any(
                path in (c.left.path, c.right.path) for c in alignment.correspondences
            )
        cases += 1
    assert min(seen.values()) >= 30, seen


def _respelled(rng: random.Random, name: str) -> str:
    return rng.choice((name.upper(), name.capitalize(), f"  {name} "))


def _hinted(cs: ComponentSet, rng: random.Random, concept_ids: list[str]) -> ComponentSet:
    # about half the attributes get a hint toward a random concept, keyed
    # by a respelling of the attribute's name
    components = tuple(
        c._replace(
            anchors={
                _respelled(rng, a.name): rng.choice(concept_ids)
                for a in c.attributes
                if rng.random() < 0.5
            }
        )
        for c in cs.components
    )
    return ComponentSet(cs.system, components)


def _graphs(sets, od):
    diagnostics: list[str] = []
    graphs = [to_ontology(c, od, diagnostics=diagnostics) for cs in sets for c in cs.components]
    return graphs, diagnostics


def test_respelled_anchor_hints_pin_as_they_do_after_a_file_round_trip():
    # a hint key is matched as a member term whatever its spelling, so
    # sets built in code mean what their component-set documents mean
    rng = random.Random(7004)
    hinted = 0
    for _ in range(400):
        od, pool = _domain(rng)
        concept_ids = [c.id for c in od.concepts]
        sets = [_hinted(cs, rng, concept_ids) for cs in random_source_pair(rng, pool)]
        read = [parse_component_set(serialize_component_set(cs)) for cs in sets]
        hinted += any(c.anchors for cs in sets for c in cs.components)
        assert _graphs(read, od) == _graphs(sets, od)
        for mode in MODES:
            alignment, merged = _run(sets, od, mode)
            again, remerged = _run(read, od, mode)
            assert [c.classification for c in again.roots] == [
                c.classification for c in alignment.roots
            ]
            assert _partition(remerged) == _partition(merged)
    assert hinted >= 300, hinted
