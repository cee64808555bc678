"""Seeded synthetic corpora with planted ground truth.

A corpus is two component sets (systems "SysA" and "SysB") and one
domain ontology, written in the repository's JSON formats. The shapes
mirror the random builders of the test suite (``random_domain`` and
``random_component_set``: synsets whose first term is the label,
attribute and operation members, kinds, docs and interfaces), scaled up
and made exact:

- Every term is a six-letter pseudo-word, so document sizes barely move
  between seeds. Operation terms carry the "()" marker in the thesaurus,
  as the library fixture does; without it operations never anchor.
- Each component name is a term of its own ontology concept. A planted
  synonym pair is named by two terms of one concept, a planted
  homonym-named pair by one term; no other name repeats.
- Each free component has one private member: a term listed nowhere
  else, so no unplanted pair can reach a score of exactly 1. The two
  components of a planted synonym pair share their private member and
  express every other member concept by a random synonym term.
- Ambiguous terms are fresh words listed under two member concepts.
  Free components may use them; planted members avoid them, because an
  unanchored term only matches itself.
- A consolidation group is a set of components on both sides that
  express one concept set with random synonym terms; every cross-source
  pair inside a group is a planted synonym.
- A planted name collision (``collisions``) reproduces the known merge
  defect: a synonym pair named by two non-label terms of a concept, plus
  a component of the other side named by that concept's label. The
  merged class takes the label as its name, so the result set holds two
  components with one name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

SOURCE_A = "SysA"
SOURCE_B = "SysB"

KINDS = ("entity", "process", "utility", "data")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# share of operations among the member concepts of a pool and of a component
OPERATION_SHARE = 0.3


@dataclass(frozen=True)
class Shape:
    """Sizes and planted shares of one corpus.

    ``per_side`` counts the components outside consolidation groups on
    each side, planted pairs included.
    """

    per_side: int
    members: int
    member_concepts: int
    synonym_pairs: int = 0
    homonym_pairs: int = 0
    ambiguous_terms: int = 0
    groups: int = 0
    group_size: int = 0
    collisions: int = 0


@dataclass
class Corpus:
    """Input documents plus the root pairs planted in them, keyed by name."""

    ontology: dict
    set_a: dict
    set_b: dict
    synonyms: frozenset
    homonyms: frozenset
    collisions: frozenset

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "domain": directory / "domain.json",
            "a": directory / "a.json",
            "b": directory / "b.json",
        }
        for key, doc in (("domain", self.ontology), ("a", self.set_a), ("b", self.set_b)):
            paths[key].write_text(
                json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
            )
        return paths

    def truth_json(self) -> dict:
        return {
            "synonyms": sorted(map(list, self.synonyms)),
            "homonyms": sorted(map(list, self.homonyms)),
            "collisions": sorted(map(list, self.collisions)),
        }


class _Words:
    """Distinct pronounceable six-letter words, drawn without replacement."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(3)
            )
            if word not in self.used:
                self.used.add(word)
                return word


@dataclass
class _Concept:
    id: str
    kind: str  # "name", "attribute" or "operation"
    terms: list[str]
    ambiguous: set[str]

    @property
    def label(self) -> str:
        return self.terms[0]

    def plain_terms(self) -> list[str]:
        return [t for t in self.terms if t not in self.ambiguous]


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = _Words(rng)
        self.concepts: list[_Concept] = []

    def concept(self, kind: str, min_terms: int = 1) -> _Concept:
        width = self.rng.randint(max(1, min_terms), max(3, min_terms))
        stems = [self.words.fresh() for _ in range(width)]
        terms = [s + "()" for s in stems] if kind == "operation" else stems
        c = _Concept(f"C{len(self.concepts):04d}", kind, terms, set())
        self.concepts.append(c)
        return c

    def member_pool(self, count: int) -> list[_Concept]:
        ops = round(count * OPERATION_SHARE)
        return [self.concept("operation" if i < ops else "attribute") for i in range(count)]

    def plant_ambiguity(self, pool: list[_Concept], count: int):
        attrs = [c for c in pool if c.kind == "attribute"]
        for _ in range(count if len(attrs) >= 2 else 0):
            x, y = self.rng.sample(attrs, 2)
            word = self.words.fresh()
            for c in (x, y):
                c.terms.append(word)
                c.ambiguous.add(word)

    def ontology_json(self) -> dict:
        concepts = []
        for i, c in enumerate(self.concepts):
            obj: dict = {"id": c.id, "label": c.label}
            if i and self.rng.random() < 0.5:
                obj["parent"] = self.concepts[self.rng.randrange(i)].id
            concepts.append(obj)
        thesaurus = [{"concept": c.id, "terms": list(c.terms)} for c in self.concepts]
        return {"concepts": concepts, "thesaurus": thesaurus}


def _display(term: str, rng: random.Random) -> str:
    """A raw spelling of a normalized term, as a modeller might type it."""
    if term.endswith("()"):
        stem = term[:-2]
        stem = stem.capitalize() if rng.random() < 0.5 else stem
        return stem + (" ()" if rng.random() < 0.5 else "()")
    return term.capitalize() if rng.random() < 0.3 else term


class _Member:
    """One member slot: a concept, or a private attribute term when concept is None."""

    def __init__(self, concept: _Concept | None, term: str):
        self.concept = concept
        self.term = term

    @property
    def kind(self) -> str:
        return "attribute" if self.concept is None else self.concept.kind


def _pick(rng, pool: list[_Concept], count: int) -> list[_Concept]:
    """``count`` distinct concepts with a fixed number of operations among them."""
    ops = [c for c in pool if c.kind == "operation"]
    attrs = [c for c in pool if c.kind != "operation"]
    n_ops = min(len(ops), round(count * OPERATION_SHARE))
    return rng.sample(ops, n_ops) + rng.sample(attrs, min(len(attrs), count - n_ops))


def _free_members(rng, concepts: list[_Concept]) -> list[_Member]:
    out: list[_Member] = []
    used: set[str] = set()
    for c in concepts:
        term = rng.choice([t for t in c.terms if t not in used])
        used.add(term)
        out.append(_Member(c, term))
    return out


def _synonym_copy(rng, members: list[_Member]) -> list[_Member]:
    """The same concepts under independently drawn unambiguous terms."""
    out = []
    for m in members:
        term = m.term if m.concept is None else rng.choice(m.concept.plain_terms())
        out.append(_Member(m.concept, term))
    rng.shuffle(out)
    return out


def _planted_members(rng, concepts: list[_Concept]) -> list[_Member]:
    return [_Member(c, rng.choice(c.plain_terms())) for c in concepts]


def _component_json(rng, name: str, members: list[_Member], op_terms: list[str]) -> dict:
    attrs = [{"name": _display(m.term, rng)} for m in members if m.kind == "attribute"]
    ops = [{"name": _display(m.term, rng)} for m in members if m.kind == "operation"]
    comp: dict = {
        "name": name.capitalize(),
        "kind": rng.choice(KINDS),
        "attributes": attrs,
        "operations": ops,
    }
    if rng.random() < 0.5:
        comp["doc"] = f"Component {name} of the synthetic catalog."
    if op_terms and rng.random() < 0.5:
        comp["provides"] = [rng.choice(op_terms)]
    if op_terms and rng.random() < 0.3:
        comp["requires"] = [rng.choice(op_terms)]
    return comp


def generate(shape: Shape, rng: random.Random) -> Corpus:
    """Build one corpus; the same shape and generator state give the same corpus."""
    b = _Builder(rng)
    pool = b.member_pool(shape.member_concepts)
    group_pools = [b.member_pool(shape.members) for _ in range(shape.groups)]
    b.plant_ambiguity(pool, shape.ambiguous_terms)
    op_terms = [t for c in pool if c.kind == "operation" for t in c.plain_terms()]

    def private() -> _Member:
        return _Member(None, b.words.fresh())

    def concepts() -> list[_Concept]:
        return _pick(rng, pool, shape.members - 1)

    side_a: list[tuple[str, list[_Member]]] = []
    side_b: list[tuple[str, list[_Member]]] = []
    synonyms: set[tuple[str, str]] = set()
    homonyms: set[tuple[str, str]] = set()
    collisions: set[tuple[str, str]] = set()

    def free() -> list[_Member]:
        return _free_members(rng, concepts()) + [private()]

    for _ in range(shape.synonym_pairs):
        c = b.concept("name", min_terms=2)
        left, right = rng.sample(c.terms, 2)
        members = _planted_members(rng, concepts()) + [private()]
        side_a.append((left, members))
        side_b.append((right, _synonym_copy(rng, members)))
        synonyms.add((left.capitalize(), right.capitalize()))
    for _ in range(shape.collisions):
        c = b.concept("name", min_terms=3)
        left, right = rng.sample(c.terms[1:], 2)
        members = _planted_members(rng, concepts()) + [private()]
        side_a.append((left, members))
        side_b.append((right, _synonym_copy(rng, members)))
        side_b.append((c.label, free()))
        synonyms.add((left.capitalize(), right.capitalize()))
        collisions.add((left.capitalize(), c.label.capitalize()))
    for _ in range(shape.homonym_pairs):
        name = rng.choice(b.concept("name").terms)
        side_a.append((name, free()))
        side_b.append((name, free()))
        homonyms.add((name.capitalize(), name.capitalize()))
    for side in (side_a, side_b):
        while len(side) < shape.per_side:
            side.append((rng.choice(b.concept("name").terms), free()))

    for gpool in group_pools:
        base = [_Member(c, rng.choice(c.plain_terms())) for c in gpool]
        names = {}
        for side, key in ((side_a, "a"), (side_b, "b")):
            names[key] = []
            for _ in range(shape.group_size):
                name = rng.choice(b.concept("name").terms)
                side.append((name, _synonym_copy(rng, base)))
                names[key].append(name.capitalize())
        synonyms.update((x, y) for x in names["a"] for y in names["b"])

    rng.shuffle(side_a)
    rng.shuffle(side_b)
    set_a = {
        "system": SOURCE_A,
        "components": [_component_json(rng, n, m, op_terms) for n, m in side_a],
    }
    set_b = {
        "system": SOURCE_B,
        "components": [_component_json(rng, n, m, op_terms) for n, m in side_b],
    }
    return Corpus(
        ontology=b.ontology_json(),
        set_a=set_a,
        set_b=set_b,
        synonyms=frozenset(synonyms),
        homonyms=frozenset(homonyms),
        collisions=frozenset(collisions),
    )


def scaled(shape: Shape, factor: float) -> Shape:
    """The same shape with every count multiplied by ``factor``.

    Member arity stays fixed; a planted kind that is present stays
    present, so a tiny corpus still exercises every check.
    """

    def keep(count: int, floor: int = 1) -> int:
        return max(floor, round(count * factor)) if count else 0

    return replace(
        shape,
        per_side=keep(shape.per_side, 2),
        member_concepts=max(shape.members, round(shape.member_concepts * factor)),
        synonym_pairs=keep(shape.synonym_pairs),
        homonym_pairs=keep(shape.homonym_pairs),
        ambiguous_terms=round(shape.ambiguous_terms * factor),
        group_size=keep(shape.group_size, 2),
    )
