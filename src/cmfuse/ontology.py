"""Domain ontology: concept taxonomy, thesaurus, and term normalization.

The thesaurus carries every judgement that plain text comparison cannot
make. A term is anchored to the concept(s) whose entry lists it; two
terms listed under one concept are synonyms of each other, and a single
term listed under two concepts makes those concepts homonyms.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache
from typing import Iterable

from ._record import record
from .errors import DocumentError, IntegrationError
from .jsonio import NON_EMPTY, STRING, check, dump_json, list_of, load_json, maybe, obj, string

OPERATION_MARKER = "()"

ANCHOR_UNIQUE = "unique"
ANCHOR_AMBIGUOUS = "ambiguous"
ANCHOR_NONE = "none"


# pure, and called again and again on the same few labels: a pipeline
# folds each distinct term about nine times
@lru_cache(maxsize=1 << 14)
def normalize_term(raw: str) -> str:
    """Fold a raw label into its canonical matchable form.

    Unicode is composed (NFC), case is folded, surrounding whitespace is
    dropped and internal runs collapse to single spaces. Accents are
    kept. A single trailing call marker "()" survives, glued to the text
    in front of it, so "Lire ()" becomes "lire()".
    """
    text = unicodedata.normalize("NFC", raw.casefold()).strip()
    marker = text.endswith(OPERATION_MARKER)
    if marker:
        text = text[: -len(OPERATION_MARKER)]
    text = " ".join(text.split())
    return text + OPERATION_MARKER if marker else text


def operation_term(name: str) -> str:
    """Normalized operation term; the call marker is appended if missing."""
    term = normalize_term(name)
    if term.endswith(OPERATION_MARKER):
        return term
    return term + OPERATION_MARKER


def term_stem(term: str) -> str:
    """The term without a trailing call marker."""
    if term.endswith(OPERATION_MARKER):
        return term[: -len(OPERATION_MARKER)].rstrip()
    return term


@record
class DomainConcept:
    """One concept of the domain model."""

    id: str
    label: str
    parent: str | None = None
    definitions: tuple[str, ...] = ()


@record
class ThesaurusEntry:
    """The terms that denote one concept; terms are stored normalized."""

    concept: str
    terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(map(normalize_term, self.terms)))


@record
class Thesaurus:
    entries: tuple[ThesaurusEntry, ...]


@record
class AnchorResult:
    """Outcome of resolving a term against the thesaurus.

    kind is one of "unique", "ambiguous" or "none"; concepts holds the
    candidate concept ids (one, several or none respectively).
    """

    kind: str
    concepts: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (ANCHOR_UNIQUE, ANCHOR_AMBIGUOUS, ANCHOR_NONE):
            raise ValueError(f"bad anchor kind {self.kind!r}")
        if self.kind == ANCHOR_AMBIGUOUS and len(self.concepts) < 2:
            raise ValueError("an ambiguous anchor needs at least two candidates")
        if self.kind == ANCHOR_UNIQUE and len(self.concepts) != 1:
            raise ValueError("a unique anchor needs exactly one concept")


class DomainOntology:
    """Concept taxonomy plus thesaurus, indexed for constant-time lookups.

    Instances never change after construction, so they are safe to share
    across threads and every query is pure.
    """

    def __init__(self, concepts: Iterable[DomainConcept], entries: Iterable[ThesaurusEntry] = ()):
        concepts = tuple(concepts)
        problems: list[str] = []
        by_id: dict[str, DomainConcept] = {}
        for c in concepts:
            if not c.id:
                problems.append("concept with empty id")
            elif c.id in by_id:
                problems.append(f"duplicate concept id '{c.id}'")
            else:
                by_id[c.id] = c
            if not normalize_term(c.label):
                problems.append(f"concept '{c.id}': label must be non-empty")
        for c in concepts:
            if c.parent is not None and c.parent not in by_id:
                problems.append(f"concept '{c.id}': parent '{c.parent}' does not exist")
        if not problems:
            problems.extend(_taxonomy_cycles(concepts, by_id))

        # one merged term bucket per concept; explicit duplicates are errors
        merged: dict[str, list[str]] = {c.id: [] for c in concepts}
        for entry in entries:
            if entry.concept not in by_id:
                problems.append(f"thesaurus entry for unknown concept '{entry.concept}'")
                continue
            bucket = merged[entry.concept]
            for term in entry.terms:
                if not term:
                    problems.append(f"thesaurus entry '{entry.concept}': empty term")
                elif term in bucket:
                    problems.append(
                        f"thesaurus entry '{entry.concept}': duplicate term '{term}'"
                    )
                else:
                    bucket.append(term)
        if problems:
            raise DocumentError("<ontology>", problems)

        for c in concepts:
            label = normalize_term(c.label)
            if label not in merged[c.id]:
                merged[c.id].append(label)

        self.concepts = concepts
        self.thesaurus = Thesaurus(
            tuple(ThesaurusEntry(c.id, merged[c.id]) for c in concepts)
        )
        self._by_id = by_id
        by_term: dict[str, list[str]] = {}
        for c in concepts:
            for term in merged[c.id]:
                by_term.setdefault(term, []).append(c.id)
        self._ids_by_term = {t: tuple(ids) for t, ids in by_term.items()}

    def has_concept(self, concept_id: str) -> bool:
        return concept_id in self._by_id

    def concept(self, concept_id: str) -> DomainConcept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise IntegrationError(f"unknown concept id '{concept_id}'") from None

    def label(self, concept_id: str) -> str:
        return self.concept(concept_id).label

    def __eq__(self, other):
        if not isinstance(other, DomainOntology):
            return NotImplemented
        return self.concepts == other.concepts and self.thesaurus == other.thesaurus

    def __hash__(self):
        return hash((self.concepts, self.thesaurus))

    def __repr__(self):
        return f"DomainOntology({len(self.concepts)} concepts)"


def _taxonomy_cycles(concepts, by_id) -> list[str]:
    problems = []
    cleared: set[str] = set()
    for c in concepts:
        path: list[str] = []
        on_path: set[str] = set()
        node = c.id
        while node is not None and node not in cleared:
            if node in on_path:
                cycle = path[path.index(node):] + [node]
                problems.append(f"taxonomy cycle: {' -> '.join(cycle)}")
                break
            on_path.add(node)
            path.append(node)
            node = by_id[node].parent
        else:
            cleared.update(on_path)
    return problems


def anchor(term: str, od: DomainOntology) -> AnchorResult:
    """Resolve a term to the concept(s) whose thesaurus entry lists it."""
    ids = od._ids_by_term.get(normalize_term(term), ())
    if not ids:
        return AnchorResult(ANCHOR_NONE)
    if len(ids) == 1:
        return AnchorResult(ANCHOR_UNIQUE, ids)
    return AnchorResult(ANCHOR_AMBIGUOUS, ids)


# a non-empty matchable term
TERM = string("must be a non-empty string", lambda v: normalize_term(v) != "")

_STRING_LIST = maybe(list_of(STRING, "must be a list of strings"))
_CONCEPT = obj(
    {"id": NON_EMPTY, "label": STRING, "parent": maybe(STRING), "definitions": _STRING_LIST},
    required="id label",
    build=DomainConcept,
)
_ENTRY = obj(
    {"concept": NON_EMPTY, "terms": _STRING_LIST},
    required="concept terms",
    build=lambda concept, terms=(): ThesaurusEntry(concept, terms),
)
# the dict-level schema of an ontology, also read embedded in alignments
ONTOLOGY_SPEC = obj(
    {"concepts": maybe(list_of(_CONCEPT)), "thesaurus": maybe(list_of(_ENTRY))},
    required="concepts thesaurus",
    build=lambda concepts=(), thesaurus=(): DomainOntology(concepts, thesaurus),
    get={"thesaurus": lambda od: od.thesaurus.entries},
)


def load_domain_ontology(document: str, *, source: str = "<ontology>") -> DomainOntology:
    """Parse an ontology document (strict schema) and build the indexes."""
    return domain_ontology_from_json(load_json(document, source), source=source)


def domain_ontology_from_json(data, *, source: str = "<ontology>") -> DomainOntology:
    """Check a decoded ontology document and build the indexes."""
    return check(ONTOLOGY_SPEC, data, source)


def serialize_domain_ontology(od: DomainOntology) -> str:
    """Canonical document for an ontology; terms come out normalized."""
    return dump_json(ONTOLOGY_SPEC.write(od))
