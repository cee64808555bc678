"""Syntactic and semantic similarity between concepts, with exact scores.

Concept graphs are flat: a graph's root holds atomic members, and two
graphs are compared on those members. The syntactic layer only sees
normalized terms: atomic concepts match when term and kind agree, and
two roots average their pairwise member scores over the larger arity,
clamped at one. The semantic layer asks the domain ontology first: two
atomic concepts of one kind score one exactly when both effective
anchors exist and are equal, or an anchor is missing and the terms are
equal; otherwise they score zero. With no ontology the layers agree.

Scores are fractions.Fraction values in [0, 1]: the synonym verdict is
equality to exactly one, which floats cannot promise. A document holds a
score as str() writes it, and parse_score reads back only that text.

One engine, Scorer, does all the scoring. It resolves each concept's
effective anchor once, when it first sees the concept, and files each
member under keys, so that the hit cells of two member sets are looked
up in a keyed index. A pair's value is the count of its hit cells
(literal mode) or an integer maximum matching over them (bipartite
mode), with one rational per pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from ._record import record
from .assignment import max_matching
from .ontology import ANCHOR_UNIQUE, DomainOntology, anchor
from .transform import Concept, ComponentOntology

MODE_LITERAL = "literal"
MODE_BIPARTITE = "bipartite"

VERDICT_SYNONYM = "synonym"
VERDICT_NOT_SYNONYM = "not_synonym"

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_score(text: str) -> Fraction:
    """Parse the serialized form: "0", "1", or "num/den" in lowest terms.

    Only the text str() of a score writes is read; any other spelling of
    a rational, such as "2/4", "01" or "1/1", is rejected, and so is a
    value outside [0, 1].
    """
    num, slash, den = text.partition("/")
    try:
        score = Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad score {text!r}") from None
    if not 0 <= score <= 1 or str(score) != text:
        raise ValueError(f"bad score {text!r}")
    return score


@record
class PairScore:
    """One scored pair of graphs: the aggregate and its hit cells.

    cells holds the (row, column) pairs of the member cells that score
    one, in row-major order; every other cell of the member matrix is zero.
    """

    aggregate: Fraction
    cells: tuple[tuple[int, int], ...] = ()

    @property
    def verdict(self) -> str:
        """Synonym exactly when the aggregate is one."""
        return VERDICT_SYNONYM if self.aggregate == 1 else VERDICT_NOT_SYNONYM


_ZERO_PAIR = PairScore(ZERO)

# index keys: a member with an anchor is filed under it; every member is
# filed under its term, and a member without an anchor under its bare term
_ANCHOR, _TERM, _BARE = "anchor", "term", "bare"


class _Node:
    """A concept with its effective anchor resolved, members filed under their keys."""

    __slots__ = ("kind", "term", "anchor", "members", "probes", "keys", "filed")

    def __init__(self, kind: str, term: str, anchor: str | None, members: tuple[_Node, ...]):
        self.kind = kind
        self.term = term
        self.anchor = anchor
        self.members = members
        self.probes = [m.probe_keys() for m in members]
        self.keys = frozenset(key for probes in self.probes for key in probes)
        self.filed: dict[tuple, list[int]] = {}
        for j, m in enumerate(members):
            for key in m.filed_keys():
                self.filed.setdefault(key, []).append(j)

    def filed_keys(self) -> tuple[tuple[str, str, str], ...]:
        if self.anchor is None:
            return (_TERM, self.kind, self.term), (_BARE, self.kind, self.term)
        return (_TERM, self.kind, self.term), (_ANCHOR, self.kind, self.anchor)

    def probe_keys(self) -> tuple[tuple[str, str, str], ...]:
        # the filed keys of exactly the atomic concepts this one scores one with
        if self.anchor is None:
            return ((_TERM, self.kind, self.term),)
        return (_ANCHOR, self.kind, self.anchor), (_BARE, self.kind, self.term)


class Scorer:
    """The scoring engine: exact semantic similarity in one mode.

    node() resolves a concept once; score() scores two graph roots,
    cell() two atomic concepts, and links() finds the synonymous members
    that a merge folds together.
    """

    def __init__(self, od: DomainOntology, *, mode: str = MODE_LITERAL):
        if mode not in (MODE_LITERAL, MODE_BIPARTITE):
            raise ValueError(f"unknown mode {mode!r}")
        self.od = od
        self.mode = mode

    def node(self, c: Concept) -> _Node:
        """The concept with its effective anchor, and its members', resolved.

        An explicit anchor counts when the ontology knows it; otherwise
        the term must anchor uniquely.
        """
        if c.anchor is not None:
            resolved = c.anchor if self.od.has_concept(c.anchor) else None
        else:
            found = anchor(c.term, self.od)
            resolved = found.concepts[0] if found.kind == ANCHOR_UNIQUE else None
        return _Node(c.kind, c.term, resolved, tuple(self.node(m) for m in c.members))

    def score(self, left: _Node, right: _Node) -> PairScore:
        """Score the members of two graph roots and aggregate them.

        Two memberless roots are judged as atomic concepts; a memberless
        root against one with members scores zero.
        """
        if not left.members and not right.members:
            return PairScore(self.cell(left, right))
        if not (left.members and right.members) or left.keys.isdisjoint(right.filed):
            return _ZERO_PAIR
        rows = []
        for probes in left.probes:
            hits = [j for key in probes for j in right.filed.get(key, ())]
            rows.append(sorted(hits) if len(hits) > 1 else hits)
        arity = max(len(left.members), len(right.members))
        if self.mode == MODE_LITERAL:
            value = min(sum(map(len, rows)), arity)
        else:
            value = max_matching(rows)
        cells = tuple((i, j) for i, row in enumerate(rows) for j in row)
        return PairScore(Fraction(value, arity), cells)

    def cell(self, x: _Node, y: _Node) -> Fraction:
        """Ontology-aware similarity of two resolved atomic concepts, one
        or zero: one exactly when a probe key of x is a filed key of y,
        which is the rule the module states."""
        return ZERO if set(x.probe_keys()).isdisjoint(y.filed_keys()) else ONE

    def links(self, concepts: Sequence[Concept], owners: Sequence[int]) -> Iterator[tuple[int, int]]:
        """Pairs of concepts from different owners that join synonyms.

        Joining the pairs yielded gives the same classes as joining every
        pair of concepts from different owners whose cell is one. Concepts
        that share a key are chained once per key. The concepts must be
        atomic, and those of one owner must differ in (kind, term), as
        the members of one concept do.
        """
        nodes = [self.node(c) for c in concepts]
        buckets: dict[tuple, list[int]] = {}
        for i, n in enumerate(nodes):
            for key in n.filed_keys():
                buckets.setdefault(key, []).append(i)
        for key, ids in buckets.items():
            if key[0] == _ANCHOR:
                # one anchor: every pair from two owners scores one
                joined = len({owners[i] for i in ids}) > 1
            else:
                # one term, one concept per owner: a bare one scores one with
                # all; bare-term buckets only repeat part of a term bucket
                joined = key[0] == _TERM and any(nodes[i].anchor is None for i in ids)
            if joined:
                yield from zip(ids, ids[1:])


def syntactic_similarity(c1: Concept, c2: Concept) -> Fraction:
    """Term-level similarity; the ontology plays no part. Two concepts
    without members match when kind and term agree; two roots with
    members count their matching member pairs over the larger member
    count, clamped at one; a root without members against one with
    members scores zero."""
    if c1.kind != c2.kind or bool(c1.members) != bool(c2.members):
        return ZERO
    if not c1.members:
        return ONE if c1.term == c2.term else ZERO
    arity = max(len(c1.members), len(c2.members))
    hits = sum((a.kind, a.term) == (b.kind, b.term) for a in c1.members for b in c2.members)
    return Fraction(min(hits, arity), arity)


def semantic_similarity(
    c1: Concept, c2: Concept, od: DomainOntology, *, mode: str = MODE_LITERAL
) -> Fraction:
    """Ontology-aware similarity of two concepts: the aggregate that
    similarity_matrix gives for two graphs with these roots."""
    scorer = Scorer(od, mode=mode)
    return scorer.score(scorer.node(c1), scorer.node(c2)).aggregate


def similarity_matrix(
    a: ComponentOntology, b: ComponentOntology, od: DomainOntology, *, mode: str = MODE_LITERAL
) -> PairScore:
    """Score the members of two graphs and aggregate them; see Scorer.score."""
    scorer = Scorer(od, mode=mode)
    return scorer.score(scorer.node(a.root), scorer.node(b.root))
