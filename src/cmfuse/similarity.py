"""Syntactic and semantic similarity between concepts, with exact scores.

Two layers of comparison share one shape. The syntactic layer only sees
normalized terms: atomic concepts match when term and kind agree, and
composite concepts average the pairwise member scores over the larger
arity, clamped at one. The semantic layer asks the domain ontology
first: two concepts anchored to the same domain concept score one, two
concepts anchored to homonymous domain concepts score zero, and only
when the ontology has no verdict does the comparison fall back to
member recursion and finally to the syntactic layer.

Scores are fractions.Fraction values in [0, 1]: the synonym verdict is
equality to exactly one, which floats cannot promise. A document holds a
score as str() writes it, and parse_score reads back only that text.

One engine, Scorer, does all the scoring. It resolves each concept's
effective anchor once, when it first sees the concept. Two atomic
concepts of one kind score one exactly when both anchors exist and are
equal, or an anchor is missing and the terms are equal; otherwise they
score zero. So the members of two concepts that are all atomic are
scored by looking their hit cells up in a keyed index, as an integer
count (literal mode) or an integer maximum matching (bipartite mode),
with one rational per pair. Fraction recursion and the exact
Kuhn-Munkres assignment are left for composite members.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from ._record import record
from .assignment import max_assignment, max_matching
from .ontology import ANCHOR_UNIQUE, DomainOntology, RELATION_HOMONYM, anchor, relation
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
    """One scored pair of graphs: the aggregate and its non-zero cells.

    cells holds (row, column, score) triples in row-major order; every
    other cell of the member matrix is zero. Each score is a Fraction.
    """

    aggregate: Fraction
    cells: tuple[tuple[int, int, Fraction], ...] = ()

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

    __slots__ = ("kind", "term", "anchor", "members", "atomic", "probes", "keys", "filed")

    def __init__(self, kind: str, term: str, anchor: str | None, members: tuple[_Node, ...]):
        self.kind = kind
        self.term = term
        self.anchor = anchor
        self.members = members
        self.atomic = all(not m.members for m in members)
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
    """The scoring engine: exact semantic similarity under one setting.

    node() resolves a concept once; score() scores two graph roots,
    cell() two concepts, and links() finds the synonymous members that
    a merge folds together.
    """

    def __init__(self, od: DomainOntology, *, mode: str = MODE_LITERAL, recursive: bool = True):
        if mode not in (MODE_LITERAL, MODE_BIPARTITE):
            raise ValueError(f"unknown mode {mode!r}")
        self.od = od
        self.mode = mode
        self.recursive = recursive

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

        Two memberless roots are judged by themselves; a memberless root
        against one with members scores zero.
        """
        if left.members and right.members:
            return self._members(left, right)
        if not left.members and not right.members:
            return PairScore(self.cell(left, right))
        return _ZERO_PAIR

    def cell(self, x: _Node, y: _Node) -> Fraction:
        """Ontology-aware similarity of two resolved concepts.

        Anchored concepts are judged by their domain concepts: same
        concept scores one, homonymous concepts score zero, unrelated
        atomic concepts score zero. Composite pairs the ontology leaves
        undecided recurse over members (unless recursion is disabled),
        and anything still open falls back to the syntactic layer.
        """
        if x.kind != y.kind:
            return ZERO
        if x.anchor is not None and y.anchor is not None:
            if x.anchor == y.anchor:
                return ONE
            if not x.members and not y.members:
                return ZERO
            if relation(x.anchor, y.anchor, self.od) == RELATION_HOMONYM:
                return ZERO
        if self.recursive and x.members and y.members:
            return self._members(x, y).aggregate
        return syntactic_similarity(x, y)

    def _members(self, left: _Node, right: _Node) -> PairScore:
        arity = max(len(left.members), len(right.members))
        if not (left.atomic and right.atomic):
            return self._composite(left, right, arity)
        if left.keys.isdisjoint(right.filed):
            return _ZERO_PAIR
        rows = []
        for probes in left.probes:
            hits = [j for key in probes for j in right.filed.get(key, ())]
            rows.append(sorted(hits) if len(hits) > 1 else hits)
        if self.mode == MODE_LITERAL:
            value = min(sum(map(len, rows)), arity)
        else:
            value = max_matching(rows)
        cells = tuple((i, j, ONE) for i, row in enumerate(rows) for j in row)
        return PairScore(Fraction(value, arity), cells)

    def _composite(self, left: _Node, right: _Node, arity: int) -> PairScore:
        cells = [[self.cell(x, y) for y in right.members] for x in left.members]
        if self.mode == MODE_LITERAL:
            value = min(ONE, sum(v for row in cells for v in row) / arity)
        else:
            value = max_assignment(cells)[0] / arity
        nonzero = tuple((i, j, v) for i, row in enumerate(cells) for j, v in enumerate(row) if v)
        return PairScore(value, nonzero)

    def links(self, concepts: Sequence[Concept], owners: Sequence[int]) -> Iterator[tuple[int, int]]:
        """Pairs of concepts from different owners that join synonyms.

        Joining the pairs yielded gives the same classes as joining every
        pair of concepts from different owners that scores exactly one.
        Atomic concepts that share a key are chained once per key;
        composite ones are scored against every concept of another
        owner. The concepts of one owner must differ in (kind, term), as
        the members of one concept do.
        """
        nodes = [self.node(c) for c in concepts]
        buckets: dict[tuple, list[int]] = {}
        for i, n in enumerate(nodes):
            if not n.members:
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
        for i, n in enumerate(nodes):
            if n.members:
                for j, other in enumerate(nodes):
                    if owners[j] != owners[i] and self.cell(n, other) == 1:
                        yield i, j


def syntactic_similarity(c1: Concept, c2: Concept) -> Fraction:
    """Term-level similarity; the ontology plays no part. The engine
    calls it on its resolved nodes alike."""
    if c1.kind != c2.kind:
        return ZERO
    if not c1.members and not c2.members:
        return ONE if c1.term == c2.term else ZERO
    m1 = c1.members or (c1,)
    m2 = c2.members or (c2,)
    total = sum(syntactic_similarity(a, b) for a in m1 for b in m2)
    return min(ONE, total / max(len(m1), len(m2)))


def semantic_similarity(
    c1: Concept,
    c2: Concept,
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    recursive: bool = True,
) -> Fraction:
    """Ontology-aware similarity of two concepts; see Scorer.cell."""
    scorer = Scorer(od, mode=mode, recursive=recursive)
    return scorer.cell(scorer.node(c1), scorer.node(c2))


def similarity_matrix(
    a: ComponentOntology,
    b: ComponentOntology,
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    recursive: bool = True,
) -> PairScore:
    """Score the members of two graphs and aggregate them; see Scorer.score."""
    scorer = Scorer(od, mode=mode, recursive=recursive)
    return scorer.score(scorer.node(a.root), scorer.node(b.root))

