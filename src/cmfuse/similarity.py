"""Syntactic and semantic similarity between concepts, with exact scores.

Two layers of comparison share one shape. The syntactic layer only sees
normalized terms: atomic concepts match when term and kind agree, and
composite concepts average the pairwise member scores over the larger
arity, clamped at one. The semantic layer asks the domain ontology
first: two concepts anchored to the same domain concept score one, two
concepts anchored to homonymous domain concepts score zero, and only
when the ontology has no verdict does the comparison fall back to
member recursion and finally to the syntactic layer.

Scores are exact rationals. The synonym verdict is equality to exactly
one, which floats cannot promise, so Score never leaves the rational
domain.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .assignment import max_assignment, max_matching
from .ontology import ANCHOR_UNIQUE, DomainOntology, RELATION_HOMONYM, anchor, relation
from .transform import Concept, ComponentOntology

MODE_LITERAL = "literal"
MODE_BIPARTITE = "bipartite"

VERDICT_SYNONYM = "synonym"
VERDICT_NOT_SYNONYM = "not_synonym"

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class Score:
    """Exact rational similarity value in [0, 1], kept in lowest terms."""

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= self.num <= self.den:
            raise ValueError(f"similarity {self.num}/{self.den} out of range")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_fraction(cls, value: Fraction) -> Score:
        return cls(value.numerator, value.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.num == self.den:
            return "1"
        return f"{self.num}/{self.den}"


ZERO = Score(0)
ONE = Score(1)


def parse_score(text: str) -> Score:
    """Parse the serialized form: "0", "1", or "num/den" in lowest terms.

    Only the text str(Score) writes is read; any other spelling of a
    rational, such as "2/4", "01" or "1/1", is rejected.
    """
    num, slash, den = text.partition("/")
    try:
        score = Score(int(num), int(den) if slash else 1)
    except ValueError:
        raise ValueError(f"bad score {text!r}") from None
    if str(score) != text:
        raise ValueError(f"bad score {text!r}")
    return score


@dataclass(frozen=True)
class PairScore:
    """One scored pair of graphs: the aggregate and its non-zero cells.

    cells holds (row, column, score) triples in row-major order; every
    other cell of the member matrix is zero.
    """

    aggregate: Score
    cells: tuple[tuple[int, int, Score], ...] = ()

    @property
    def verdict(self) -> str:
        """Synonym exactly when the aggregate is one."""
        return VERDICT_SYNONYM if self.aggregate.is_one else VERDICT_NOT_SYNONYM


_ZERO_PAIR = PairScore(ZERO)

# index keys: a member with an anchor is filed under it; every member is
# filed under its term, and a member without an anchor under its bare term
_ANCHOR, _TERM, _BARE = "anchor", "term", "bare"


class _Node:
    """A concept with its effective anchor resolved, members indexed."""

    __slots__ = ("kind", "term", "anchor", "members", "index")

    def __init__(self, kind: str, term: str, anchor: str | None, members: tuple[_Node, ...]):
        self.kind = kind
        self.term = term
        self.anchor = anchor
        self.members = members
        self.index = _Index(members) if members else None

    @property
    def is_atomic(self) -> bool:
        return not self.members

    def filed_keys(self) -> tuple[tuple[str, str, str], ...]:
        if self.anchor is None:
            return (_TERM, self.kind, self.term), (_BARE, self.kind, self.term)
        return (_TERM, self.kind, self.term), (_ANCHOR, self.kind, self.anchor)

    def probe_keys(self) -> tuple[tuple[str, str, str], ...]:
        # the filed keys of exactly the atomic concepts this one scores one with
        if self.anchor is None:
            return ((_TERM, self.kind, self.term),)
        return (_ANCHOR, self.kind, self.anchor), (_BARE, self.kind, self.term)


class _Index:
    """The member nodes of one concept, filed under their keys."""

    __slots__ = ("nodes", "atomic", "probes", "keys", "filed")

    def __init__(self, nodes: tuple[_Node, ...]):
        self.nodes = nodes
        self.atomic = all(not n.members for n in nodes)
        self.probes = [n.probe_keys() for n in nodes]
        self.keys = frozenset(key for probes in self.probes for key in probes)
        self.filed: dict[tuple, list[int]] = {}
        for j, n in enumerate(nodes):
            for key in n.filed_keys():
                self.filed.setdefault(key, []).append(j)


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
            return self._members(left.index, right.index)
        if not left.members and not right.members:
            return PairScore(Score.from_fraction(self.cell(left, right)))
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
            return _F0
        if x.anchor is not None and y.anchor is not None:
            if x.anchor == y.anchor:
                return _F1
            if not x.members and not y.members:
                return _F0
            if relation(x.anchor, y.anchor, self.od) == RELATION_HOMONYM:
                return _F0
        if self.recursive and x.members and y.members:
            return self._members(x.index, y.index).aggregate.fraction
        return _syntactic(x, y)

    def _members(self, left: _Index, right: _Index) -> PairScore:
        arity = max(len(left.nodes), len(right.nodes))
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
        return PairScore(Score(value, arity), cells)

    def _composite(self, left: _Index, right: _Index, arity: int) -> PairScore:
        cells = [[self.cell(x, y) for y in right.nodes] for x in left.nodes]
        if self.mode == MODE_LITERAL:
            value = min(_F1, sum(v for row in cells for v in row) / arity)
        else:
            value = max_assignment(cells)[0] / arity
        nonzero = tuple(
            (i, j, Score.from_fraction(v))
            for i, row in enumerate(cells)
            for j, v in enumerate(row)
            if v
        )
        return PairScore(Score.from_fraction(value), nonzero)

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
                    if owners[j] != owners[i] and self.cell(n, other) == _F1:
                        yield i, j


def syntactic_similarity(c1: Concept, c2: Concept) -> Score:
    """Term-level similarity; the ontology plays no part."""
    return Score.from_fraction(_syntactic(c1, c2))


def _syntactic(c1, c2) -> Fraction:
    # on concepts or resolved nodes alike: anchors play no part
    if c1.kind != c2.kind:
        return _F0
    if c1.is_atomic and c2.is_atomic:
        return _F1 if c1.term == c2.term else _F0
    m1 = c1.members or (c1,)
    m2 = c2.members or (c2,)
    total = sum(_syntactic(a, b) for a in m1 for b in m2)
    return min(_F1, total / max(len(m1), len(m2)))


def semantic_similarity(
    c1: Concept,
    c2: Concept,
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    recursive: bool = True,
) -> Score:
    """Ontology-aware similarity of two concepts; see Scorer.cell."""
    scorer = Scorer(od, mode=mode, recursive=recursive)
    return Score.from_fraction(scorer.cell(scorer.node(c1), scorer.node(c2)))


def similarity_matrix(
    a: ComponentOntology,
    b: ComponentOntology,
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    recursive: bool = True,
) -> PairScore:
    """Score every member pair of two graphs and aggregate the verdict.

    Two empty-membered graphs are judged by their roots alone; an empty
    side against a non-empty one scores zero.
    """
    scorer = Scorer(od, mode=mode, recursive=recursive)
    return scorer.score(scorer.node(a.root), scorer.node(b.root))


def bipartite_score(
    c1: Concept,
    c2: Concept,
    od: DomainOntology,
    *,
    recursive: bool = True,
) -> Score:
    """Best one-to-one member matching divided by the larger arity.

    Differs from the literal aggregate only when some member is
    synonymous with two or more members across the pair; a one-to-one
    matching counts each member once where the literal sum counts every
    synonymous cell. An atomic concept stands for its own single member.
    """
    if c1.kind != c2.kind:
        return ZERO
    scorer = Scorer(od, mode=MODE_BIPARTITE, recursive=recursive)
    x, y = scorer.node(c1), scorer.node(c2)
    return scorer._members(x.index or _Index((x,)), y.index or _Index((y,))).aggregate
