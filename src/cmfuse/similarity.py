"""Semantic similarity between concepts, with exact scores.

Concept graphs are flat: a graph's root holds members that have none,
and two graphs are compared on those members. The rule is stated as index
keys, each holding the kind. A concept is filed under its term key, and
under its anchor key when it has an effective anchor, else its bare-term
key; an anchored concept probes its anchor and bare-term keys, an
unanchored one its term key. Two concepts score one exactly when a probe
key of one is filed by the other: both anchors exist and are equal, or
an anchor is missing and the terms are equal. With an empty ontology no
anchor counts, so kind and term decide: that is the syntactic layer.

Scores are fractions.Fraction values in [0, 1]: the synonym verdict is
equality to exactly one, which floats cannot promise. A document holds a
score as str() writes it, and parse_score reads back only that text.

One engine, Scorer, does all the scoring. It files a graph's members
under their keys, so that the hit cells of two member sets are looked
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

_ANCHOR, _TERM, _BARE = "anchor", "term", "bare"
_Key = tuple[str, str, str]
_Keys = tuple[tuple[_Key, ...], tuple[_Key, ...]]


def _keys(kind: str, term: str, anchor: str | None) -> _Keys:
    """The filed keys and the probe keys of a concept with this effective anchor."""
    term_key = (_TERM, kind, term)
    if anchor is None:
        return (term_key, (_BARE, kind, term)), (term_key,)
    anchor_key = (_ANCHOR, kind, anchor)
    return (term_key, anchor_key), (anchor_key, (_BARE, kind, term))


class _Node:
    """A graph root with its own keys, and its members' keys filed."""

    __slots__ = ("own", "probes", "keys", "filed")

    def __init__(self, own: _Keys, members: list[_Keys]):
        self.own = own
        self.probes = [probes for _, probes in members]
        self.keys = frozenset(key for probes in self.probes for key in probes)
        self.filed: dict[_Key, list[int]] = {}
        for j, (filed, _) in enumerate(members):
            for key in filed:
                self.filed.setdefault(key, []).append(j)


class Scorer:
    """The scoring engine: exact semantic similarity in one mode.

    keys() resolves a concept's effective anchor and gives its keys;
    node() does so for a graph root and its members; score() scores two
    graph roots, and links() finds the synonymous members that a merge
    folds together.
    """

    def __init__(self, od: DomainOntology, *, mode: str = MODE_LITERAL):
        if mode not in (MODE_LITERAL, MODE_BIPARTITE):
            raise ValueError(f"unknown mode {mode!r}")
        self.od = od
        self.mode = mode

    def keys(self, c: Concept) -> _Keys:
        """The filed and probe keys of the concept, its effective anchor resolved.

        An explicit anchor counts when the ontology knows it; one it does
        not know leaves the concept unanchored, with no thesaurus lookup,
        so its term decides. Otherwise the term must anchor uniquely. (A
        component's anchors hint that the ontology does not know is another
        matter: to_ontology warns and looks the term up in the thesaurus.)
        """
        if c.anchor is not None:
            resolved = c.anchor if self.od.has_concept(c.anchor) else None
        else:
            found = anchor(c.term, self.od)
            resolved = found.concepts[0] if found.kind == ANCHOR_UNIQUE else None
        return _keys(c.kind, c.term, resolved)

    def node(self, root: Concept) -> _Node:
        """A graph root with its keys and its members' resolved."""
        return _Node(self.keys(root), [self.keys(m) for m in root.members])

    def score(self, left: _Node, right: _Node) -> PairScore:
        """Score the members of two graph roots and aggregate them.

        Two memberless roots are judged by their own keys; a memberless
        root against one with members scores zero.
        """
        if not left.probes and not right.probes:
            return PairScore(ZERO if set(left.own[1]).isdisjoint(right.own[0]) else ONE)
        if left.keys.isdisjoint(right.filed):
            return _ZERO_PAIR
        rows = []
        for probes in left.probes:
            hits = [j for key in probes for j in right.filed.get(key, ())]
            rows.append(sorted(hits) if len(hits) > 1 else hits)
        arity = max(len(left.probes), len(right.probes))
        if self.mode == MODE_LITERAL:
            value = min(sum(map(len, rows)), arity)
        else:
            value = max_matching(rows)
        cells = tuple((i, j) for i, row in enumerate(rows) for j in row)
        return PairScore(Fraction(value, arity), cells)

    def links(self, concepts: Sequence[Concept], owners: Sequence[int]) -> Iterator[tuple[int, int]]:
        """Pairs of concepts from different owners that join synonyms.

        Joining the pairs yielded gives the same classes as joining every
        pair of concepts from different owners that score one. Concepts
        that share a key are chained once per key. The concepts must be
        memberless, and those of one owner must differ in (kind, term), as
        the members of one concept do.
        """
        buckets: dict[_Key, list[int]] = {}
        for i, c in enumerate(concepts):
            for key in self.keys(c)[0]:
                buckets.setdefault(key, []).append(i)
        for (rule, kind, value), ids in buckets.items():
            if rule == _ANCHOR:
                # one anchor: every pair from two owners scores one
                joined = len({owners[i] for i in ids}) > 1
            else:
                # one term, one concept per owner: an unanchored one scores one
                # with all; bare-term buckets only repeat part of a term bucket
                joined = rule == _TERM and (_BARE, kind, value) in buckets
            if joined:
                yield from zip(ids, ids[1:])


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
