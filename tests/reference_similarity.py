"""The plain reference that the scoring engine is proven against.

These are the cell-by-cell Fraction recursion and the dense similarity
matrix that cmfuse scored with before its scoring engine existed, and
the dense member table the report rendered them with, kept unchanged so
the differential tests can compare every aggregate, every cell and
every rendered table. Nothing outside the tests uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cmfuse import (
    ANCHOR_UNIQUE,
    MODE_BIPARTITE,
    MODE_LITERAL,
    RELATION_HOMONYM,
    RELATION_SAME,
    VERDICT_NOT_SYNONYM,
    VERDICT_SYNONYM,
    ZERO,
    ComponentOntology,
    Concept,
    DomainOntology,
    Score,
    anchor,
    classify,
    relation,
)
from cmfuse.assignment import max_assignment

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class DenseMatrix:
    """Member-by-member scores of two concept graphs plus the verdict."""

    left_members: tuple[str, ...]
    right_members: tuple[str, ...]
    cells: tuple[tuple[Score, ...], ...]
    aggregate: Score
    verdict: str

    @property
    def nonzero(self) -> tuple[tuple[int, int, Score], ...]:
        """The (row, column, score) triples of the non-zero cells, row-major."""
        return tuple(
            (i, j, cell)
            for i, row in enumerate(self.cells)
            for j, cell in enumerate(row)
            if cell != ZERO
        )


def _syntactic(c1: Concept, c2: Concept) -> Fraction:
    if c1.kind != c2.kind:
        return _F0
    if c1.is_atomic and c2.is_atomic:
        return _F1 if c1.term == c2.term else _F0
    m1 = c1.members or (c1,)
    m2 = c2.members or (c2,)
    total = sum(_syntactic(a, b) for a in m1 for b in m2)
    return min(_F1, total / max(len(m1), len(m2)))


def _semantic(c1, c2, od, mode, recursive) -> Fraction:
    if c1.kind != c2.kind:
        return _F0
    a1 = _effective_anchor(c1, od)
    a2 = _effective_anchor(c2, od)
    if a1 is not None and a2 is not None:
        rel = relation(a1, a2, od)
        if rel == RELATION_SAME:
            return _F1
        if rel == RELATION_HOMONYM:
            return _F0
        if c1.is_atomic and c2.is_atomic:
            return _F0
    if recursive and not c1.is_atomic and not c2.is_atomic:
        cells = [[_semantic(a, b, od, mode, recursive) for b in c2.members] for a in c1.members]
        return _aggregate(cells, len(c1.members), len(c2.members), mode)
    return _syntactic(c1, c2)


def _effective_anchor(c: Concept, od: DomainOntology) -> str | None:
    if c.anchor is not None:
        return c.anchor if od.has_concept(c.anchor) else None
    found = anchor(c.term, od)
    if found.kind == ANCHOR_UNIQUE:
        return found.concepts[0]
    return None


def _aggregate(cells, n1: int, n2: int, mode: str) -> Fraction:
    arity = max(n1, n2)
    if mode == MODE_LITERAL:
        total = sum(value for row in cells for value in row)
        return min(_F1, total / arity)
    if mode != MODE_BIPARTITE:
        raise ValueError(f"unknown mode {mode!r}")
    value, _ = max_assignment(cells)
    return value / arity


def similarity_matrix(
    a: ComponentOntology,
    b: ComponentOntology,
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    recursive: bool = True,
) -> DenseMatrix:
    """Score every member pair of two graphs and aggregate the verdict.

    Two empty-membered graphs are judged by their roots alone; an empty
    side against a non-empty one scores zero.
    """
    m1 = a.root.members
    m2 = b.root.members
    cells = [[_semantic(x, y, od, mode, recursive) for y in m2] for x in m1]
    if m1 and m2:
        aggregate = _aggregate(cells, len(m1), len(m2), mode)
    elif not m1 and not m2:
        aggregate = _semantic(a.root, b.root, od, mode, recursive)
    else:
        aggregate = _F0
    score = Score.from_fraction(aggregate)
    return DenseMatrix(
        left_members=tuple(c.term for c in m1),
        right_members=tuple(c.term for c in m2),
        cells=tuple(tuple(Score.from_fraction(v) for v in row) for row in cells),
        aggregate=score,
        verdict=VERDICT_SYNONYM if score.is_one else VERDICT_NOT_SYNONYM,
    )


def render_matrix_text(a: ComponentOntology, b: ComponentOntology, matrix: DenseMatrix) -> str:
    """The member table as the report rendered it from a dense matrix, uncolored."""
    corner = f"{a.path} \\ {b.path}"
    headers = [corner, *matrix.right_members]
    rows = [
        [term, *(str(cell) for cell in matrix.cells[i])]
        for i, term in enumerate(matrix.left_members)
    ]
    widths = [
        max(len(str(line[col])) for line in [headers, *rows])
        for col in range(len(headers))
    ]
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    out.append("-+-".join("-" * w for w in widths))
    for row in rows:
        out.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    if not rows:
        out.append("(no members)")
    out.append("")
    out.append(f"aggregate: {matrix.aggregate}")
    out.append(f"verdict:   {matrix.verdict}")
    classification = classify(
        a.root.term == b.root.term, matrix.verdict == VERDICT_SYNONYM
    )
    out.append(f"class:     {classification}")
    return "\n".join(out) + "\n"
