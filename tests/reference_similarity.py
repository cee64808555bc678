"""The plain reference that the scoring engine is proven against.

These are the cell-by-cell rule for two atomic concepts and the dense
similarity matrix that cmfuse scored flat concept graphs with before its
scoring engine existed, and the dense member table the report rendered
them with, kept so the differential tests can compare every aggregate,
every cell and every rendered table. Nothing outside the tests uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cmfuse import (
    ANCHOR_UNIQUE,
    MODE_BIPARTITE,
    MODE_LITERAL,
    VERDICT_NOT_SYNONYM,
    VERDICT_SYNONYM,
    ZERO,
    ComponentOntology,
    Concept,
    DomainOntology,
    anchor,
    classify,
)
from cmfuse.assignment import max_assignment

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class DenseMatrix:
    """Member-by-member scores of two concept graphs plus the verdict."""

    left_members: tuple[str, ...]
    right_members: tuple[str, ...]
    cells: tuple[tuple[Fraction, ...], ...]
    aggregate: Fraction
    verdict: str

    @property
    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """The (row, column) pairs of the non-zero cells, row-major."""
        return tuple(
            (i, j)
            for i, row in enumerate(self.cells)
            for j, cell in enumerate(row)
            if cell != ZERO
        )


def cell(c1: Concept, c2: Concept, od: DomainOntology) -> Fraction:
    """Two atomic concepts: kinds must agree; two effective anchors decide
    by their equality, and otherwise the terms do."""
    if c1.kind != c2.kind:
        return _F0
    a1 = _effective_anchor(c1, od)
    a2 = _effective_anchor(c2, od)
    if a1 is not None and a2 is not None:
        return _F1 if a1 == a2 else _F0
    return _F1 if c1.term == c2.term else _F0


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


def semantic(c1: Concept, c2: Concept, od: DomainOntology, mode: str = MODE_LITERAL) -> Fraction:
    """The aggregate of two roots, or the cell of two memberless concepts."""
    return _dense(c1, c2, od, mode)[1]


def _dense(c1: Concept, c2: Concept, od: DomainOntology, mode: str):
    # every member cell, and the aggregate: two memberless concepts are
    # judged as atomic ones, and an empty side against a non-empty one is 0
    m1, m2 = c1.members, c2.members
    cells = [[cell(x, y, od) for y in m2] for x in m1]
    if m1 and m2:
        return cells, _aggregate(cells, len(m1), len(m2), mode)
    if not m1 and not m2:
        return cells, cell(c1, c2, od)
    return cells, _F0


def similarity_matrix(
    a: ComponentOntology, b: ComponentOntology, od: DomainOntology, *, mode: str = MODE_LITERAL
) -> DenseMatrix:
    """Score every member pair of two graphs and aggregate the verdict."""
    cells, aggregate = _dense(a.root, b.root, od, mode)
    return DenseMatrix(
        left_members=tuple(c.term for c in a.root.members),
        right_members=tuple(c.term for c in b.root.members),
        cells=tuple(tuple(row) for row in cells),
        aggregate=aggregate,
        verdict=VERDICT_SYNONYM if aggregate == 1 else VERDICT_NOT_SYNONYM,
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
