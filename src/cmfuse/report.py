"""Text and JSON rendering for matrices, alignments and merge results."""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .components import ComponentSet
from .integrate import (
    Alignment,
    CLASS_HOMONYM_CONFLICT,
    MergedComponent,
    correspondence_items,
    cross_pairs,
    detect_naming_conflicts,
    pair_class,
)
from .jsonio import dump_pieces
from .ontology import DomainOntology
from .similarity import PairScore, VERDICT_SYNONYM
from .transform import ComponentOntology

_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _verdict_text(verdict: str, color: bool) -> str:
    code = _GREEN if verdict == VERDICT_SYNONYM else _RED
    return _paint(verdict, code, color)


def render_matrix_text(
    left: ComponentOntology,
    right: ComponentOntology,
    pair: PairScore,
    *,
    color: bool = False,
) -> str:
    """A member-by-member score table with the aggregate underneath."""
    classification = pair_class(left, right, pair.aggregate)
    return _Matrices([left, right], color).text(0, 1, pair, classification)


class _Matrices:
    """The member tables of pairs of graphs, built from blocks that do not
    depend on the pair and are made once: each left graph's padded term
    column per first-column width, each right graph's columns and its
    all-zero row, and the lines under the table per aggregate and class.

    Every cell outside pair.cells reads 0, so a pair without cells is
    one join, and a pair with cells builds only its hit rows. A cell
    text wider than its column widens that column for its pair alone.
    """

    def __init__(self, graphs: Sequence[ComponentOntology], color: bool):
        self.paths = [g.path for g in graphs]
        self.terms = [[m.term for m in g.root.members] for g in graphs]
        self.widest = [max(map(len, t), default=0) for t in self.terms]
        self.color = color
        self.left: dict[tuple[int, int], list[str]] = {}
        self.right: dict[int, tuple] = {}
        self.tails: dict[tuple, str] = {}

    def text(self, i: int, j: int, pair: PairScore, classification: str) -> str:
        corner = f"{self.paths[i]} \\ {self.paths[j]}"
        first = max(len(corner), self.widest[i])
        column = self.left.get((i, first))
        if column is None:
            column = self.left[i, first] = [t.ljust(first) for t in self.terms[i]]
        right = self.right.get(j)
        if right is None:
            widths = list(map(len, self.terms[j]))
            right = self.right[j] = (widths, *_columns(self.terms[j], widths))
        widths, header, rule, zero, zeros = right
        if pair.cells:
            texts = [(row, col, str(score)) for row, col, score in pair.cells]
            if any(len(text) > widths[col] for _, col, text in texts):
                widths = widths.copy()
                for _, col, text in texts:
                    widths[col] = max(widths[col], len(text))
                header, rule, zero, zeros = _columns(self.terms[j], widths)
            ends = [zero] * len(column)
            # the cells are in row-major order
            for row, hits in groupby(texts, itemgetter(0)):
                cells = zeros.copy()
                for _, col, text in hits:
                    cells[col] = " | " + text.ljust(widths[col])
                ends[row] = "".join(cells).rstrip()
            body = "\n".join(map(str.__add__, column, ends))
        elif not column:
            body = "(no members)"
        elif zero:
            body = (zero + "\n").join(column) + zero
        else:
            # no right member: each row is its term alone
            body = "\n".join(t.rstrip() for t in column)
        score = pair.aggregate
        tail = self.tails.get((score.num, score.den, classification))
        if tail is None:
            tail = self.tails[score.num, score.den, classification] = (
                f"\n\naggregate: {score}\n"
                f"verdict:   {_verdict_text(pair.verdict, self.color)}\n"
                f"class:     {_class_text(classification, self.color)}\n"
            )
        head = (corner.ljust(first) + header).rstrip()
        return f"{head}\n{'-' * first}{rule}\n{body}{tail}"


def _columns(terms, widths) -> tuple[str, str, str, list[str]]:
    # what follows the first column in the header, the rule and an all-zero
    # row, stripped, and that row's cells
    zeros = [" | " + "0".ljust(w) for w in widths]
    return (
        "".join(f" | {term.ljust(w)}" for term, w in zip(terms, widths)),
        "".join("-+-" + "-" * w for w in widths),
        "".join(zeros).rstrip(),
        zeros,
    )


def _class_text(classification: str, color: bool) -> str:
    if classification == CLASS_HOMONYM_CONFLICT:
        return _paint(classification, _RED, color)
    return classification


def matrix_to_json(left: ComponentOntology, right: ComponentOntology, pair: PairScore) -> dict:
    rows = [["0"] * len(right.root.members) for _ in left.root.members]
    for i, j, score in pair.cells:
        rows[i][j] = str(score)
    return {
        "left": {"source": left.source, "origin": left.origin},
        "right": {"source": right.source, "origin": right.origin},
        "left_members": [m.term for m in left.root.members],
        "right_members": [m.term for m in right.root.members],
        "cells": rows,
        "aggregate": str(pair.aggregate),
        "verdict": pair.verdict,
        "class": pair_class(left, right, pair.aggregate),
    }


def _alignment_lines(alignment: Alignment, color: bool) -> Iterator[str]:
    # the lines of the alignment text, each with its newline: roots, flagged
    # conflicts, member matches and diagnostics
    sections = (
        ("correspondences", alignment.roots),
        ("naming conflicts", detect_naming_conflicts(alignment)),
    )
    for n, (title, corrs) in enumerate(sections):
        if n:
            yield "\n"
        yield title + "\n"
        for c in corrs:
            cls = _class_text(c.classification, color)
            yield f"  {cls:<18} {c.left.path} ~ {c.right.path} (score {c.score})\n"
        if not corrs:
            yield "  (none)\n"
    members = [c for c in alignment.correspondences if c.left.member is not None]
    if members:
        yield "\nmember matches\n"
        for c in members:
            yield f"  {c.left.path} ~ {c.right.path} ({c.classification})\n"
    if alignment.diagnostics:
        yield "\ndiagnostics\n"
        for d in alignment.diagnostics:
            yield f"  {d}\n"


def alignment_report_pieces(alignment: Alignment) -> Iterator[str]:
    """The JSON report of an alignment, one correspondence at a time: its
    correspondences, conflicts, flagged naming conflicts and diagnostics."""
    item = correspondence_items()
    return dump_pieces(
        {
            "correspondences": map(item, alignment.correspondences),
            "conflicts": map(item, alignment.conflicts),
            "flagged": map(item, detect_naming_conflicts(alignment)),
            "diagnostics": alignment.diagnostics,
        }
    )


def _merge_lines(merged: MergedComponent) -> Iterator[str]:
    # the lines of the report's merge section, each with its newline
    yield "merged components\n"
    for root in merged.representation.roots:
        graph = root.ontology
        origin_list = ", ".join(e.path for e in root.merged_from)
        yield f"  {graph.root.raw_label} ({graph.kind}, from {origin_list})\n"
        attrs = [m.term for m in graph.root.members if m.kind == "attribute"]
        ops = [m.term for m in graph.root.members if m.kind == "operation"]
        if attrs:
            yield f"    attributes: {', '.join(attrs)}\n"
        if ops:
            yield f"    operations: {', '.join(ops)}\n"
        if graph.provides:
            yield f"    provides: {', '.join(graph.provides)}\n"
        if graph.requires:
            yield f"    requires: {', '.join(graph.requires)}\n"
    if merged.representation.equivalences:
        yield "\nequivalences\n"
        for a, b in merged.representation.equivalences:
            yield f"  {a} == {b}\n"


def pipeline_report_pieces(
    graphs: Sequence[ComponentOntology],
    od: DomainOntology,
    alignment: Alignment,
    merged: MergedComponent,
    result: ComponentSet,
) -> Iterator[str]:
    """The full plain-text report written next to the pipeline
    artifacts, one pair matrix or one line of the alignment and merge
    sections at a time.

    The member matrices come from the pair table that align kept on the
    alignment of these graphs; nothing is scored again.
    """
    if alignment.scores is None:
        raise ValueError("the alignment carries no pair scores; pass what align returned")
    sources = Counter(g.source for g in graphs)
    yield "semantic integration report\n===========================\n\n"
    yield (
        "inputs: "
        + ", ".join(f"{name} ({count} components)" for name, count in sources.items())
        + "\n"
    )
    yield f"domain: {len(od.concepts)} concepts\n\npair similarity\n---------------\n"
    matrices = _Matrices(graphs, False)
    # align made one root correspondence per pair, in cross_pairs order
    pairs = zip(cross_pairs(graphs), alignment.scores, alignment.roots, strict=True)
    for (i, j), pair, root in pairs:
        yield "\n" + matrices.text(i, j, pair, root.classification)
    yield "\nalignment\n---------\n\n"
    yield from _trimmed(_alignment_lines(alignment, False))
    yield "\nmerge\n-----\n\n"
    yield from _trimmed(_merge_lines(merged))
    yield f"\nresult set '{result.system}': {len(result.components)} components\n"


def _trimmed(lines: Iterable[str]) -> Iterator[str]:
    # the lines with the last one's trailing newlines cut to one, as a
    # section's text reads with rstrip("\n") and one newline put back
    last = None
    for line in lines:
        if last is not None:
            yield last
        last = line
    if last is not None:
        yield last.rstrip("\n") + "\n"
