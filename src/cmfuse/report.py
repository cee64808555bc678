"""Text and JSON rendering for matrices, alignments and merge results."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from .components import ComponentSet
from .integrate import (
    Alignment,
    CLASS_HOMONYM_CONFLICT,
    MergedComponent,
    _correspondence_lists,
    correspondence_to_json,
    cross_pairs,
    detect_naming_conflicts,
    pair_class,
)
from .jsonio import dump_json
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
    terms = ([m.term for m in left.root.members], [m.term for m in right.root.members])
    return _matrix_text(left, right, terms, pair, color)


def _matrix_text(left, right, terms, pair: PairScore, color: bool, columns=None) -> str:
    # terms holds the left and right member terms; every cell outside
    # pair.cells reads 0, so rows without a hit share one rendering.
    # columns may hold _columns of the right terms at their own widths,
    # which a pair without cells uses
    left_terms, right_terms = terms
    corner = f"{left.path} \\ {right.path}"
    first = max([len(corner), *map(len, left_terms)])
    rows: dict[int, str] = {}
    if columns is None or pair.cells:
        widths = [len(term) for term in right_terms]
        texts = [(i, j, str(score)) for i, j, score in pair.cells]
        for _, j, text in texts:
            widths[j] = max(widths[j], len(text))
        columns = _columns(right_terms, widths)
        hits: dict[int, list[str]] = {}
        for i, j, text in texts:
            hits.setdefault(i, ["0".ljust(w) for w in widths])[j] = text.ljust(widths[j])
        rows = {i: "".join(" | " + cell for cell in row) for i, row in hits.items()}
    header, rule, blank = columns
    out = [(corner.ljust(first) + header).rstrip(), "-" * first + rule]
    out += [(term.ljust(first) + rows.get(i, blank)).rstrip() for i, term in enumerate(left_terms)]
    if not left_terms:
        out.append("(no members)")
    out.append("")
    out.append(f"aggregate: {pair.aggregate}")
    out.append(f"verdict:   {_verdict_text(pair.verdict, color)}")
    out.append(f"class:     {_class_text(pair_class(left, right, pair.aggregate), color)}")
    return "\n".join(out) + "\n"


def _columns(terms, widths) -> tuple[str, str, str]:
    # what follows the first column in the header, the rule and an all-zero row
    return (
        "".join(f" | {term.ljust(w)}" for term, w in zip(terms, widths)),
        "".join("-+-" + "-" * w for w in widths),
        "".join(" | " + "0".ljust(w) for w in widths),
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


def alignment_report_json(alignment: Alignment) -> dict:
    return {
        "correspondences": [correspondence_to_json(c) for c in alignment.correspondences],
        "conflicts": [correspondence_to_json(c) for c in alignment.conflicts],
        "flagged": [correspondence_to_json(c) for c in detect_naming_conflicts(alignment)],
        "diagnostics": list(alignment.diagnostics),
    }


def alignment_report_pieces(alignment: Alignment) -> Iterator[str]:
    """The text of dump_json(alignment_report_json(alignment)), one
    correspondence at a time."""
    yield from _correspondence_lists(
        {
            "correspondences": alignment.correspondences,
            "conflicts": alignment.conflicts,
            "flagged": detect_naming_conflicts(alignment),
        }
    )
    yield ",\n" + dump_json({"diagnostics": list(alignment.diagnostics)})[len("{\n") :]


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


def render_pipeline_report(
    graphs: Sequence[ComponentOntology],
    od: DomainOntology,
    alignment: Alignment,
    merged: MergedComponent,
    result: ComponentSet,
) -> str:
    """The full plain-text report written next to the pipeline artifacts,
    joined from pipeline_report_pieces."""
    return "".join(pipeline_report_pieces(graphs, od, alignment, merged, result))


def pipeline_report_pieces(
    graphs: Sequence[ComponentOntology],
    od: DomainOntology,
    alignment: Alignment,
    merged: MergedComponent,
    result: ComponentSet,
) -> Iterator[str]:
    """The text of render_pipeline_report, one pair matrix or one line
    of the alignment and merge sections at a time.

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
    terms = [tuple(m.term for m in g.root.members) for g in graphs]
    # most pairs have no cell, and each graph is the right side of many
    columns = [_columns(t, list(map(len, t))) for t in terms]
    for (i, j), pair in zip(cross_pairs(graphs), alignment.scores, strict=True):
        text = _matrix_text(graphs[i], graphs[j], (terms[i], terms[j]), pair, False, columns[j])
        yield "\n" + text
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
