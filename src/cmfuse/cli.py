"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure,
3 conflicts detected under --fail-on-conflict. Output files are written
deterministically; ANSI color on stdout is opt-in via CMFUSE_COLOR=1 and
never reaches files.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import re
import sys
from functools import partial
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .components import (
    ComponentSet,
    check_layering,
    component_set_from_json,
    parse_component_set,
    serialize_component_set,
    union,
)
from .errors import IntegrationError
from .integrate import (
    Alignment,
    AlignmentDocument,
    CLASS_HOMONYM_CONFLICT,
    MergedComponent,
    _free,
    _stream_alignment,
    _streamed,
    align,
    alignment_from_json,
    alignment_pieces,
    merge,
    pair_class,
    representation_from_json,
    representation_pieces,
)
from .jsonio import dump_json, load_json
from .ontology import DomainOntology, domain_ontology_from_json, load_domain_ontology
from .similarity import MODE_BIPARTITE, MODE_LITERAL, similarity_matrix
from .transform import (
    ComponentOntology,
    component_ontology_from_json,
    parse_component_ontology,
    serialize_component_ontology,
    to_ontology,
)

# report is imported by the commands that render (sim, report and
# pipeline), so that the others never compile it

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONFLICT = 3


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for input errors; argparse
    # defaults to 2 for usage, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_similarity_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--mode",
        choices=[MODE_LITERAL, MODE_BIPARTITE],
        default=MODE_LITERAL,
        help="member aggregation: literal sum or best one-to-one matching",
    )
    parser.add_argument(
        "--fail-on-conflict",
        action="store_true",
        help="exit with status 3 when a homonym conflict is detected",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmfuse", description="Semantic integration of business component models.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("validate", help="parse documents and report every violation")
    p.add_argument("files", nargs="+", metavar="file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transform", help="write the concept graph of every component")
    p.add_argument("set", metavar="component-set")
    p.add_argument("--domain", required=True, metavar="ontology")
    p.add_argument("-o", "--out", required=True, metavar="dir")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("sim", help="compare two concept graphs")
    p.add_argument("left", metavar="graphA")
    p.add_argument("right", metavar="graphB")
    p.add_argument("--domain", required=True, metavar="ontology")
    _add_similarity_flags(p)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("align", help="score and classify every cross-source pair")
    p.add_argument("seta", metavar="component-setA")
    p.add_argument("setb", metavar="component-setB")
    p.add_argument("--domain", required=True, metavar="ontology")
    p.add_argument("-o", "--out", required=True, metavar="dir")
    _add_similarity_flags(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("merge", help="fold an alignment into a result component set")
    p.add_argument("alignment", metavar="alignment.json")
    p.add_argument("-o", "--out", required=True, metavar="dir")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("report", help="print an alignment document")
    p.add_argument("alignment", metavar="alignment.json")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="align, merge and report in one run")
    p.add_argument("seta", metavar="component-setA")
    p.add_argument("setb", metavar="component-setB")
    p.add_argument("--domain", required=True, metavar="ontology")
    p.add_argument("-o", "--out", required=True, metavar="dir")
    _add_similarity_flags(p)
    p.set_defaults(func=cmd_pipeline)
    return parser


def entry_point() -> int:
    """Run the command in sys.argv as a process of its own: python -m
    cmfuse and the cmfuse script start here.

    The cyclic GC stays off, since a command builds no cycles, and the
    heap is frozen before exit, so that neither the command nor the
    interpreter's teardown walks it. main() leaves the GC as it finds
    it, so a program that calls it keeps its own GC state.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except IntegrationError as exc:
        for line in str(exc).splitlines():
            print(f"cmfuse: error: {line}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader of stdout stopped reading, as `| head` does: stop too,
        # and send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def _color_enabled() -> bool:
    return os.environ.get("CMFUSE_COLOR") == "1"


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IntegrationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise IntegrationError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _matched(path: str) -> AlignmentDocument | str:
    """The alignment document at path when the matcher accepts it, or else
    the text to decode. Each input is matched once: a regular file in
    chunks, and read whole only when the matcher rejects it; any other
    file, such as a pipe, cannot be read twice, so it is read whole and
    its text matched. A path that cannot be read is left to _read."""
    if os.path.isfile(path):
        return _stream_alignment(path) or _read(path)
    text = _read(path)
    return _streamed((text,), path) or text


def _load_alignment(path: str) -> AlignmentDocument:
    found = _matched(path)
    if isinstance(found, str):
        return alignment_from_json(load_json(found, path), source=path)
    return found


def _check_out(out: Path, first: str) -> None:
    """Fail before any input is read when out cannot take the artifacts:
    out must be a directory, or missing below a writable directory. The
    error names first, the artifact a command writes first. Creates nothing."""
    existing = out
    while not os.path.exists(existing) and existing != existing.parent:
        existing = existing.parent
    if not os.path.isdir(existing):
        code = errno.ENOTDIR
    elif existing != out and not os.access(existing, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise IntegrationError(f"{out / first}: cannot write: {os.strerror(code)}")


def _write(directory: Path, name: str, pieces: Iterable[str]) -> Path:
    """Write the text pieces to directory/name as they come."""
    target = directory / name
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as file:
            file.writelines(pieces)
    except OSError as exc:
        raise IntegrationError(f"{target}: cannot write: {exc.strerror or exc}") from None
    return target


def _load_domain(path: str) -> DomainOntology:
    return load_domain_ontology(_read(path), source=path)


def _load_set(path: str) -> ComponentSet:
    return parse_component_set(_read(path), source=path)


def _slug(text: str) -> str:
    return re.sub(r"[^\w.()-]+", "_", text, flags=re.UNICODE)


# each document shape: the keys that mark it (shapes are tried in this order),
# its kind, its reader, and the attribute paths whose sizes its ok: line
# gives, each named by its last part
_ALIGNMENT_SHAPE = (
    ("correspondences",), "alignment", alignment_from_json, ["alignment.correspondences", "graphs"]
)
_SHAPES = (
    (("system", "components"), "component set", component_set_from_json, ["components"]),
    (("concepts", "thesaurus"), "ontology", domain_ontology_from_json, ["concepts"]),
    (("root",), "concept graph", partial(component_ontology_from_json, where=""), ["root.members"]),
    _ALIGNMENT_SHAPE,
    (("roots",), "representation", representation_from_json, ["roots", "equivalences"]),
)


def _validated(path: str) -> tuple[object, str, list[str]]:
    # the document at path, with its kind and counted attribute paths; an
    # alignment is matched once, as _load_alignment matches it
    found = _matched(path)
    if not isinstance(found, str):
        _, kind, _, counted = _ALIGNMENT_SHAPE
        return found, kind, counted
    data = load_json(found, path)
    for markers, kind, read, counted in _SHAPES:
        if isinstance(data, dict) and any(key in data for key in markers):
            return read(data, source=path), kind, counted
    raise IntegrationError(f"{path}: unrecognized document shape")


def cmd_validate(args) -> int:
    """Parse every input once; diagnostics carry the file and position."""
    failed = False
    for path in args.files:
        try:
            document, kind, counted = _validated(path)
            if isinstance(document, ComponentSet):
                for warning in check_layering(document):
                    print(f"warning: {path}: {warning}")
            counts = (f"{len(attrgetter(part)(document))} {part.split('.')[-1]}" for part in counted)
            print(f"ok: {path}: {kind}, {', '.join(counts)}")
        except IntegrationError as exc:
            for line in str(exc).splitlines():
                print(f"error: {line}")
            failed = True
    return EXIT_INPUT if failed else EXIT_OK


def cmd_transform(args) -> int:
    out = Path(args.out)
    _check_out(out, "*.ocm.json")
    domain = _load_domain(args.domain)
    cs = _load_set(args.set)
    diagnostics: list[str] = []
    written: set[str] = set()
    for component in cs.components:
        graph = to_ontology(component, domain, diagnostics=diagnostics)
        name = f"{_slug(graph.source)}.{_slug(graph.origin)}"
        # numbered when this run wrote the name already, up to case, so no
        # graph overwrites another, also on a case-insensitive filesystem
        name = _free(name, lambda n: n.casefold() in written)
        written.add(name.casefold())
        print(_write(out, f"{name}.ocm.json", (serialize_component_ontology(graph),)))
    for d in diagnostics:
        print(f"warning: {d}", file=sys.stderr)
    return EXIT_OK


def cmd_sim(args) -> int:
    from .report import matrix_to_json, render_matrix_text

    domain = _load_domain(args.domain)
    left = parse_component_ontology(_read(args.left), source=args.left)
    right = parse_component_ontology(_read(args.right), source=args.right)
    pair = similarity_matrix(left, right, domain, mode=args.mode)
    if args.format == "json":
        print(dump_json(matrix_to_json(left, right, pair)), end="")
    else:
        print(render_matrix_text(left, right, pair, color=_color_enabled()), end="")
    if args.fail_on_conflict and pair_class(left, right, pair.aggregate) == CLASS_HOMONYM_CONFLICT:
        return EXIT_CONFLICT
    return EXIT_OK


def _aligned_graphs(args) -> tuple[list[ComponentOntology], DomainOntology, Alignment]:
    domain = _load_domain(args.domain)
    merged_set = union(_load_set(args.seta), _load_set(args.setb))
    diagnostics = list(check_layering(merged_set))
    graphs = [
        to_ontology(component, domain, diagnostics=diagnostics)
        for component in merged_set.components
    ]
    alignment = align(graphs, domain, mode=args.mode, diagnostics=diagnostics)
    return graphs, domain, alignment


def _conflict_exit(alignment: Alignment, args) -> int:
    flagged = alignment.conflicts
    if flagged:
        print(f"{len(flagged)} homonym conflict(s) detected", file=sys.stderr)
        if args.fail_on_conflict:
            return EXIT_CONFLICT
    return EXIT_OK


def cmd_align(args) -> int:
    out = Path(args.out)
    _check_out(out, "alignment.json")
    graphs, domain, alignment = _aligned_graphs(args)
    print(_write(out, "alignment.json", alignment_pieces(alignment, graphs, domain)))
    return _conflict_exit(alignment, args)


def cmd_merge(args) -> int:
    out = Path(args.out)
    _check_out(out, "ocm_r.json")
    doc = _load_alignment(args.alignment)
    merged = merge(doc.alignment, doc.graphs, doc.domain)
    _write_merge(out, doc.graphs, merged)
    return EXIT_OK


def _write_merge(out: Path, graphs, merged: MergedComponent) -> ComponentSet:
    """Write ocm_r.json, then cm_r.json, the result set named after the
    graphs' sources; return that set."""
    system = "+".join(dict.fromkeys(g.source for g in graphs)) or "empty"
    result = ComponentSet(system=system, components=merged.result)
    print(_write(out, "ocm_r.json", representation_pieces(merged.representation)))
    print(_write(out, "cm_r.json", (serialize_component_set(result),)))
    return result


def cmd_report(args) -> int:
    from .report import _alignment_lines, alignment_report_pieces

    doc = _load_alignment(args.alignment)
    if args.format == "json":
        _print_blocks(alignment_report_pieces(doc.alignment))
    else:
        _print_blocks(_alignment_lines(doc.alignment, _color_enabled()))
    return EXIT_OK


_BLOCK = 2048  # pieces that _print_blocks joins into one write


def _print_blocks(pieces: Iterable[str]) -> None:
    # under PYTHONUNBUFFERED=1 stdout writes through to the file, one
    # write(2) per call, so the pieces go out joined in blocks
    pieces = iter(pieces)
    while block := list(islice(pieces, _BLOCK)):
        sys.stdout.write("".join(block))


def cmd_pipeline(args) -> int:
    """Transform, align, merge and report in one deterministic run."""
    from .report import pipeline_report_pieces

    out = Path(args.out)
    _check_out(out, "alignment.json")
    graphs, domain, alignment = _aligned_graphs(args)
    merged = merge(alignment, graphs, domain)
    print(_write(out, "alignment.json", alignment_pieces(alignment, graphs, domain)))
    result = _write_merge(out, graphs, merged)
    report = pipeline_report_pieces(graphs, domain, alignment, merged, result)
    print(_write(out, "report.txt", report))
    return _conflict_exit(alignment, args)


if __name__ == "__main__":
    sys.exit(entry_point())
