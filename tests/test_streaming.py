"""The quadratic artifacts are written as they are produced: the files
equal the strings the API returns, and writing the report holds only a
small part of it in memory at once."""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

from cmfuse import (
    MODE_BIPARTITE,
    MODE_LITERAL,
    ComponentSet,
    align,
    check_layering,
    load_domain_ontology,
    merge,
    parse_component_set,
    serialize_alignment,
    serialize_component_set,
    serialize_domain_ontology,
    to_ontology,
    union,
)
from cmfuse.cli import _write, main
from cmfuse.report import pipeline_report_pieces

from helpers import component, quick_ontology, random_domain, random_source_pair


def _pipeline(set_a: ComponentSet, set_b: ComponentSet, od, mode: str):
    """What pipeline computes, through the public API."""
    merged_set = union(set_a, set_b)
    diagnostics = list(check_layering(merged_set))
    graphs = [to_ontology(c, od, diagnostics=diagnostics) for c in merged_set.components]
    alignment = align(graphs, od, mode=mode, diagnostics=diagnostics)
    merged = merge(alignment, graphs, od, mode=mode)
    result = ComponentSet(f"{set_a.system}+{set_b.system}", merged.result)
    return graphs, alignment, merged, result


def test_written_artifacts_equal_the_api_strings(tmp_path):
    rng = random.Random(9009)
    for case in range(100):
        od, pool = random_domain(rng)
        set_a, set_b = random_source_pair(rng, pool)
        paths = [tmp_path / name for name in ("a.json", "b.json", "domain.json")]
        texts = (serialize_component_set(set_a), serialize_component_set(set_b),
                 serialize_domain_ontology(od))
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        # what the command reads, not the objects the files were made from
        set_a, set_b = (parse_component_set(text) for text in texts[:2])
        od = load_domain_ontology(texts[2])
        inputs = [str(paths[0]), str(paths[1]), "--domain", str(paths[2])]
        for mode in (MODE_LITERAL, MODE_BIPARTITE):
            graphs, alignment, merged, result = _pipeline(set_a, set_b, od, mode)
            document = serialize_alignment(alignment, graphs, od, mode=mode).encode("utf-8")
            for command in ("align", "pipeline"):
                out = tmp_path / f"{case}-{mode}-{command}"
                assert main([command, *inputs, "-o", str(out), "--mode", mode]) == 0
                assert (out / "alignment.json").read_bytes() == document, (case, mode, command)
            report = "".join(pipeline_report_pieces(graphs, od, alignment, merged, result))
            assert (out / "report.txt").read_bytes() == report.encode("utf-8"), (case, mode)


def test_writing_the_report_holds_a_small_part_of_it(tmp_path):
    rng = random.Random(4040)
    od = quick_ontology({f"K{k}": [f"t{k}", f"u{k}"] for k in range(12)})
    terms = [f"{stem}{k}" for stem in "tuv" for k in range(12)]
    sets = []
    for system in ("A", "B"):
        members = [rng.sample(terms, 8) for _ in range(40)]
        components = [
            component(f"{system}c{n}", attrs=m[:5], ops=m[5:], source=system)
            for n, m in enumerate(members)
        ]
        sets.append(ComponentSet(system, tuple(components)))
    tracemalloc.start()
    try:
        graphs, alignment, merged, result = _pipeline(*sets, od, MODE_LITERAL)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pieces = pipeline_report_pieces(graphs, od, alignment, merged, result)
        target = _write(tmp_path, "report.txt", pieces)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert len(alignment.roots) == 1600
    assert extra < size / 4, f"{extra} bytes traced while writing {size}"


def test_a_section_ends_in_one_newline(library_graphs, library_ontology):
    # the alignment section's text loses its trailing newlines, and the
    # report puts one back, also when the last line ends in newlines
    alignment = align(library_graphs, library_ontology)
    merged = merge(alignment, library_graphs, library_ontology)
    odd = replace(alignment, diagnostics=("odd\n\n",))
    report = "".join(
        pipeline_report_pieces(
            library_graphs, library_ontology, odd, merged, ComponentSet("S", merged.result)
        )
    )
    assert "\ndiagnostics\n  odd\n\nmerge\n-----\n\n" in report
