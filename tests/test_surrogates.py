"""Strings that hold a lone surrogate are rejected when a document is read.

JSON may spell a surrogate with a \\u escape. The decoder pairs the two
halves of an astral character, so a surrogate left in a decoded string
stands alone, and no UTF-8 output can hold it. Every reader reports it
as ``<file>: <json path>: must not hold a lone surrogate (U+D800)``,
before any artifact is written, and every command exits 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmfuse
from cmfuse import (
    DocumentError,
    align,
    load_domain_ontology,
    parse_alignment,
    parse_component_ontology,
    parse_component_set,
    parse_representation,
    serialize_alignment,
)
from cmfuse.cli import main
from cmfuse.integrate import _stream_alignment

from conftest import FIXTURES, read_fixture
from test_diagnostics import ALIGNMENT, COMPONENT, GRAPH, ONTOLOGY, ROOT, SET, edit

BAD = "Lecteur\ud800"
MESSAGE = "must not hold a lone surrogate (U+D800)"


def at(path: str) -> str:
    return f"{path}: {MESSAGE}"


# one row per document shape and string position: the document, its
# reader, and the diagnostic
ROWS = [
    ("set-name", edit(SET, components=[edit(COMPONENT, name=BAD)]), parse_component_set,
     at("components[0].name")),
    ("set-system", edit(SET, system=BAD), parse_component_set, at("system")),
    ("set-param", edit(SET, components=[edit(COMPONENT, operations=[{"name": "f", "params": [BAD]}])]),
     parse_component_set, at("components[0].operations[0].params[0]")),
    ("set-interface", edit(SET, components=[edit(COMPONENT, provides=[BAD])]), parse_component_set,
     at("components[0].provides[0]")),
    ("set-anchor-key", edit(SET, components=[edit(COMPONENT, anchors={BAD: "PERSON"})]),
     parse_component_set, f"components[0].anchors['{BAD}']: key {MESSAGE}"),
    ("ontology-label", edit(ONTOLOGY, concepts=[{"id": "PERSON", "label": BAD}]),
     load_domain_ontology, at("concepts[0].label")),
    ("ontology-term", edit(ONTOLOGY, thesaurus=[{"concept": "PERSON", "terms": [BAD]}]),
     load_domain_ontology, at("thesaurus[0].terms[0]")),
    ("graph-origin", edit(GRAPH, origin=BAD), parse_component_ontology, at("origin")),
    ("graph-term", edit(GRAPH, root=edit(ROOT, term=BAD)), parse_component_ontology, at("root.term")),
    ("graph-definition", edit(GRAPH, root=edit(ROOT, definitions=[BAD])), parse_component_ontology,
     at("root.definitions[0]")),
    ("alignment-endpoint", edit(ALIGNMENT, correspondences=[
        {**ALIGNMENT["correspondences"][0], "left": {"source": "A", "origin": BAD, "member": None}}
    ]), parse_alignment, at("correspondences[0].left.origin")),
    ("alignment-member", edit(ALIGNMENT, correspondences=[
        {**ALIGNMENT["correspondences"][0], "left": {"source": "A", "origin": "L", "member": BAD}}
    ]), parse_alignment, at("correspondences[0].left.member")),
    ("alignment-diagnostic", edit(ALIGNMENT, diagnostics=[BAD]), parse_alignment, at("diagnostics[0]")),
    ("alignment-graph", edit(ALIGNMENT, ontologies=[edit(GRAPH, source=BAD)]), parse_alignment,
     at("ontologies[0].source")),
    ("alignment-domain", edit(ALIGNMENT, domain=edit(ONTOLOGY, concepts=[{"id": BAD, "label": "x"}])),
     parse_alignment, at("domain: concepts[0].id")),
    ("representation-merged-from", {"roots": [{**GRAPH, "merged_from": [f"A/{BAD}"]}], "equivalences": []},
     parse_representation, at("roots[0].merged_from[0]")),
    ("representation-equivalence", {"roots": [], "equivalences": [["A/x", BAD]]}, parse_representation,
     at("equivalences[0][1]")),
    ("representation-graph", {"roots": [{**edit(GRAPH, origin=BAD), "merged_from": ["A/x"]}],
                              "equivalences": []},
     parse_representation, at("roots[0].origin")),
]


def _escaped(document) -> str:
    # json.dumps writes the surrogate as its \u escape
    return json.dumps(document)


@pytest.mark.parametrize("document,reader,diagnostic", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_every_reader_rejects_a_lone_surrogate(document, reader, diagnostic):
    text = _escaped(document)
    assert "\\ud800" in text
    with pytest.raises(DocumentError) as err:
        reader(text, source="doc.json")
    assert err.value.diagnostics == [diagnostic]
    str(err.value).encode("utf-8")


@pytest.mark.parametrize("document,diagnostic", [(r[1], r[3]) for r in ROWS], ids=[r[0] for r in ROWS])
def test_validate_reports_a_lone_surrogate(document, diagnostic, tmp_path, capsys):
    file = tmp_path / "doc.json"
    file.write_text(_escaped(document), encoding="utf-8")
    assert main(["validate", str(file)]) == 2
    # a quoted surrogate prints as its escape
    printed = diagnostic.encode("utf-8", "backslashreplace").decode("utf-8")
    assert capsys.readouterr().out == f"error: {file}: {printed}\n"


def test_a_surrogate_pair_is_one_character_and_is_read():
    # the escapes of an astral character decode to that character
    document = edit(SET, components=[edit(COMPONENT, name="Lecteur\U0001F600")])
    text = _escaped(document)
    assert "\\ud83d\\ude00" in text
    assert parse_component_set(text).components[0].name == "Lecteur\U0001F600"


def test_a_quoted_key_prints_as_its_escape(tmp_path, capsys):
    # an unknown key is quoted in its diagnostic; the message escapes it
    file = tmp_path / "doc.json"
    file.write_text(_escaped({**SET, BAD: 1}), encoding="utf-8")
    assert main(["validate", str(file)]) == 2
    assert capsys.readouterr().out == f"error: {file}: unknown key 'Lecteur\\ud800'\n"


def _cmfuse(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cmfuse", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(cmfuse.__file__).parent.parent)),
    )


def test_no_command_writes_a_lone_surrogate(tmp_path):
    # a component name spelled with the escape, in the library fixture
    text = read_fixture("biblio1.json").replace('"Personne"', '"Personne\\ud800"', 1)
    assert text != read_fixture("biblio1.json")
    bad = tmp_path / "biblio1.json"
    bad.write_text(text, encoding="utf-8")
    domain, other = str(FIXTURES / "library_ontology.json"), str(FIXTURES / "biblio2.json")
    expected = f"{bad}: {at('components[0].name')}"
    runs = {
        "validate": (["validate", str(bad)], f"error: {expected}\n", ""),
        "transform": (["transform", str(bad), "--domain", domain], "", f"cmfuse: error: {expected}\n"),
        "align": (["align", str(bad), other, "--domain", domain], "", f"cmfuse: error: {expected}\n"),
        "pipeline": (["pipeline", str(bad), other, "--domain", domain], "", f"cmfuse: error: {expected}\n"),
    }
    for command, (argv, out, err) in runs.items():
        target = tmp_path / command
        if command != "validate":
            argv += ["-o", str(target)]
        proc = _cmfuse(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, err), command
        assert not target.exists(), command


def test_the_streamed_reader_leaves_a_surrogate_to_parse_alignment(
    library_graphs, library_ontology, tmp_path
):
    # in the writer's own layout, which the streamed reader reads: an
    # endpoint of the correspondence list, and a graph after it
    alignment = align(library_graphs, library_ontology)
    text = serialize_alignment(alignment, library_graphs, library_ontology)
    good = tmp_path / "good.json"
    good.write_text(text, encoding="utf-8")
    assert _stream_alignment(str(good)).alignment == alignment
    first = text.index('"origin": ') + len('"origin": "')
    cases = {
        "correspondences[0].left.origin": text[:first] + "\\ud800" + text[first:],
        "ontologies[0].root.raw_label": text.replace(
            '"raw_label": "', '"raw_label": "\\ud800', 1
        ),
    }
    for path, bad in cases.items():
        file = tmp_path / "alignment.json"
        file.write_text(bad, encoding="utf-8")
        assert _stream_alignment(str(file)) is None
        with pytest.raises(DocumentError) as err:
            parse_alignment(bad, source=str(file))
        assert err.value.diagnostics == [at(path)]
        error = f"{file}: {at(path)}\n"
        runs = {
            "merge": (["merge", str(file), "-o", str(tmp_path / "out")], "", "cmfuse: error: " + error),
            "report": (["report", str(file)], "", "cmfuse: error: " + error),
            "validate": (["validate", str(file)], "error: " + error, ""),
        }
        for command, (argv, out, err) in runs.items():
            proc = _cmfuse(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, err), command
        assert not (tmp_path / "out").exists()
