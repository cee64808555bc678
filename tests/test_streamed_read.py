"""The streamed alignment reader against its plain reference.

merge, report and validate read the correspondence list of a file laid
out as cmfuse writes it in chunks, a batch of items at a time, split at
the writer's own separators; the reference is the spec walker on the decoded text, which
is what they fall back to at the first surprise. The streamed reader
must give the same document, or give up, on every text; the report's
JSON writer must give dump_json of the report's JSON tree.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import cmfuse
from cmfuse import (
    Alignment,
    Correspondence,
    DocumentError,
    Endpoint,
    IntegrationError,
    align,
    serialize_alignment,
    serialize_domain_ontology,
)
from cmfuse import integrate
from cmfuse.cli import _load_alignment, _read, main
from cmfuse.integrate import CLASS_DISTINCT, CLASSIFICATIONS, _stream_alignment, alignment_from_json
from cmfuse.jsonio import load_json
from cmfuse.report import alignment_report_pieces

from helpers import EMPTY_ONTOLOGY, alignment_report_json, reference_dump_json
from test_fast_io import _random_alignment


def _summary(doc) -> tuple:
    # AlignmentDocument compares its domain by identity
    domain = serialize_domain_ontology(doc.domain)
    return doc.alignment, doc.graphs, domain


def _reference(path: str):
    try:
        return _summary(alignment_from_json(load_json(_read(path), path), source=path))
    except DocumentError as exc:
        return exc.source, exc.diagnostics
    except IntegrationError as exc:
        return str(exc)


def _one_endpoint_per_triple(doc) -> bool:
    ends = [e for c in doc.alignment.correspondences for e in (c.left, c.right)]
    return len({id(e) for e in ends}) == len(set(ends))


def _documents(rng: random.Random, library_graphs, library_ontology) -> list[str]:
    library = serialize_alignment(align(library_graphs, library_ontology), library_graphs, library_ontology)
    texts = [library]
    for _ in range(40):
        graphs, od = rng.choice([(library_graphs, library_ontology), ([], EMPTY_ONTOLOGY)])
        alignment = _random_alignment(rng)._replace(mode=rng.choice(["literal", "bipartite"]))
        texts.append(serialize_alignment(alignment, graphs, od))
    return texts


def _escaped(rng: random.Random, text: str) -> str:
    # one non-ASCII character written as its escape: an endpoint text
    # that decodes like another
    spots = [i for i, ch in enumerate(text) if ord(ch) > 127 and ord(ch) < 0x10000]
    if not spots:
        return text
    i = rng.choice(spots)
    return text[:i] + f"\\u{ord(text[i]):04x}" + text[i + 1 :]


def _mutated(rng: random.Random, text: str) -> bytes:
    data = text.encode("utf-8")
    action = rng.randrange(12)
    at = rng.randrange(len(data) + 1)
    if action == 0:  # a flipped byte, which may break the UTF-8
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1 :]
    if action == 1:  # an inserted character
        piece = rng.choice(["{", "}", "[", "]", '"', ",", " ", "\n", "\\", "a", "0", "é", ":"])
        return data[:at] + piece.encode("utf-8") + data[at:]
    if action == 2:  # deleted characters
        return data[:at] + data[at + rng.randrange(1, 4) :]
    if action == 3:  # cut short
        return data[:at]
    if action == 4:  # another layout of the same document
        indent = rng.choice([None, 1, 2, 4])
        return json.dumps(json.loads(text), indent=indent, ensure_ascii=rng.random() < 0.5).encode()
    if action == 5:  # escaped strings in the same layout
        for _ in range(rng.randrange(1, 4)):
            text = _escaped(rng, text)
        return text.encode("utf-8")
    if action == 6:  # a second correspondence list
        second = rng.choice(['"correspondences": []', '"correspondences": [1]'])
        return text[: -len("\n}\n")].encode() + f",\n  {second}\n}}\n".encode()
    if action == 7:  # trailing data, or trailing space
        return data + rng.choice([b"x", b"{}", b"\n\n", b" ", b"]"])
    if action == 8:  # bytes that are not UTF-8, also where the file ends
        at = rng.choice([at, len(data)])
        return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]) + data[at:]
    if action == 9:  # another line ending
        return text.replace("\n", rng.choice(["\r\n", "\r"])).encode()
    if action == 10:  # a score, class or endpoint field changed
        old, new = rng.choice(
            [('"score": "1"', '"score": "2/2"'), ('"score": "0"', '"score": 0'),
             ('"class": "distinct"', '"class": "Distinct"'), ('"class": "equivalent"', '"class": "synonym"'),
             ('"member": null', '"member": 1'),
             ('"class": "distinct"', '"class": "\\u0064istinct"'), ('"source": "', '"source": "" "'),
             ('"member": null', '"member": ""'), ('"left": {', '"left": null, "x": {')]
        )
        return text.replace(old, new, rng.choice([1, -1])).encode("utf-8")
    return data  # as written


def test_streamed_reads_equal_the_whole_text_reads(library_graphs, library_ontology, tmp_path):
    rng = random.Random(11011)
    texts = _documents(rng, library_graphs, library_ontology)
    path = tmp_path / "alignment.json"
    streamed = fallbacks = errors = 0
    for case in range(2400):
        base = rng.choice(texts)
        data = _mutated(rng, base)
        path.write_bytes(data)
        expected = _reference(str(path))
        doc = _stream_alignment(str(path))
        if doc is None:
            # the commands read the whole text then; the layout cmfuse
            # writes is always streamed
            fallbacks += 1
            assert data != base.encode("utf-8"), case
        else:
            streamed += 1
            assert _summary(doc) == expected, (case, data[:2000])
            assert _one_endpoint_per_triple(doc), (case, data[:2000])
        errors += not isinstance(expected[0], Alignment)
    # both paths, and both outcomes, occur often enough to mean something
    assert streamed >= 500 and fallbacks >= 500 and 500 <= errors <= 2000


def test_one_endpoint_for_an_escaped_and_a_plain_text(tmp_path):
    corrs = tuple(
        Correspondence(Endpoint("S1", "é"), Endpoint("S2", origin), Fraction(0), CLASS_DISTINCT)
        for origin in ("x", "y")
    )
    text = serialize_alignment(Alignment(corrs), [], EMPTY_ONTOLOGY)
    first = text.index('"é"')
    path = tmp_path / "alignment.json"
    path.write_text(text[:first] + '"\\u00e9"' + text[first + 3 :], encoding="utf-8")
    doc = _stream_alignment(str(path))
    assert doc is not None
    left = [c.left for c in doc.alignment.correspondences]
    assert left[0] is left[1] and left[0] == Endpoint("S1", "é")


def test_a_pipe_is_read_once(library_graphs, library_ontology, tmp_path):
    # a document that starts like cmfuse's layout and then leaves it: the
    # streamed reader would give up after reading part of the pipe
    text = serialize_alignment(align(library_graphs, library_ontology), library_graphs, library_ontology)
    text = text.replace('\n      "class"', ' "class"', 1)
    path = tmp_path / "alignment.json"
    path.write_text(text, encoding="utf-8")
    outputs = []
    for argv, stdin in ((["report", str(path)], None), (["report", "/dev/stdin"], text)):
        proc = subprocess.run(
            [sys.executable, "-m", "cmfuse", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(cmfuse.__file__).parent.parent)),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64])
def test_items_and_characters_across_chunk_boundaries(
    library_graphs, library_ontology, tmp_path, monkeypatch, chunk
):
    rng = random.Random(11013 + chunk)
    texts = _documents(rng, library_graphs, library_ontology)
    # four-byte characters and escapes in endpoint texts
    texts.append(
        serialize_alignment(
            Alignment(
                (Correspondence(Endpoint("😀", "中文\n"), Endpoint("é", "x", " "), Fraction(1, 3), CLASS_DISTINCT),)
            ),
            [],
            EMPTY_ONTOLOGY,
        )
    )
    monkeypatch.setattr(integrate, "_CHUNK", chunk)
    path = tmp_path / "alignment.json"
    for text in texts[:12] + texts[-1:]:
        path.write_text(text, encoding="utf-8")
        doc = _stream_alignment(str(path))
        assert doc is not None
        assert _summary(doc) == _reference(str(path))
        assert _one_endpoint_per_triple(doc)
        # and cut short anywhere, never a document
        data = text.encode("utf-8")
        for _ in range(3):
            path.write_bytes(data[: rng.randrange(len(data))])
            assert _stream_alignment(str(path)) is None


# names that hold, escaped, the texts the reader splits an item list at;
# undoing the escapes puts the raw separators inside strings
HOSTILE = [
    "\n",
    '"right": ',
    '",\n      "right": {',
    "},\n    {",
    '\n    },\n    {\n      "left": ',
    '\n    }\n  ],',
    '",\n      "class": "distinct"',
    '"',
    "\\",
    '\\"',
    "null",
]


def _hostile(rng: random.Random) -> list[tuple[str, bool]]:
    # each text, and whether cmfuse wrote it
    texts = []
    for _ in range(8):
        ends = [
            Endpoint(rng.choice(HOSTILE), rng.choice(HOSTILE), rng.choice([None, "null", *HOSTILE]))
            for _ in range(4)
        ]
        corrs = tuple(
            Correspondence(rng.choice(ends), rng.choice(ends), Fraction(rng.randrange(3), 2), rng.choice(CLASSIFICATIONS))
            for _ in range(rng.randrange(1, 8))
        )
        text = serialize_alignment(Alignment(corrs, (rng.choice(HOSTILE),)), [], EMPTY_ONTOLOGY)
        quotes = text.replace('\\"', '"')
        undone = (text.replace("\\n", "\n"), quotes, quotes.replace("\\n", "\n"), text.replace("\\\\", "\\"))
        texts += [(text, True), *((other, False) for other in undone if other != text)]
    return texts


def _outcome(read):
    try:
        return _summary(read())
    except DocumentError as exc:
        return exc.source, exc.diagnostics


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 64])
def test_names_that_hold_separators(tmp_path, monkeypatch, chunk):
    # each text gives the walker's document, or none, and then the
    # commands and parse_alignment give the walker's diagnostics
    monkeypatch.setattr(integrate, "_CHUNK", chunk)
    path = tmp_path / "alignment.json"
    streamed = fallbacks = 0
    for text, written in _hostile(random.Random(11017 + chunk)):
        path.write_text(text, encoding="utf-8")
        expected = _reference(str(path))
        doc = _stream_alignment(str(path))
        if doc is None:
            fallbacks += 1
            assert not written
        else:
            streamed += 1
            assert _summary(doc) == expected
            assert _one_endpoint_per_triple(doc)
        assert _outcome(lambda: _load_alignment(str(path))) == expected
        assert _outcome(lambda: integrate.parse_alignment(text, source=str(path))) == expected
    assert streamed >= 8 and fallbacks >= 8


@pytest.mark.parametrize(
    "old, new",
    [
        ('"left": {\n        "source": ', '"left": {"source": '),
        ('\n        "member": null\n      },\n      "right"', ' "member": null},\n      "right"'),
        ('"score": "0"', '"score":  "0"'),
        ('"score": "0"', '"score": "0" '),
        # a right endpoint text where a left one stands
        ('"left": ', '"right": '),
    ],
)
def test_only_the_writers_layout_is_streamed(monkeypatch, old, new):
    # the last item changed, when the one before it has the same texts and
    # went in a batch of its own, is decoded whole, and the walker has the
    # last word
    monkeypatch.setattr(integrate, "_CHUNK", 64)
    end = Endpoint("S1", "A")
    corrs = (Correspondence(end, end, Fraction(0), CLASS_DISTINCT),) * 2
    text = serialize_alignment(Alignment(corrs), [], EMPTY_ONTOLOGY)
    before, _, after = text.rpartition(old)
    changed = before + new + after
    assert integrate._streamed((changed,), "<alignment>") is None
    expected = _outcome(lambda: alignment_from_json(json.loads(changed)))
    assert _outcome(lambda: integrate.parse_alignment(changed)) == expected


def test_reading_holds_a_small_part_of_the_file(tmp_path, monkeypatch):
    # beside the document it returns, reading holds a few chunks and one
    # pointer per correspondence; the chunk is cut so that the file in the
    # test is large next to it
    rng = random.Random(11014)
    ends = [
        Endpoint(f"S{s}", f"Origin{o}", rng.choice([None, f"member{o}"]))
        for s in (1, 2)
        for o in range(40)
    ]
    corrs = tuple(
        Correspondence(rng.choice(ends[:40]), rng.choice(ends[40:]), Fraction(rng.randrange(4), 3), CLASS_DISTINCT)
        for _ in range(12000)
    )
    path = tmp_path / "alignment.json"
    path.write_text(serialize_alignment(Alignment(corrs), [], EMPTY_ONTOLOGY), encoding="utf-8")
    monkeypatch.setattr(integrate, "_CHUNK", 1 << 14)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = _stream_alignment(str(path))
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert doc is not None and doc.alignment.correspondences == corrs
    assert peak - held < size / 10, f"{peak - held} bytes beside the document while reading {size}"
    assert peak < size / 2, f"{peak} bytes traced while reading {size}"


def test_report_json_writer_equals_dump_json(library_graphs, library_ontology, tmp_path, capsys):
    rng = random.Random(11015)
    alignments = [align(library_graphs, library_ontology)]
    alignments += [_random_alignment(rng) for _ in range(300)]
    flagged = 0
    for alignment in alignments:
        expected = reference_dump_json(alignment_report_json(alignment))
        assert "".join(alignment_report_pieces(alignment)) == expected
        flagged += bool(alignment_report_json(alignment)["flagged"])
    assert flagged >= 20
    # and through the command, on the fixture
    path = tmp_path / "alignment.json"
    path.write_text(serialize_alignment(alignments[0], library_graphs, library_ontology), encoding="utf-8")
    assert main(["report", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == reference_dump_json(alignment_report_json(alignments[0]))


@pytest.mark.parametrize("command", ["merge", "report", "validate"])
def test_a_rejected_file_is_matched_once(library_graphs, library_ontology, tmp_path, monkeypatch, capsys, command):
    # a regular file that the matcher rejects goes straight to the spec
    # walker, and the diagnostic is the walker's
    text = serialize_alignment(align(library_graphs, library_ontology), library_graphs, library_ontology)
    end = text.index('\n  "conflicts": ')
    at = text.rindex('"class": "', 0, end) + len('"class": "')
    path = tmp_path / "alignment.json"
    path.write_text(text[:at] + "bogus" + text[text.index('"', at) :], encoding="utf-8")
    runs = []
    streamed = integrate._streamed
    monkeypatch.setattr(integrate, "_streamed", lambda *args: runs.append(1) or streamed(*args))
    argv = [command, str(path)] + (["-o", str(tmp_path / "out")] if command == "merge" else [])
    assert main(argv) == 2
    assert len(runs) == 1
    streams = capsys.readouterr()
    assert "correspondences[9].class: must be one of" in streams.out + streams.err
