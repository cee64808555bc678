"""The fast alignment I/O paths against their plain references.

The writers emit the correspondence and equivalence lists from templates,
dump_pieces frames them, and dump_json lays out the rest with its own
small writer; the reference for all three is json's indenting encoder on
the document's JSON tree, built by the reference builders in helpers. The
reader matches text in the writer's layout one correspondence at a time;
the reference is the spec walker on the decoded tree, which is what the
reader falls back to.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

import pytest

from cmfuse import (
    Alignment,
    Correspondence,
    DocumentError,
    Endpoint,
    MergedRoot,
    RepresentationOntology,
    align,
    parse_alignment,
    serialize_alignment,
    serialize_representation,
)
from cmfuse import integrate
from cmfuse.jsonio import dump_json, dump_pieces
from cmfuse.integrate import CLASSIFICATIONS, alignment_from_json

from helpers import EMPTY_ONTOLOGY, alignment_to_json, reference_dump_json, representation_to_json

# pieces of text the JSON encoder treats differently: non-ASCII, quote and
# backslash, control characters, the JavaScript line separators
PIECES = [
    "A", "b c", "é", "中文", "😀", '"', "\\", "/", "\x00", "\x1f", "\n\t", "\x7f", "\u2028", "\u2029",
]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(1, 4)))


def _random_alignment(rng: random.Random) -> Alignment:
    pool = [
        Endpoint(_text(rng), _text(rng), rng.choice([None, None, _text(rng)]))
        for _ in range(rng.randrange(1, 6))
    ]
    corrs = []
    for _ in range(rng.choice([0, 1, rng.randrange(2, 30)])):
        # shared endpoint objects, and equal ones that are not the same object
        left, right = (rng.choice(pool) for _ in range(2))
        if rng.random() < 0.3:
            left = left._replace()
        den = rng.randrange(1, 13)
        score = Fraction(rng.randrange(den + 1), den)
        corrs.append(Correspondence(left, right, score, rng.choice(CLASSIFICATIONS)))
    return Alignment(tuple(corrs), tuple(_text(rng) for _ in range(rng.randrange(3))))


# ---- writer

def _counted_text(rng: random.Random, seen: Counter) -> str:
    text = _text(rng)
    seen.update(f"text {piece!r}" for piece in PIECES if piece in text)
    return text


def _tree(rng: random.Random, depth: int, seen: Counter):
    # a random JSON value; seen counts each kind of value that is made
    kinds = ["str", "None", "True", "False", "int", "float"]
    if depth < 4:
        kinds += ["dict", "list", "tuple"] * 2
    kind = rng.choice(kinds)
    if kind in ("dict", "list", "tuple"):
        size = rng.choice([0, 1, rng.randrange(2, 5)])
        seen[f"empty {kind}" if size == 0 else kind] += 1
        if kind != "dict":
            items = [_tree(rng, depth + 1, seen) for _ in range(size)]
            return items if kind == "list" else tuple(items)
        out = {}
        for _ in range(size):
            out[_counted_text(rng, seen)] = _tree(rng, depth + 1, seen)
        return out
    seen[kind] += 1
    if kind == "str":
        return _counted_text(rng, seen)
    if kind == "int":
        return rng.choice([0, -1, 42, -(10**30), 10**40 + 3])
    if kind == "float":
        return rng.choice([0.1, -2.5, 1e300, float("inf"), float("nan")])
    return {"None": None, "True": True, "False": False}[kind]


def test_the_writer_equals_json_indenting_encoder():
    rng = random.Random(6003)
    seen: Counter = Counter()
    for _ in range(1000):
        tree = _tree(rng, 0, seen)
        assert dump_json(tree) == reference_dump_json(tree)
    assert min(seen.values()) >= 20, seen
    # six scalar kinds, three containers, each also empty
    assert len(seen) == 6 + 3 * 2 + len(PIECES), seen


def _item_text(value) -> str:
    # value laid out as an item of a list under a top-level key, from the reference
    return "    " + reference_dump_json(value)[:-1].replace("\n", "\n    ")


def test_dump_pieces_equals_json_indenting_encoder():
    # a list field given as an iterator of item texts is framed as dump_json
    # frames the list itself
    rng = random.Random(6004)
    seen: Counter = Counter()
    for _ in range(1000):
        size = rng.choice([0, 1, rng.randrange(2, 6)])
        fields = {_text(rng): _tree(rng, 1, Counter()) for _ in range(size)}
        pieces = dict(fields)
        for key, value in fields.items():
            if isinstance(value, list) and rng.random() < 0.7:
                pieces[key] = iter([_item_text(item) for item in value])
                seen["iterator" if value else "empty iterator"] += 1
        streamed = [isinstance(value, Iterator) for value in pieces.values()]
        seen["no field"] += not fields
        seen["only field"] += streamed == [True]
        seen["first field"] += len(streamed) > 1 and streamed[0]
        seen["last field"] += len(streamed) > 1 and streamed[-1]
        assert "".join(dump_pieces(pieces)) == reference_dump_json(fields)
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def test_alignment_writer_equals_dump_json(library_graphs, library_ontology):
    rng = random.Random(6001)
    empty_lists = conflict_lists = 0
    for _ in range(300):
        alignment = _random_alignment(rng)
        graphs, od = rng.choice([(library_graphs, library_ontology), ([], EMPTY_ONTOLOGY)])
        alignment = alignment._replace(mode=rng.choice(["literal", "bipartite"]))
        expected = reference_dump_json(alignment_to_json(alignment, graphs, od))
        assert serialize_alignment(alignment, graphs, od) == expected
        empty_lists += not alignment.correspondences
        conflict_lists += bool(alignment.conflicts)
    assert empty_lists >= 20 and conflict_lists >= 20


def test_representation_writer_equals_dump_json(library_graphs):
    rng = random.Random(6002)
    empty = 0
    for _ in range(300):
        roots = tuple(
            MergedRoot(g, tuple(Endpoint(_text(rng), _text(rng)) for _ in range(rng.randrange(3))))
            for g in rng.sample(library_graphs, rng.randrange(len(library_graphs) + 1))
        )
        count = rng.choice([0, rng.randrange(1, 20)])
        pairs = tuple((_text(rng), _text(rng)) for _ in range(count))
        rep = RepresentationOntology(roots, pairs)
        assert serialize_representation(rep) == reference_dump_json(representation_to_json(rep))
        empty += not roots and not pairs
    assert empty >= 5


def test_pipeline_alignment_equals_dump_json(library_graphs, library_ontology):
    alignment = align(library_graphs, library_ontology)
    assert alignment.conflicts
    expected = reference_dump_json(alignment_to_json(alignment, library_graphs, library_ontology))
    assert serialize_alignment(alignment, library_graphs, library_ontology) == expected


# ---- reader

SOURCE = "alignment.json"
# values a correspondence field may be replaced with: wrong types, empty
# and unhashable values, and score texts the walker accepts or rejects
VALUES = [
    None, "", "x", 0, 1, 1.5, True, [], ["A"], {}, {"a": 1},
    "0", "1", "1/2", "2/4", "0/1", "01", "2", "1/0", "-1", "0.5", "1/", "/2", " 1", "1\n", "١",
    "distinct", "equivalent", "synonym", "Distinct",
]


def _library_alignment(graphs, od) -> str:
    return serialize_alignment(align(graphs, od), graphs, od)


def _outcome(read, document):
    try:
        doc = read(document, source=SOURCE)
    except DocumentError as exc:
        return exc.source, exc.diagnostics
    return doc.alignment, serialize_alignment(doc.alignment, doc.graphs, doc.domain)


def _matched(text: str) -> bool:
    # whether the reader took the matcher's path, not the walker's
    return integrate._streamed((text,), SOURCE) is not None


def _mutate(rng: random.Random, data: dict) -> None:
    corrs = data["correspondences"]
    i = rng.randrange(len(corrs))
    where = rng.choice(["item", "left", "right", "document"])
    if where == "document":
        # a broken field next to well-formed correspondences
        key = rng.choice(["settings", "diagnostics", "ontologies", "domain", "conflicts"])
        data[key] = rng.choice(
            [None, [], ["x"], [1], {}, {"mode": "fast"}, {"mode": "literal", "recursive": 1}]
        )
        return
    whole = [None, [], "A/B", 0, {}]
    if not isinstance(corrs[i], dict) or rng.random() < 0.05:
        corrs[i] = rng.choice(whole)
        return
    if where == "item":
        target, keys = corrs[i], ["left", "right", "score", "class"]
    elif not isinstance(corrs[i].get(where), dict) or rng.random() < 0.1:
        corrs[i][where] = rng.choice(whole)
        return
    else:
        target, keys = corrs[i][where], ["source", "origin", "member"]
    action = rng.random()
    if action < 0.15:
        target.pop(rng.choice(keys), None)
    elif action < 0.25:
        target[rng.choice(["extra", "Score", "path"])] = "x"
    else:
        target[rng.choice(keys)] = rng.choice(VALUES)


def test_reader_equals_the_spec_walker(library_graphs, library_ontology):
    base = json.loads(_library_alignment(library_graphs, library_ontology))
    assert _matched(dump_json(base))
    rng = random.Random(6003)
    documents = []
    for _ in range(600):
        data = json.loads(json.dumps(base))
        for _ in range(rng.choice([1, 1, 2, 3])):
            _mutate(rng, data)
        documents.append(data)
    matched = errors = 0
    for data in documents:
        # the mutated tree in the writer's layout, read from its text
        text = dump_json(data)
        got = _outcome(parse_alignment, text)
        assert got == _outcome(alignment_from_json, data), text[:2000]
        matched += _matched(text)
        errors += isinstance(got[0], str)
    # both outcomes, and both paths, occur often enough to mean something
    assert 100 <= errors <= 550
    assert matched >= 50 and len(documents) - matched >= 50


@pytest.mark.parametrize("text", ["1/2", "2/4", "01", "0/1", "1\n", "\u0661"])
def test_reader_parses_each_score_text_like_the_walker(text):
    # both paths read only the canonical spelling str() of a score writes, and
    # reject every other spelling of a rational with the same diagnostic
    data = {
        "correspondences": [
            {
                "left": {"source": "A", "origin": "X", "member": None},
                "right": {"source": "B", "origin": "Y", "member": "é"},
                "score": text,
                "class": "distinct",
            }
        ],
        "conflicts": [],
        "diagnostics": [],
        "ontologies": [],
        "domain": {"concepts": [], "thesaurus": []},
    }
    document = dump_json(data)
    got = _outcome(parse_alignment, document)
    assert got == _outcome(alignment_from_json, data)
    # the score text is matched in the writer's layout, and checked by _score
    assert _matched(document) == (text == "1/2")
    if text == "1/2":
        assert isinstance(got[0], Alignment)
    else:
        assert got == (SOURCE, ["correspondences[0].score: not a rational in [0, 1]"])


def test_reader_shares_one_endpoint_per_distinct_triple(library_graphs, library_ontology):
    text = _library_alignment(library_graphs, library_ontology)
    corrs = parse_alignment(text).alignment.correspondences
    ends = [e for c in corrs for e in (c.left, c.right)]
    assert len({id(e) for e in ends}) == len(set(ends)) < len(ends)


def test_reader_decodes_only_the_text_after_the_list(library_graphs, library_ontology, monkeypatch):
    # the correspondence list of text in the writer's layout never goes
    # through json.loads; only the fields after it do
    text = _library_alignment(library_graphs, library_ontology)
    lengths = []
    loads = json.loads

    def counted(document, *args, **kwargs):
        lengths.append(len(document))
        return loads(document, *args, **kwargs)

    monkeypatch.setattr(integrate.json, "loads", counted)
    doc = parse_alignment(text)
    after = len(text) - text.index('\n  "conflicts": ')
    assert len(lengths) == 1 and lengths[0] <= after + 1, (lengths, after)
    assert len(doc.alignment.correspondences) == len(loads(text)["correspondences"])
