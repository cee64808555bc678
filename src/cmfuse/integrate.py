"""Alignment of concept graphs and the merge into one result set.

Alignment scores every cross-source pair of graphs and classifies each
by two independent bits: do the apparent names match, and did the
similarity verdict come out synonym. Merge then grows equivalence
classes over the synonym edges, collapses each class into one component
under a canonical name, and source-qualifies the components that sit on
a homonym conflict.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations, count
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._record import field, record
from .components import BusinessComponent
from .errors import DocumentError, MergeError
from .jsonio import (
    BOOLEAN,
    ITEMS_CLOSE,
    ITEMS_NEXT,
    ITEMS_OPEN,
    NEXT_KEY,
    NO_ITEMS,
    NON_EMPTY,
    STRINGS,
    at,
    check,
    dump_pieces,
    list_of,
    load_json,
    lone_surrogate,
    maybe,
    obj,
    one_of,
    or_null,
    string,
)
from .ontology import (
    ANCHOR_UNIQUE,
    OPERATION_MARKER,
    ONTOLOGY_SPEC,
    DomainOntology,
    anchor,
    normalize_term,
    operation_term,
    term_stem,
)
from .similarity import MODE_BIPARTITE, MODE_LITERAL, ONE, PairScore, Scorer, parse_score
from .transform import (
    KIND_COMPONENT,
    KIND_OPERATION,
    ComponentOntology,
    Concept,
    graph_object,
    graph_spec,
    rebuilt_term,
    to_component,
)

CLASS_EQUIVALENT = "equivalent"
CLASS_SYNONYM_PAIR = "synonym_pair"
CLASS_HOMONYM_CONFLICT = "homonym_conflict"
CLASS_DISTINCT = "distinct"

CLASSIFICATIONS = (
    CLASS_EQUIVALENT,
    CLASS_SYNONYM_PAIR,
    CLASS_HOMONYM_CONFLICT,
    CLASS_DISTINCT,
)


def classify(names_equal: bool, synonym: bool) -> str:
    """Name a correspondence from name equality and the synonym verdict.

    Equal names that are synonyms are the same thing (equivalent);
    different names that are synonyms are a synonym pair; equal names
    that are not synonyms clash (homonym conflict); the rest are simply
    distinct.
    """
    if synonym:
        return CLASS_EQUIVALENT if names_equal else CLASS_SYNONYM_PAIR
    return CLASS_HOMONYM_CONFLICT if names_equal else CLASS_DISTINCT


def pair_class(a: ComponentOntology, b: ComponentOntology, score: Fraction) -> str:
    """The class of a pair of graphs whose aggregate is score."""
    return classify(a.root.term == b.root.term, score == 1)


@record
class Endpoint:
    """One side of a correspondence: a root, or one member of a root."""

    source: str
    origin: str
    member: str | None = None

    @cached_property
    def path(self) -> str:
        base = f"{self.source}/{self.origin}"
        return base if self.member is None else f"{base}/{self.member}"


class Correspondence(NamedTuple):
    """One scored pair of endpoints, its score a Fraction in [0, 1], and
    its class; a tuple, so that the reader builds one at C speed."""

    left: Endpoint
    right: Endpoint
    score: Fraction
    classification: str


@record
class Alignment:
    """All pairwise correspondences plus the diagnostics that led there,
    and the similarity mode the scores were computed under.

    An alignment that align made also keeps its pair table in scores:
    one PairScore per scored pair, in cross_pairs order. An alignment
    read back from a document has none.
    """

    correspondences: tuple[Correspondence, ...]
    diagnostics: tuple[str, ...] = ()
    mode: str = MODE_LITERAL
    scores: tuple[PairScore, ...] | None = field(default=None, compare=False, repr=False)

    # computed once per alignment; cached outside the fields, so equality,
    # repr and _replace ignore them
    @cached_property
    def roots(self) -> tuple[Correspondence, ...]:
        return tuple(c for c in self.correspondences if c.left.member is None)

    @cached_property
    def conflicts(self) -> tuple[Correspondence, ...]:
        return tuple(
            c for c in self.roots if c.classification == CLASS_HOMONYM_CONFLICT
        )


def cross_pairs(graphs: Sequence[ComponentOntology]) -> Iterator[tuple[int, int]]:
    """Indexes (i, j), i < j, of every pair of graphs from different sources."""
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if graphs[i].source != graphs[j].source:
                yield i, j


def align(
    graphs: Sequence[ComponentOntology],
    od: DomainOntology,
    *,
    mode: str = MODE_LITERAL,
    diagnostics: Iterable[str] = (),
) -> Alignment:
    """Score and classify every cross-source pair of graphs.

    Emits one root correspondence per unordered pair from different
    sources, in input order, plus one member correspondence for every
    member cell that scores one. Each pair is scored once; the scores
    stay on the alignment for the report, and the mode for the
    document.
    """
    scorer = Scorer(od, mode=mode)
    roots = [scorer.node(g.root) for g in graphs]
    # one Endpoint per graph and per member, shared by every correspondence
    # that names it, so the writers' caches hold each once
    ends = [Endpoint(g.source, g.origin) for g in graphs]
    member_ends = [[Endpoint(g.source, g.origin, m.term) for m in g.root.members] for g in graphs]
    corrs: list[Correspondence] = []
    scores: list[PairScore] = []
    for i, j in cross_pairs(graphs):
        pair = scorer.score(roots[i], roots[j])
        scores.append(pair)
        cls = pair_class(graphs[i], graphs[j], pair.aggregate)
        corrs.append(Correspondence(ends[i], ends[j], pair.aggregate, cls))
        for mi, mj in pair.cells:
            left, right = member_ends[i][mi], member_ends[j][mj]
            same = left.member == right.member
            corrs.append(Correspondence(left, right, ONE, classify(same, True)))
    return Alignment(tuple(corrs), tuple(diagnostics), mode, tuple(scores))


def detect_naming_conflicts(alignment: Alignment) -> list[Correspondence]:
    """Root-level correspondences that need a naming decision.

    Homonym conflicts (same name, not synonyms) and synonym pairs
    (different names, synonyms), ordered by endpoint paths.
    """
    flagged = [
        c
        for c in alignment.roots
        if c.classification in (CLASS_HOMONYM_CONFLICT, CLASS_SYNONYM_PAIR)
    ]
    flagged.sort(
        key=lambda c: (c.left.source, c.left.origin, c.right.source, c.right.origin)
    )
    return flagged


def _groups(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes that links make of range(n), ordered by their first
    index, with members ascending."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    # a class enters at its first index, so the classes keep that order
    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


@record
class MergedRoot:
    """One result graph plus the endpoints it was folded from."""

    ontology: ComponentOntology
    merged_from: tuple[Endpoint, ...]


@record
class RepresentationOntology:
    """Concept graphs of the merge result, with equivalence links."""

    roots: tuple[MergedRoot, ...]
    equivalences: tuple[tuple[str, str], ...]


@record
class MergedComponent:
    representation: RepresentationOntology
    result: tuple[BusinessComponent, ...]


def merge(
    alignment: Alignment, graphs: Sequence[ComponentOntology], od: DomainOntology
) -> MergedComponent:
    """Fold synonym classes into single components and qualify conflicts.

    Every equivalent or synonym_pair root correspondence joins its two
    roots into one class. A multi-root class becomes one component under
    the canonical name (the domain label when a root anchors uniquely,
    otherwise the smallest root term), with synonymous members collapsed
    the same way and interfaces rewritten to canonical names. A root on
    a homonym conflict, or one named like any other result root, keeps
    its members but is renamed "<source>.<origin>"; merged classes that
    come out named alike take that name of their root with the smallest
    (source, origin) instead, whatever the input order.
    A qualified name that another result root already has is numbered
    "<source>.<origin>.2", ".3", ... until it is free. Untouched roots
    pass through unchanged. Members are judged the same when their
    cell scores one, which no scoring setting changes.
    """
    index: dict[tuple[str, str], int] = {}
    for i, g in enumerate(graphs):
        if index.setdefault((g.source, g.origin), i) != i:
            raise MergeError(f"duplicate graph for {g.source}/{g.origin}")
    links: list[tuple[int, int]] = []
    conflicted: set[int] = set()
    for corr in alignment.roots:
        left, right = corr.left, corr.right
        i = index.get((left.source, left.origin))
        j = index.get((right.source, right.origin))
        if i is None or j is None:
            e = left if i is None else right
            raise MergeError(
                f"alignment references {e.source}/{e.origin}, which is not in the merged set"
            )
        if corr.classification in (CLASS_EQUIVALENT, CLASS_SYNONYM_PAIR):
            links.append((i, j))
        elif corr.classification == CLASS_HOMONYM_CONFLICT:
            conflicted.update((i, j))

    # each class is keyed by the index of its first graph, so a graph
    # that stays alone is keyed by its own, as in conflicted
    classes = {ids[0]: [graphs[i] for i in ids] for ids in _groups(len(graphs), links)}
    names = {
        rep: _canonical_name([g.root for g in members], od)
        for rep, members in classes.items()
        if len(members) > 1
    }
    own = {
        rep: names[rep][1] if rep in names else members[0].root.raw_label
        for rep, members in classes.items()
    }
    # result names must stay unique: a pass-through named like any other
    # result root, and merged classes named alike, are qualified; a
    # qualified name is numbered while another result root has its term
    terms = Counter(normalize_term(own[rep]) for rep in classes)
    class_terms = Counter(normalize_term(own[rep]) for rep in names)

    def qualified(rep) -> bool:
        term = normalize_term(own[rep])
        return class_terms[term] > 1 if rep in names else rep in conflicted or terms[term] > 1

    taken = {normalize_term(own[rep]) for rep in classes if not qualified(rep)}
    scorer = Scorer(od)
    roots: list[MergedRoot] = []
    equivalences: list[tuple[str, str]] = []
    for rep, members in classes.items():
        name, renamed = own[rep], qualified(rep)
        if renamed:
            least = min(members, key=lambda g: (g.source, g.origin))
            name = _free(f"{least.source}.{least.origin}", lambda n: normalize_term(n) in taken)
            taken.add(normalize_term(name))
        if rep in names:
            merged = _merge_class(members, name, names[rep][2], scorer, equivalences)
        else:
            merged = _qualify(members[0], name, od) if renamed else members[0]
        roots.append(MergedRoot(merged, tuple(Endpoint(g.source, g.origin) for g in members)))
    return MergedComponent(
        representation=RepresentationOntology(tuple(roots), tuple(equivalences)),
        result=tuple(_rebuild(r) for r in roots),
    )


def _rebuild(root: MergedRoot) -> BusinessComponent:
    try:
        return to_component(root.ontology)
    except DocumentError as exc:
        origins = ", ".join(e.path for e in root.merged_from)
        source = f"{root.ontology.path} (merged from {origins})"
        raise DocumentError(source, exc.diagnostics) from None


def _free(name: str, taken: Callable[[str], bool]) -> str:
    """name, or the first of name.2, name.3, ... that is not taken."""
    for n in count(1):
        candidate = name if n == 1 else f"{name}.{n}"
        if not taken(candidate):
            return candidate


def _qualify(graph: ComponentOntology, name: str, od: DomainOntology) -> ComponentOntology:
    return graph._replace(
        origin=name,
        root=graph.root._replace(term=name, raw_label=name),
        provides=tuple(_canonical_interfaces(graph.provides, od)),
        requires=tuple(_canonical_interfaces(graph.requires, od)),
    )


def _merge_class(
    members: list[ComponentOntology],
    raw_name: str,
    root_anchor: str | None,
    scorer: Scorer,
    equivalences: list[tuple[str, str]],
) -> ComponentOntology:
    equivalences += combinations((g.path for g in members), 2)
    merged_members = _merge_members(members, scorer, equivalences)

    kinds = {g.kind for g in members}
    kind = members[0].kind if len(kinds) == 1 else "entity"
    sources = list(dict.fromkeys(g.source for g in members))

    root = Concept(
        term=raw_name,
        raw_label=raw_name,
        kind=KIND_COMPONENT,
        definitions=_definitions(g.root for g in members),
        members=tuple(merged_members),
        anchor=root_anchor,
    )
    return ComponentOntology(
        source="+".join(sources),
        origin=raw_name,
        root=root,
        kind=kind,
        provides=tuple(_canonical_interfaces((p for g in members for p in g.provides), scorer.od)),
        requires=tuple(_canonical_interfaces((r for g in members for r in g.requires), scorer.od)),
    )


def _merge_members(
    members: list[ComponentOntology],
    scorer: Scorer,
    equivalences: list[tuple[str, str]],
) -> list[Concept]:
    entries: list[tuple[int, Concept, str]] = []
    for gi, g in enumerate(members):
        for concept in g.root.members:
            entries.append((gi, concept, f"{g.path}/{concept.term}"))

    links = scorer.links([c for _, c, _ in entries], [gi for gi, _, _ in entries])
    merged: list[Concept] = []
    # the keys the kept members claim: (kind, term), which the merged root
    # holds once, and, as to_component rebuilds the member, (is attribute,
    # term) and (is attribute, "stem", stem), since no two members may share
    # a rebuilt term, nor an attribute and an operation a stem
    claimed: set[tuple] = set()

    def claims(c: Concept) -> tuple[tuple, tuple, tuple]:
        is_attribute, term = rebuilt_term(c)
        return (c.kind, c.term), (is_attribute, term), (is_attribute, "stem", term_stem(term))

    def clashes(c: Concept) -> bool:
        own, rebuilt, (is_attribute, _, stem) = claims(c)
        return own in claimed or rebuilt in claimed or (not is_attribute, "stem", stem) in claimed

    for ids in _groups(len(entries), links):
        equivalences += combinations((entries[i][2] for i in ids), 2)
        group = [entries[i][1] for i in ids]
        concept = group[0]
        if len(group) > 1:
            term, raw, common = _canonical_name(
                group, scorer.od, operation=concept.kind == KIND_OPERATION
            )
            concept = concept._replace(
                term=term, raw_label=raw, definitions=_definitions(group), anchor=common
            )
        if clashes(concept):
            # homonymous representatives, or a member the rebuilt component
            # cannot hold: qualify by the first origin, numbered until it fits
            gi = entries[ids[0]][0]
            base = concept
            prefix = _free(
                f"{members[gi].source}.{members[gi].origin}",
                lambda p: clashes(_prefixed(base, p)),
            )
            concept = _prefixed(base, prefix)
        claimed.update(claims(concept))
        merged.append(concept)
    return merged


def _prefixed(c: Concept, prefix: str) -> Concept:
    raw = f"{prefix}.{c.raw_label}"
    return c._replace(term=f"{prefix}.{c.term}", raw_label=raw)


def _canonical_name(
    concepts: Sequence[Concept], od: DomainOntology, *, operation: bool = False
) -> tuple[str, str, str | None]:
    """The (term, raw label, anchor) that names concepts judged the same.

    The smallest domain label among the valid anchors wins, with the
    call marker kept on an operation term; with no valid anchor, the
    smallest term wins with its raw label. The anchor is kept only when
    exactly one is present.
    """
    anchors = {c.anchor for c in concepts if c.anchor is not None and od.has_concept(c.anchor)}
    if not anchors:
        first = min(concepts, key=lambda c: c.term)
        return first.term, first.raw_label, None
    raw = min(od.label(a) for a in anchors)
    term = operation_term(raw) if operation else normalize_term(raw)
    return term, raw, next(iter(anchors)) if len(anchors) == 1 else None


def _definitions(concepts: Iterable[Concept]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(d for c in concepts for d in c.definitions))


def _canonical_interfaces(names: Iterable[str], od: DomainOntology) -> list[str]:
    """Rewrite interface names to domain labels where anchored; dedup."""
    out: list[str] = []
    for name in names:
        term = normalize_term(name)
        found = anchor(term, od)
        if found.kind == ANCHOR_UNIQUE:
            raw = od.label(found.concepts[0])
            term = operation_term(raw) if term.endswith(OPERATION_MARKER) else normalize_term(raw)
        if term not in out:
            out.append(term)
    return out


@record
class AlignmentDocument:
    """Everything a merge needs, as read back from one alignment file."""

    alignment: Alignment
    graphs: tuple[ComponentOntology, ...]
    domain: DomainOntology


def serialize_alignment(
    alignment: Alignment, graphs: Sequence[ComponentOntology], od: DomainOntology
) -> str:
    """Self-contained alignment document: correspondences, the graphs
    they speak about, the domain ontology needed to merge them, and the
    similarity settings the scores were computed under.

    The text is joined from alignment_pieces.
    """
    return "".join(alignment_pieces(alignment, graphs, od))


def alignment_pieces(
    alignment: Alignment, graphs: Sequence[ComponentOntology], od: DomainOntology
) -> Iterator[str]:
    """The text of serialize_alignment, piece by piece: the two
    correspondence lists, which grow with the square of the graph count,
    one correspondence at a time, then each of the other fields at once.
    """
    item = correspondence_items()
    return dump_pieces(
        {
            "correspondences": map(item, alignment.correspondences),
            "conflicts": map(item, alignment.conflicts),
            "diagnostics": alignment.diagnostics,
            "settings": _SETTINGS.write(alignment),
            "ontologies": _GRAPHS.write(graphs),
            "domain": ONTOLOGY_SPEC.write(od),
        }
    )


# one item of a correspondence list, at list-item depth, and one endpoint
# in it; the writer fills in the JSON texts of the fields, and the reader
# cuts _ITEM at the lines that open its fields
_ITEM = '    {\n      "left": %s,\n      "right": %s,\n      "score": %s,\n      "class": %s\n    }'
_ENDPOINT_ITEM = '{\n        "source": %s,\n        "origin": %s,\n        "member": %s\n      }'


def correspondence_items() -> Callable[[Correspondence], str]:
    """Lays out each correspondence as an item of one document's list,
    each endpoint's text made once: align shares one Endpoint per graph
    and per member, and the reader one per distinct triple."""
    endpoints: dict[int, str] = {}  # each endpoint's text, by its id

    def endpoint(e: Endpoint) -> str:
        if id(e) not in endpoints:
            source, origin = encode_basestring(e.source), encode_basestring(e.origin)
            member = "null" if e.member is None else encode_basestring(e.member)
            endpoints[id(e)] = _ENDPOINT_ITEM % (source, origin, member)
        return endpoints[id(e)]

    def item(c: Correspondence) -> str:
        score, kind = encode_basestring(str(c.score)), encode_basestring(c.classification)
        return _ITEM % (endpoint(c.left), endpoint(c.right), score, kind)

    return item


def _score(value, path, problems):
    if not isinstance(value, str):
        problems.append(at(path, "must be a string"))
        return None
    try:
        return parse_score(value)
    except ValueError:
        problems.append(at(path, "not a rational in [0, 1]"))


def _domain(value, path, problems):
    # the embedded ontology reports as a document of its own, under path
    if not isinstance(value, dict):
        problems.append(at(path, "must be an object"))
        return None
    inner: list[str] = []
    domain = ONTOLOGY_SPEC(value, "", inner)
    problems += [at(path, d) for d in inner]
    return domain


_ENDPOINT = obj(
    {"source": NON_EMPTY, "origin": NON_EMPTY, "member": maybe(string("must be a string or null"))},
    required="source origin member",
    build=Endpoint,
)
_CORRESPONDENCE = obj(
    {
        "left": or_null(_ENDPOINT),
        "right": or_null(_ENDPOINT),
        "score": _score,
        "class": one_of(CLASSIFICATIONS),
    },
    required="left right score class",
    build=lambda left, right, score, **rest: Correspondence(left, right, score, rest["class"]),
)
_CORRESPONDENCES = list_of(_CORRESPONDENCE)
# the new endpoint and score texts of a batch, which _streamed checks at once
_ENDPOINTS = list_of(_ENDPOINT)
_SCORES = list_of(_score)

_GRAPHS = list_of(graph_spec)
_MODE = one_of((MODE_LITERAL, MODE_BIPARTITE), "must be literal or bipartite")
# mode is read into the Alignment's field of that name, and written from
# it. recursive stays in the format, written true and checked as a boolean
# on read, then dropped: concept graphs are flat, so it changes no score
_SETTINGS = obj(
    {"mode": _MODE, "recursive": BOOLEAN},
    build=lambda recursive=True, **settings: settings,
    get={"recursive": lambda alignment: True},
)
_ALIGNMENT_FIELDS = {
    "settings": maybe(_SETTINGS),
    "correspondences": _CORRESPONDENCES,
    "conflicts": None,  # derived from the correspondences
    "diagnostics": STRINGS,
    "ontologies": _GRAPHS,
    "domain": _domain,
}
_REST_REQUIRED = "conflicts diagnostics ontologies domain"
_ALIGNMENT_REQUIRED = "correspondences " + _REST_REQUIRED


def _document(correspondences, diagnostics, ontologies, domain, settings=None) -> AlignmentDocument:
    alignment = Alignment(correspondences, tuple(diagnostics), **(settings or {}))
    return AlignmentDocument(alignment, ontologies, domain)


_ALIGNMENT_KEYS = obj(dict.fromkeys(_ALIGNMENT_FIELDS), required=_ALIGNMENT_REQUIRED)
_ALIGNMENT = obj(_ALIGNMENT_FIELDS, required=_ALIGNMENT_REQUIRED, build=_document)
# the fields after the correspondence list, which the streamed reader
# checks on their own; a second correspondences key is unknown here
_REST = obj(
    {key: spec for key, spec in _ALIGNMENT_FIELDS.items() if key != "correspondences"},
    required=_REST_REQUIRED,
)


def parse_alignment(document: str, *, source: str = "<alignment>") -> AlignmentDocument:
    """Parse an alignment document back into its parts.

    Text laid out as cmfuse writes it is split into correspondences a
    batch at a time, and only the rest of the document is decoded whole; any other
    text, and any text with a problem, goes to alignment_from_json, which
    writes the diagnostics.
    """
    found = _streamed((document,), source)
    return found or alignment_from_json(load_json(document, source), source=source)


def alignment_from_json(data, *, source: str = "<alignment>") -> AlignmentDocument:
    """Check a decoded alignment document with the spec walker.

    Problems with the top-level keys, and then correspondences that are
    not a list, are each reported on their own; otherwise every problem
    in the document is.
    """
    check(_ALIGNMENT_KEYS, data, source)
    if not isinstance(data["correspondences"], list):
        raise DocumentError(source, ["correspondences: must be a list"])
    return check(_ALIGNMENT, data, source)


_CHUNK = 1 << 16  # characters that _stream_alignment reads, and _streamed takes, at a time
# how alignment_pieces opens the document: the head of its first field
_HEAD = next(dump_pieces({"correspondences": None}))
# a JSON string; its escapes are checked when the text is decoded
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
# decodes the endpoint and score texts, without json.loads's keyword checks
_DECODER = json.JSONDecoder()
# builds a correspondence from its fields without a Python call
_correspondence = partial(tuple.__new__, Correspondence)


class _Layout(NamedTuple):
    key: str  # the newline, indent and quote before each key of an item
    left: Callable  # fullmatch of a left field text; group 1 is the endpoint text
    right: Callable  # the same for a right field text
    score: Callable  # fullmatch of a score field text; group 1 is the score text
    classes: dict  # the class of each class field text, with the ending
    opening: str  # from the list's bracket to the first item's left field
    ending: str  # from a class text to the key line of the item that follows
    closing: str  # from the last item's class text to the next key of the document


@cache
def _layout() -> _Layout:
    # the writer's own templates, _ITEM cut at the lines that open its four
    # fields and each field's pattern put where the writer puts its text,
    # so the layout is stated once; made at first use, so commands that
    # read no alignment never compile it (re.escape leaves %s as it is)
    at = _ITEM.index('"left"')
    key = _ITEM[_ITEM.rindex("\n", 0, at) : at + 1]
    head, left, right, score, kind = _ITEM.split(key)
    member = f"(?:null|{_STRING})"
    endpoint = f"({re.escape(_ENDPOINT_ITEM) % (_STRING, _STRING, member)})"
    # items are framed as dump_pieces frames a streamed list
    before, after = kind.split("%s")
    ending = after + ITEMS_NEXT + head
    return _Layout(
        key,
        re.compile(re.escape(left) % endpoint).fullmatch,
        re.compile(re.escape(right) % endpoint).fullmatch,
        re.compile(re.escape(score) % f"({_STRING})").fullmatch,
        {before + encode_basestring(c) + ending: c for c in CLASSIFICATIONS},
        ITEMS_OPEN + head + key,
        ending,
        after + ITEMS_CLOSE + NEXT_KEY,
    )


def _stream_alignment(path: str) -> AlignmentDocument | None:
    """The alignment document in the regular file at path, when _streamed
    accepts its text, read in chunks; None otherwise. A pipe would be
    drained, and a caller that gets None reads the file again."""
    try:
        # newline="": a CRLF text stays as it is, which the layout rejects
        with open(path, encoding="utf-8", newline="") as file:
            return _streamed(iter(partial(file.read, _CHUNK), ""), path)
    except OSError:
        return None


def _streamed(chunks: Iterable[str], source: str) -> AlignmentDocument | None:
    """The alignment document whose text comes in chunks, when it is laid
    out as alignment_pieces writes it; None at the first thing that layout
    does not predict or that the specs reject.

    The complete items of each chunk are split in one batch at the line
    that opens each of their four fields, so every fourth piece is a left
    field, and so on. The first sight of each field text is checked
    against the writer's layout; then a batch's new endpoints are decoded
    as one list and checked by _ENDPOINTS, and its new scores likewise by
    _SCORES; class field texts are looked up. Each distinct
    endpoint becomes one Endpoint, so the correspondence list never
    becomes a JSON tree. The rest of the document is decoded whole and
    checked by the spec walker.

    The line that opens a field holds a raw newline, which no JSON string
    can, so a text split anywhere else leaves a piece that fails its check.
    """
    layout = _layout()
    lefts: dict[str, Endpoint] = {}  # by field text
    rights: dict[str, Endpoint] = {}
    scores: dict[str, Fraction] = {}
    distinct: dict = {}  # one Endpoint per decoded triple, one Fraction per value
    corrs: list[Correspondence] = []

    def first_seen(texts: list[str], seen: dict, match: Callable, spec: Callable) -> None:
        # the new texts' JSON values are decoded and checked as one list
        new = list(set(texts).difference(seen))
        matches = list(map(match, new))
        if not all(matches):
            raise ValueError(new)
        found = check(spec, _DECODER.decode(f"[{','.join(m[1] for m in matches)}]"), source)
        for text, value in zip(new, found):
            seen[text] = distinct.setdefault(value, value)

    def add(batch: str) -> None:
        # a batch of whole items, each class text followed by the ending;
        # the key cannot overlap itself, so rsplit cuts where split does,
        # and its search from the end looks for the rare newline first
        pieces = batch.rsplit(layout.key)
        fields = pieces[0::4], pieces[1::4], pieces[2::4], pieces[3::4]
        first_seen(fields[0], lefts, layout.left, _ENDPOINTS)
        first_seen(fields[1], rights, layout.right, _ENDPOINTS)
        first_seen(fields[2], scores, layout.score, _SCORES)
        find = lefts.__getitem__, rights.__getitem__, scores.__getitem__, layout.classes.__getitem__
        # strict: a piece left over is a field without an item
        corrs.extend(map(_correspondence, zip(*map(map, find, fields), strict=True)))

    # a text given whole still goes in batches of at most a chunk
    chunks = (chunk[i : i + _CHUNK] for chunk in chunks for i in range(0, len(chunk), _CHUNK))
    try:
        text = ""
        for chunk in chunks:
            text += chunk
            if len(text) >= len(_HEAD) + len(layout.opening):
                break
        # the list ends as dump_pieces ends it, and the document goes on
        if text.startswith(_HEAD + NO_ITEMS + NEXT_KEY):
            pos = len(_HEAD) + len(NO_ITEMS + NEXT_KEY)
        elif text.startswith(_HEAD + layout.opening):
            pos = len(_HEAD) + len(layout.opening)
            while True:
                if (end := text.find(layout.closing, pos)) >= 0:
                    add(text[pos:end] + layout.ending)
                    pos = end + len(layout.closing)
                    break
                # the complete items, up to the last one that another follows
                if (cut := text.rfind(layout.ending + layout.key, pos)) >= 0:
                    cut += len(layout.ending)
                    add(text[pos:cut])
                    pos = cut + len(layout.key)
                chunk = next(chunks, None)
                if chunk is None:
                    return None
                # a statement of its own, so that CPython extends text in place while pos is 0
                text = text[pos:] + chunk
                pos = 0
        else:
            return None
        rest = json.loads("{" + text[pos:] + "".join(chunks))
        return _document(tuple(corrs), **check(_REST, rest, source))
    except (ValueError, KeyError, RecursionError, DocumentError):
        # ValueError covers bad UTF-8, JSON texts and field texts, KeyError
        # an unknown class text, DocumentError what a spec rejects
        return None


def serialize_representation(rep: RepresentationOntology) -> str:
    """The representation document, joined from representation_pieces."""
    return "".join(representation_pieces(rep))


def representation_pieces(rep: RepresentationOntology) -> Iterator[str]:
    """The text of serialize_representation: the roots, one graph per
    result component, at once, then the equivalence list, which grows
    with the square of the class sizes, one pair at a time."""
    return dump_pieces(
        {
            "roots": _ROOTS.write(rep.roots),
            "equivalences": (
                f"    [\n      {encode_basestring(a)},\n      {encode_basestring(b)}\n    ]"
                for a, b in rep.equivalences
            ),
        }
    )


def _root_endpoint(value, path, problems):
    # a root path "<source>/<origin>"; the source ends at the first slash
    source, _, origin = value.partition("/") if isinstance(value, str) else ("", "", "")
    if not (source and origin):
        problems.append(at(path, "must be a path 'source/origin'"))
        return None
    if bad := lone_surrogate(value):
        problems.append(at(path, bad))
        return None
    return Endpoint(source, origin)


def _pair(value, path, problems):
    if not (isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)):
        problems.append(at(path, "must be a pair of strings"))
        return None
    STRINGS(value, path, problems)
    return tuple(value)


_MERGED_ROOT = graph_object(
    {"merged_from": list_of(_root_endpoint)},
    required="merged_from",
    build=MergedRoot,
    # written from the graph the root holds, and the paths of its endpoints
    get={
        **{key: attrgetter(f"ontology.{key}") for key in ("source", "origin", "root")},
        "metadata": attrgetter("ontology"),
        "merged_from": lambda root: [e.path for e in root.merged_from],
    },
)
_ROOTS = list_of(_MERGED_ROOT)
_REPRESENTATION = obj(
    {"roots": _ROOTS, "equivalences": list_of(_pair)},
    required="roots equivalences",
    build=RepresentationOntology,
)


def parse_representation(
    document: str, *, source: str = "<representation>"
) -> RepresentationOntology:
    """Parse a representation document (the ocm_r.json a merge writes).

    Its roots are concept graphs, each with the root paths it was merged
    from; its equivalences are pairs of paths.
    """
    return representation_from_json(load_json(document, source), source=source)


def representation_from_json(data, *, source: str = "<representation>") -> RepresentationOntology:
    """Check a decoded representation document; see parse_representation."""
    return check(_REPRESENTATION, data, source)
