"""Concept graphs for components, and the mapping in both directions."""

from __future__ import annotations

from ._record import record
from .components import Attribute, BusinessComponent, Operation
from .errors import DocumentError
from .jsonio import (
    NON_EMPTY,
    STRING,
    STRINGS,
    at,
    check,
    dump_json,
    list_of,
    load_json,
    maybe,
    obj,
    one_of,
)
from .ontology import (
    ANCHOR_AMBIGUOUS,
    ANCHOR_UNIQUE,
    OPERATION_MARKER,
    TERM,
    DomainOntology,
    anchor,
    normalize_term,
    operation_term,
    term_stem,
)

KIND_COMPONENT = "component"
KIND_ATTRIBUTE = "attribute"
KIND_OPERATION = "operation"

CONCEPT_KINDS = (KIND_COMPONENT, KIND_ATTRIBUTE, KIND_OPERATION)


@record
class Concept:
    """A node of a concept graph: one normalized term plus optional member concepts.

    A concept with no members is atomic. Concept graphs are flat: a
    member has no members of its own. The component kind may only
    appear at the root of a graph; members carry the attribute or
    operation kind, and member terms are pairwise distinct per kind
    under one parent.
    """

    term: str
    raw_label: str
    kind: str
    definitions: tuple[str, ...] = ()
    members: tuple[Concept, ...] = ()
    anchor: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "term", normalize_term(self.term))
        object.__setattr__(self, "definitions", tuple(self.definitions))
        object.__setattr__(self, "members", tuple(self.members))
        problems = []
        if not self.term:
            problems.append("term must be non-empty")
        if self.kind not in CONCEPT_KINDS:
            problems.append(f"unknown concept kind '{self.kind}'")
        seen: set[tuple[str, str]] = set()
        for m in self.members:
            if m.kind == KIND_COMPONENT:
                problems.append("the component kind may only appear at the root")
            if m.members:
                problems.append(f"member '{m.term}' has members; concept graphs are flat")
            key = (m.kind, m.term)
            if key in seen:
                problems.append(f"duplicate member term '{m.term}' ({m.kind})")
            seen.add(key)
        if problems:
            raise DocumentError("<concept>", problems)

    @property
    def is_atomic(self) -> bool:
        return not self.members


@record
class ComponentOntology:
    """Concept graph of one component, plus carried-through metadata.

    kind, provides and requires play no part in similarity; they ride
    along so a merge can rebuild full components at the end.
    """

    source: str
    origin: str
    root: Concept
    kind: str = "entity"
    provides: tuple[str, ...] = ()
    requires: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "provides", tuple(self.provides))
        object.__setattr__(self, "requires", tuple(self.requires))
        problems = []
        if not self.source:
            problems.append("source must be non-empty")
        elif "/" in self.source:
            # a path "<source>/<origin>" is read back as ending its source at the first '/'
            problems.append("source must not hold '/'")
        if not self.origin:
            problems.append("origin must be non-empty")
        if self.root.kind != KIND_COMPONENT:
            problems.append("the root concept must have the component kind")
        if problems:
            raise DocumentError("<concept-graph>", problems)

    @property
    def path(self) -> str:
        return f"{self.source}/{self.origin}"


def to_ontology(
    component: BusinessComponent,
    domain: DomainOntology,
    *,
    diagnostics: list[str] | None = None,
) -> ComponentOntology:
    """Map a component onto its concept graph.

    The root concept carries the component's name; attributes and then
    operations become atomic members in declaration order. Every term is
    anchored against the domain thesaurus. An explicit anchor entry on
    the component wins over the automatic lookup; ambiguous terms stay
    unanchored and are reported as diagnostics.
    """
    sink = diagnostics if diagnostics is not None else []
    hints = dict(component.anchors)
    used: set[str] = set()
    ctx = f"{component.source}/{component.name}"

    declared = ((KIND_ATTRIBUTE, component.attributes), (KIND_OPERATION, component.operations))
    members = [
        Concept(
            m.term, m.name, kind, anchor=_resolve_anchor(m.term, hints, used, domain, sink, ctx)
        )
        for kind, group in declared
        for m in group
    ]
    root = Concept(
        component.term,
        component.name,
        KIND_COMPONENT,
        definitions=(component.doc,) if component.doc else (),
        members=tuple(members),
        anchor=_resolve_anchor(component.term, hints, used, domain, sink, ctx),
    )
    for key in hints:
        if key not in used:
            sink.append(f"{ctx}: anchor hint '{key}' matches no member term")
    return ComponentOntology(
        source=component.source,
        origin=component.name,
        root=root,
        kind=component.kind,
        provides=component.provides,
        requires=component.requires,
    )


def _resolve_anchor(term, hints, used, domain, sink, ctx):
    hint = hints.get(term)
    if hint is not None:
        used.add(term)
    elif term_stem(term) in hints:
        hint = hints[term_stem(term)]
        used.add(term_stem(term))
    if hint is not None:
        if domain.has_concept(hint):
            return hint
        sink.append(
            f"{ctx}: anchor hint '{hint}' for '{term}' is not a known concept;"
            " falling back to the thesaurus lookup"
        )
    found = anchor(term, domain)
    if found.kind == ANCHOR_UNIQUE:
        return found.concepts[0]
    if found.kind == ANCHOR_AMBIGUOUS:
        sink.append(
            f"{ctx}: term '{term}' is listed under several concepts"
            f" ({', '.join(found.concepts)}); left unanchored"
        )
    return None


def to_component(graph: ComponentOntology) -> BusinessComponent:
    """Rebuild a component from a concept graph.

    Attribute metadata the graph never carried (datatypes, units) does
    not come back; names, member structure, kind, doc and interfaces do.
    """
    attributes = []
    operations = []
    for member in graph.root.members:
        if member.kind == KIND_ATTRIBUTE:
            attributes.append(Attribute(name=member.raw_label))
        else:
            operations.append(Operation(name=_operation_name(member.raw_label)))
    doc = graph.root.definitions[0] if graph.root.definitions else None
    return BusinessComponent(
        name=graph.root.raw_label,
        kind=graph.kind,
        source=graph.source,
        doc=doc,
        attributes=tuple(attributes),
        operations=tuple(operations),
        provides=graph.provides,
        requires=graph.requires,
    )


def rebuilt_term(member: Concept) -> tuple[bool, str]:
    """Whether to_component rebuilds a member as an attribute, and the
    term the rebuilt attribute or operation gets."""
    if member.kind == KIND_ATTRIBUTE:
        return True, normalize_term(member.raw_label)
    return False, operation_term(_operation_name(member.raw_label))


def _operation_name(raw_label: str) -> str:
    name = raw_label.strip()
    if name.endswith(OPERATION_MARKER):
        name = name[: -len(OPERATION_MARKER)].rstrip()
    return name or raw_label


def _no_members(value, path, problems):
    # concept graphs are flat: a member's own members are not walked
    if not isinstance(value, list):
        problems.append(at(path, "must be a list"))
    elif value:
        problems.append(at(path, "must be empty; concept graphs are flat"))
    return ()


_CONCEPT_FIELDS = {
    "term": TERM,
    "raw_label": STRING,
    "kind": one_of(CONCEPT_KINDS),
    "anchor": maybe(NON_EMPTY),
    "definitions": maybe(STRINGS),
}
_CONCEPT_REQUIRED = "term raw_label kind members"
_MEMBER = obj(
    {**_CONCEPT_FIELDS, "members": maybe(_no_members)}, required=_CONCEPT_REQUIRED, build=Concept
)
_CONCEPT = obj(
    {**_CONCEPT_FIELDS, "members": maybe(list_of(_MEMBER))},
    required=_CONCEPT_REQUIRED,
    build=Concept,
)
_NAMES = list_of(TERM)


def _interfaces(value, path, problems):
    # the list is judged as a whole first, then each name as the
    # component-set reader judges it, so a merge writes no blank name
    start = len(problems)
    STRINGS(value, path, problems)
    return value if len(problems) > start else _NAMES(value, path, problems)


# read from a graph's metadata and written from the graph itself, whose
# kind is written only when it is not the default
_METADATA = obj(
    {"kind": STRING, "provides": maybe(_interfaces), "requires": maybe(_interfaces)},
    get={"kind": lambda graph: None if graph.kind == "entity" else graph.kind},
)
_GRAPH_FIELDS = {
    "source": NON_EMPTY,
    "origin": NON_EMPTY,
    "root": maybe(_CONCEPT),
    "metadata": maybe(_METADATA),
}


def graph_object(extra: dict | None = None, required: str = "", build=None, get=None):
    """The schema of a concept-graph object, optionally with extra fields.

    extra and required add fields to the graph's own; build, when given,
    is called with the graph and the checked extra fields, and get says
    where the writer finds the fields in what build made, as for obj. A
    null root is reported as missing when nothing else is wrong; the
    graph's own invariants are reported without a path.
    """
    fields_spec = obj(
        {**_GRAPH_FIELDS, **(extra or {})},
        required=f"source origin root {required}",
        get=get or {"metadata": lambda graph: graph},
    )

    def walk(value, path: str, problems: list[str]):
        start = len(problems)
        fields = fields_spec(value, path, problems)
        if len(problems) > start:
            return None
        if "root" not in fields:
            problems.append(at(f"{path}.root" if path else "root", "missing"))
            return None
        try:
            graph = ComponentOntology(
                fields.pop("source"),
                fields.pop("origin"),
                fields.pop("root"),
                **fields.pop("metadata", {}),
            )
        except DocumentError as exc:
            problems += exc.diagnostics
            return None
        return build(graph, **fields) if build else graph

    walk.write = fields_spec.write
    return walk


# the schema of one concept-graph object, at the top level or nested
graph_spec = graph_object()


def component_ontology_to_json(graph: ComponentOntology) -> dict:
    return graph_spec.write(graph)


def serialize_component_ontology(graph: ComponentOntology) -> str:
    return dump_json(graph_spec.write(graph))


def parse_component_ontology(
    document: str, *, source: str = "<concept-graph>"
) -> ComponentOntology:
    """Parse a concept-graph document under the strict schema."""
    return check(graph_spec, load_json(document, source), source)


def component_ontology_from_json(data: dict, where: str, source: str) -> ComponentOntology:
    """Check a parsed concept-graph object found at the JSON path where."""
    return check(graph_spec, data, source, where)
