"""Business component model: parsing, validation, union and layering checks."""

from __future__ import annotations

from typing import Callable, Mapping

from ._record import field, record
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
    mapping,
    maybe,
    non_empty,
    obj,
)
from .ontology import TERM, normalize_term, operation_term, term_stem

KINDS = ("entity", "process", "utility", "data")

# architectural layers, top to bottom
_LAYER = {"process": 3, "entity": 2, "utility": 1, "data": 0}


@record
class Attribute:
    name: str
    datatype: str | None = None
    unit: str | None = None

    def __post_init__(self):
        if not normalize_term(self.name):
            raise DocumentError("<attribute>", ["name must be non-empty"])

    @property
    def term(self) -> str:
        return normalize_term(self.name)


@record
class Operation:
    name: str
    params: tuple[str, ...] = ()
    returns: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not term_stem(operation_term(self.name)):
            raise DocumentError("<operation>", ["name must be non-empty"])

    @property
    def term(self) -> str:
        return operation_term(self.name)


@record
class BusinessComponent:
    """One component of a source system.

    Attribute terms must be pairwise distinct, operation terms likewise,
    and no operation may share its stem with an attribute; those three
    rules keep member terms unambiguous inside one component.
    """

    name: str
    kind: str
    source: str
    doc: str | None = None
    attributes: tuple[Attribute, ...] = ()
    operations: tuple[Operation, ...] = ()
    provides: tuple[str, ...] = ()
    requires: tuple[str, ...] = ()
    # keys stored normalized; a dict, compared by == but left out of the hash, so a component hashes
    anchors: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "operations", tuple(self.operations))
        object.__setattr__(self, "provides", tuple(self.provides))
        object.__setattr__(self, "requires", tuple(self.requires))
        object.__setattr__(self, "anchors", {normalize_term(k): v for k, v in self.anchors.items()})
        problems = _component_problems(self)
        if problems:
            raise DocumentError("<component>", problems)

    @property
    def term(self) -> str:
        return normalize_term(self.name)


def _component_problems(c: BusinessComponent) -> list[str]:
    problems = []
    if not normalize_term(c.name):
        problems.append("name must be non-empty")
    if c.kind not in KINDS:
        problems.append(f"unknown kind '{c.kind}' (expected one of {', '.join(KINDS)})")
    if not c.source:
        problems.append("source must be non-empty")
    seen_attr: set[str] = set()
    for a in c.attributes:
        if a.term in seen_attr:
            problems.append(f"duplicate attribute term '{a.term}'")
        seen_attr.add(a.term)
    seen_op: set[str] = set()
    for o in c.operations:
        if o.term in seen_op:
            problems.append(f"duplicate operation term '{o.term}'")
        seen_op.add(o.term)
    attr_stems = {term_stem(t) for t in seen_attr}
    for t in sorted(seen_op):
        if term_stem(t) in attr_stems:
            problems.append(f"operation '{t}' shares its term with an attribute")
    return problems


@record
class ComponentSet:
    """Candidate components of one or more source systems.

    (source, normalized name) identifies a component uniquely within a
    set.
    """

    system: str
    components: tuple[BusinessComponent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        problems = []
        if not self.system:
            problems.append("system must be non-empty")
        elif "/" in self.system:
            problems.append("system must not hold '/'")
        seen: dict[tuple[str, str], int] = {}
        for i, c in enumerate(self.components):
            k = seen.setdefault((c.source, c.term), i)
            if k != i:
                problems.append(
                    f"components[{i}]: duplicate component '{c.name}'"
                    f" (already declared at components[{k}])"
                )
        if problems:
            raise DocumentError("<component-set>", problems)


_ATTRIBUTE = obj(
    {"name": STRING, "datatype": maybe(STRING), "unit": maybe(STRING)},
    required="name",
    build=Attribute,
)
_OPERATION = obj(
    {"name": STRING, "params": maybe(STRINGS), "returns": maybe(STRING)},
    required="name",
    build=Operation,
)
_INTERFACES = maybe(list_of(TERM, "must be a list of strings"))
_COMPONENT_FIELDS = {
    "name": STRING,
    "kind": STRING,
    "doc": maybe(STRING),
    "attributes": maybe(list_of(_ATTRIBUTE)),
    "operations": maybe(list_of(_OPERATION)),
    "provides": _INTERFACES,
    "requires": _INTERFACES,
    "anchors": maybe(mapping(non_empty("must be a non-empty concept id"))),
}


def parse_component_set(document: str, *, source: str = "<component-set>") -> ComponentSet:
    """Parse a component-set document under the strict schema.

    Every violation is collected before the error is raised, so one run
    reports them all, each tagged with its JSON path. Duplicate
    components are reported only when nothing else is wrong.
    """
    return component_set_from_json(load_json(document, source), source=source)


def component_set_from_json(data, *, source: str = "<component-set>") -> ComponentSet:
    """Check a decoded component-set document; see parse_component_set."""
    system = data.get("system") if isinstance(data, dict) else None
    return check(_set_spec(system if isinstance(system, str) else ""), data, source)


def _system(value, path, problems):
    # the source of every component, which a path "<source>/<origin>" ends at the first "/"
    if isinstance(value, str) and "/" in value:
        problems.append(at(path, "must not hold '/'"))
    return NON_EMPTY(value, path, problems)


def _set_spec(system: str) -> Callable:
    # the schema of a component set whose components all come from system;
    # it writes any set, whatever its components' sources
    def component(**fields):
        return BusinessComponent(source=system, **fields)

    components = obj(_COMPONENT_FIELDS, required="name kind attributes operations", build=component)
    return obj(
        {"system": _system, "components": maybe(list_of(components))},
        required="system components",
        build=ComponentSet,
    )


def serialize_component_set(cs: ComponentSet) -> str:
    """Canonical document for a component set.

    The file format records a single system label, so per-component
    sources of a mixed-source set (a union or a merge result) are not
    round-tripped; reparsing assigns every component the set's system.
    """
    return dump_json(_set_spec(cs.system).write(cs))


def union(a: ComponentSet, b: ComponentSet) -> ComponentSet:
    """Concatenate two candidate sets, preserving each component's source.

    Identical (source, name) pairs across the inputs collide and raise.
    """
    if a.system == b.system:
        system = a.system
    elif not a.components:
        system = b.system
    elif not b.components:
        system = a.system
    else:
        system = f"{a.system}+{b.system}"
    return ComponentSet(system=system, components=a.components + b.components)


def check_layering(cs: ComponentSet) -> list[str]:
    """Warn when a component requires an interface provided above its layer.

    Layer order, top to bottom: process, entity, utility, data. The scan
    is advisory; it returns warnings and never fails.
    """
    providers: dict[str, list[BusinessComponent]] = {}
    for comp in cs.components:
        for name in comp.provides:
            providers.setdefault(normalize_term(name), []).append(comp)
    warnings = []
    for comp in cs.components:
        for name in comp.requires:
            for provider in providers.get(normalize_term(name), []):
                if _LAYER[comp.kind] < _LAYER[provider.kind]:
                    warnings.append(
                        f"{comp.source}/{comp.name} ({comp.kind}) requires '{name}'"
                        f" provided by {provider.source}/{provider.name}"
                        f" ({provider.kind}), which sits on a higher layer"
                    )
    return warnings
