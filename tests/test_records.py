"""cmfuse's records against the stdlib dataclasses they stand in for.

Each record class has a twin: its own class body, with @record and
field read as @dataclass(frozen=True) and dataclasses.field. The twin is
the reference, and each record must agree with it on construction,
equality, hashing, repr, immutability, _replace (against
dataclasses.replace), pickling and copying, over random field values.
"""

from __future__ import annotations

import __future__
import copy
import dataclasses
import inspect
import pickle
import random
import re
import sys
import textwrap
from fractions import Fraction

import pytest

from cmfuse import (
    KINDS,
    Alignment,
    AlignmentDocument,
    AnchorResult,
    Attribute,
    BusinessComponent,
    ComponentOntology,
    ComponentSet,
    Concept,
    Correspondence,
    DomainConcept,
    DomainOntology,
    Endpoint,
    MergedComponent,
    MergedRoot,
    Operation,
    PairScore,
    RepresentationOntology,
    Thesaurus,
    ThesaurusEntry,
)
from cmfuse._record import FrozenInstanceError, field

RECORDS = [
    Attribute,
    Operation,
    BusinessComponent,
    ComponentSet,
    DomainConcept,
    ThesaurusEntry,
    Thesaurus,
    AnchorResult,
    PairScore,
    Concept,
    ComponentOntology,
    Endpoint,
    Alignment,
    MergedRoot,
    RepresentationOntology,
    MergedComponent,
    AlignmentDocument,
]


def _twin(cls):
    # the class's own source, made again by the stdlib in a copy of its module's namespace
    module = sys.modules[cls.__module__]
    source = textwrap.dedent(inspect.getsource(cls))
    assert source.startswith("@record\nclass "), source[:40]
    namespace = {
        **vars(module),
        "record": dataclasses.dataclass(frozen=True),
        "field": dataclasses.field,
    }
    flags = __future__.annotations.compiler_flag
    exec(compile(source, module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    return namespace[cls.__name__]


TWINS = {cls: _twin(cls) for cls in RECORDS}

# small pools, so that random values are often equal
_DOMAINS = [DomainOntology([DomainConcept("c1", "L")]), DomainOntology([])]


def _some(rng, items):
    return tuple(rng.sample(items, rng.randrange(len(items) + 1)))


def _score(rng):
    den = rng.randrange(1, 5)
    return Fraction(rng.randrange(den + 1), den)


def _atoms():
    kinds = (("a", "attribute"), ("b", "attribute"), ("l()", "operation"))
    return [Concept(term, term.upper(), kind) for term, kind in kinds]


def _values(cls, rng) -> dict:
    """Random keyword arguments for cls, every field given, that its
    __post_init__ accepts."""
    pick = rng.choice
    if cls is Attribute:
        return dict(name=pick(["a", "Nom"]), datatype=pick([None, "str"]), unit=pick([None, "m"]))
    if cls is Operation:
        return dict(
            name=pick(["lire", "lire()", "ecrire"]),
            params=pick([(), ["x"], ("x", "y")]),
            returns=pick([None, "bool"]),
        )
    if cls is BusinessComponent:
        return dict(
            name=pick("CD"),
            kind=pick(KINDS[:2]),
            source=pick("ST"),
            doc=pick([None, "d"]),
            attributes=_some(rng, [Attribute("a"), Attribute("b", "int")]),
            operations=_some(rng, [Operation("x"), Operation("y()", ("p",))]),
            provides=pick([(), ("p",)]),
            requires=pick([(), ["q"]]),
            anchors=pick([{}, {"a": "c1"}, {"a": "c2"}]),
        )
    if cls is ComponentSet:
        pool = [BusinessComponent(name, "entity", "S") for name in "CD"]
        return dict(system=pick("st"), components=_some(rng, pool))
    if cls is DomainConcept:
        return dict(
            id=pick(["c1", "c2"]),
            label=pick("LM"),
            parent=pick([None, "c1"]),
            definitions=pick([(), ("d",)]),
        )
    if cls is ThesaurusEntry:
        return dict(concept=pick(["c1", "c2"]), terms=pick([("a",), ("a", "b")]))
    if cls is Thesaurus:
        entries = [ThesaurusEntry("c1", ("a",)), ThesaurusEntry("c2", ("b",))]
        return dict(entries=_some(rng, entries))
    if cls is AnchorResult:
        kinds = [("none", ()), ("unique", ("c1",)), ("unique", ("c2",))]
        kinds.append(("ambiguous", ("c1", "c2")))
        return dict(zip(("kind", "concepts"), pick(kinds)))
    if cls is PairScore:
        cells = [(), ((0, 1, Fraction(1)),), ((0, 0, Fraction(1, 2)),)]
        return dict(aggregate=_score(rng), cells=pick(cells))
    if cls is Concept:
        kind = pick(["component", "attribute"])
        return dict(
            term=pick("ab"),
            raw_label=pick("Aa"),
            kind=kind,
            definitions=pick([(), ["d"]]),
            members=_some(rng, _atoms()) if kind == "component" else (),
            anchor=pick([None, "c1"]),
        )
    if cls is ComponentOntology:
        return dict(
            source=pick("ST"),
            origin=pick("CD"),
            root=Concept("r", "R", "component", members=_some(rng, _atoms())),
            kind=pick(["entity", "process"]),
            provides=pick([(), ["p"]]),
            requires=pick([(), ("q",)]),
        )
    if cls is Endpoint:
        return dict(source=pick("ST"), origin=pick("CD"), member=pick([None, "m"]))
    if cls is Alignment:
        ends = [Endpoint("S", "C"), Endpoint("T", "C"), Endpoint("T", "D", "m")]
        corrs = [Correspondence(ends[0], end, Fraction(1), "equivalent") for end in ends[1:]]
        return dict(
            correspondences=_some(rng, corrs),
            diagnostics=pick([(), ("odd",)]),
            mode=pick(["literal", "bipartite"]),
        )
    if cls is MergedRoot:
        return dict(
            ontology=ComponentOntology(**_values(ComponentOntology, rng)),
            merged_from=_some(rng, [Endpoint("S", "C"), Endpoint("T", "D")]),
        )
    if cls is RepresentationOntology:
        graph = ComponentOntology("S", "C", Concept("c", "C", "component"))
        return dict(
            roots=pick([(), (MergedRoot(graph, (Endpoint("S", "C"),)),)]),
            equivalences=pick([(), (("S/C", "T/C"),)]),
        )
    if cls is MergedComponent:
        return dict(
            representation=RepresentationOntology(**_values(RepresentationOntology, rng)),
            result=_some(rng, [BusinessComponent("C", "entity", "S")]),
        )
    if cls is AlignmentDocument:
        return dict(
            alignment=Alignment(**_values(Alignment, rng)),
            graphs=_some(rng, [ComponentOntology(**_values(ComponentOntology, rng))]),
            domain=pick(_DOMAINS),
        )
    raise AssertionError(cls)


# keyword arguments that each __post_init__ rejects
_REJECTED = {
    Attribute: [dict(name="  ")],
    Operation: [dict(name="()")],
    BusinessComponent: [
        dict(name="C", kind="bogus", source=""),
        dict(name="C", kind="entity", source="S", attributes=[Attribute("a"), Attribute("A")]),
        dict(
            name="C",
            kind="entity",
            source="S",
            attributes=[Attribute("a")],
            operations=[Operation("a")],
        ),
    ],
    ComponentSet: [dict(system="", components=[BusinessComponent("C", "entity", "S")] * 2)],
    AnchorResult: [dict(kind="odd"), dict(kind="ambiguous", concepts=("c1",)), dict(kind="unique")],
    Concept: [
        dict(term="", raw_label="", kind="odd"),
        dict(term="a", raw_label="a", kind="component", members=[Concept("r", "r", "component")]),
    ],
    ComponentOntology: [
        dict(source="", origin="", root=Concept("a", "a", "attribute")),
        dict(source="S/T", origin="C", root=Concept("c", "C", "component")),
    ],
}


def _outcome(make):
    # what making a value gives: its repr, or the type and text of what it raised
    try:
        return repr(make())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _cases(cls, n=40):
    rng = random.Random(f"records/{cls.__name__}")
    return [_values(cls, rng) for _ in range(n)]


def test_the_records_are_the_classes_decorated_with_record():
    found = set()
    for module in {sys.modules[cls.__module__] for cls in RECORDS}:
        found.update(re.findall(r"^@record\nclass (\w+)", inspect.getsource(module), re.M))
    assert found == {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstDataclasses:
    def test_fields(self, cls):
        twin = TWINS[cls]
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
        assert cls.__match_args__ == twin.__match_args__
        for name in cls._fields:
            # a plain default stays a class attribute; a factory's does not
            assert getattr(cls, name, "absent") == getattr(twin, name, "absent")

    def test_construction(self, cls):
        twin = TWINS[cls]
        for values in _cases(cls):
            record = cls(**values)
            assert repr(record) == repr(twin(**values))
            assert repr(cls(*values.values())) == repr(record)
        # the fields without a default, alone, then each missing in turn
        required = {
            f.name: values[f.name]
            for f in dataclasses.fields(twin)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }
        assert _outcome(lambda: cls(**required)) == _outcome(lambda: twin(**required))
        for name in required:
            fewer = {k: v for k, v in required.items() if k != name}
            assert _outcome(lambda: cls(**fewer)) == _outcome(lambda: twin(**fewer))
        too_many = [*values.values(), None]
        assert _outcome(lambda: cls(*too_many)) == _outcome(lambda: twin(*too_many))
        assert _outcome(lambda: cls(**values, bogus=1)) == _outcome(lambda: twin(**values, bogus=1))

    def test_default_factories_make_a_new_value_each_time(self, cls):
        twin = TWINS[cls]
        fields = dataclasses.fields(twin)
        made = [f.name for f in fields if f.default_factory is not dataclasses.MISSING]
        values = _cases(cls, 1)[0]
        bare = {k: v for k, v in values.items() if k not in made}
        for name in made:
            first, second = cls(**bare), cls(**bare)
            assert getattr(first, name) == getattr(twin(**bare), name)
            assert getattr(first, name) is not getattr(second, name)

    def test_post_init_errors(self, cls):
        for values in _REJECTED.get(cls, []):
            outcome = _outcome(lambda: cls(**values))
            assert isinstance(outcome, tuple), outcome
            assert outcome == _outcome(lambda: TWINS[cls](**values))

    def test_equality_and_hash(self, cls):
        twin = TWINS[cls]
        cases = _cases(cls)
        rng = random.Random(f"pairs/{cls.__name__}")
        for a, b in zip(cases, rng.sample(cases, len(cases))):
            assert (cls(**a) == cls(**b)) == (twin(**a) == twin(**b))
            assert (cls(**a) != cls(**b)) == (twin(**a) != twin(**b))
            assert hash(cls(**a)) == hash(twin(**a))
            if cls(**a) == cls(**b):
                assert hash(cls(**a)) == hash(cls(**b))
        assert cls(**a) != twin(**a) and twin(**a) != cls(**a)
        assert cls(**a) != object()

    def test_assignment_and_deletion_raise(self, cls):
        twin = TWINS[cls]
        values = _cases(cls, 1)[0]
        record, reference = cls(**values), twin(**values)
        for name in (*values, "other"):
            for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                with pytest.raises(FrozenInstanceError) as got:
                    act(record)
                with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                    act(reference)
                assert isinstance(got.value, AttributeError)
                assert str(got.value) == str(expected.value)
        assert repr(record) == repr(reference)

    def test_replace(self, cls):
        twin = TWINS[cls]
        cases = _cases(cls)
        rng = random.Random(f"replace/{cls.__name__}")
        for values, other in zip(cases, reversed(cases)):
            changes = {k: other[k] for k in rng.sample(list(other), rng.randrange(len(other) + 1))}
            assert _outcome(lambda: cls(**values)._replace(**changes)) == _outcome(
                lambda: dataclasses.replace(twin(**values), **changes)
            )
        assert _outcome(lambda: cls(**values)._replace(bogus=1)) == _outcome(
            lambda: dataclasses.replace(twin(**values), bogus=1)
        )

    def test_pickle_and_copy(self, cls):
        twin = TWINS[cls]
        for values in _cases(cls, 10):
            record = cls(**values)
            copies = [copy.copy(record), copy.deepcopy(record)]
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copies.append(pickle.loads(pickle.dumps(record, protocol)))
            for made in copies:
                assert type(made) is cls and made == record and repr(made) == repr(record)
            reference = twin(**values)
            assert copy.deepcopy(reference) == reference
            assert repr(copy.copy(reference)) == repr(copies[0])


def test_cached_properties_live_outside_the_fields():
    end = Endpoint("S", "C", "m")
    assert end.path == "S/C/m" and end.path is end.path
    assert repr(end) == "Endpoint(source='S', origin='C', member='m')"
    assert end._replace(member=None).path == "S/C"
    alignment = Alignment((Correspondence(Endpoint("S", "C"), end, Fraction(1), "equivalent"),))
    assert alignment.roots == alignment.correspondences
    assert pickle.loads(pickle.dumps(alignment)) == alignment


def test_an_alignment_holds_what_its_document_holds():
    # no field is left out of == or repr, so record's field takes no option for it
    assert Alignment._fields == ("correspondences", "diagnostics", "mode")
    for option in ("repr", "compare"):
        with pytest.raises(TypeError):
            field(**{option: False})


def test_a_record_matches_its_fields():
    match Endpoint("S", "C", "m"):
        case Endpoint(source, origin, member=None):
            pytest.fail(f"{source}/{origin} has a member")
        case Endpoint(source, "C", member):
            assert (source, member) == ("S", "m")


class TestHashableComponents:
    def test_equal_components_hash_equal(self, biblio1):
        for component in biblio1.components:
            again = component._replace(anchors=dict(component.anchors))
            assert again == component and hash(again) == hash(component)

    def test_anchors_count_for_equality_only(self):
        plain = BusinessComponent("C", "entity", "S", attributes=[Attribute("a")])
        anchored = plain._replace(anchors={"a": "c1"})
        assert plain != anchored
        assert hash(plain) == hash(anchored)
        assert len({plain, anchored, plain._replace()}) == 2

    def test_hints_that_differ_only_in_spelling_are_equal(self):
        plain = BusinessComponent("C", "entity", "S", attributes=[Attribute("Nom")])
        assert plain._replace(anchors={"Nom ": "c1"}) == plain._replace(anchors={"nom": "c1"})

    def test_components_and_sets_go_into_a_set(self, biblio1, biblio2):
        components = {*biblio1.components, *biblio2.components, *biblio1.components}
        assert len(components) == len(biblio1.components) + len(biblio2.components)
        again = ComponentSet(biblio1.system, list(biblio1.components))
        assert {biblio1, biblio2, again} == {biblio1, biblio2}


def test_thesaurus_entry_stores_its_terms_normalized():
    assert ThesaurusEntry("c", ("Nom ",)).terms == ("nom",)
