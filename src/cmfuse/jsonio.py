"""Strict JSON helpers shared by the file-format parsers and writers.

The readers declare their document shapes with the spec constructors
below. A spec is a callable ``spec(value, path, problems)`` that checks
one parsed JSON value found at ``path`` (a JSON path such as
``components[0].name``, or "" for the top level), appends one
``"<path>: <message>"`` diagnostic to ``problems`` per violation and
returns the checked value, or what its object's build made of it. A
caller that sees new problems never uses what came back.

The specs made by obj, list_of, mapping and ref also write: their
write attribute turns a value they read back into the JSON value they
read it from. Every other spec writes its value as it is, a tuple as a
list.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Any, Callable

from .errors import DocumentError

_ABSENT = object()
# the written values for which obj leaves out a field that is not required
_EMPTY = (None, [], {})


# the JSON decoder and the spec walkers both recurse once per nesting
# level; load_json and check report a RecursionError with this
_TOO_DEEP = "nesting too deep to read"


def load_json(document: str, source: str) -> Any:
    """Parse a JSON document, reporting syntax errors with line and column."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            source, [f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from None
    except RecursionError:
        raise DocumentError(source, [_TOO_DEEP]) from None


def dump_json(obj: Any) -> str:
    """Canonical serialization: UTF-8 text, two-space indent, trailing newline.

    The text is what json.dumps(obj, ensure_ascii=False, indent=2) gives,
    without the pure-Python encoder that indent selects: objects, lists,
    tuples and strings are laid out here, strings with the C encoder, and
    every other value is left to json.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def dump_pieces(fields: dict) -> Iterator[str]:
    """The text of dump_json(fields), one field at a time.

    A field whose value is an iterator is a list whose items come as
    texts already laid out at list-item depth, written one at a time, so
    a list that grows with the square of the input is never held whole.
    """
    separator = "{\n  "
    for key, value in fields.items():
        yield f"{separator}{encode_basestring(key)}: "
        if isinstance(value, Iterator):
            opening = "[\n"
            for item in value:
                yield opening + item
                opening = ",\n"
            yield "[]" if opening == "[\n" else "\n  ]"
        else:
            out: list[str] = []
            _write(value, "\n  ", out)
            yield "".join(out)
        separator = ",\n  "
    yield "{}\n" if separator == "{\n  " else "\n}\n"


def _write(obj: Any, indent: str, out: list[str]) -> None:
    # appends the text of obj to out; indent is the newline and the
    # indentation of the line obj starts on. Objects and lists have a loop
    # each, and a string item is written in line: a shared loop over
    # (prefix, value) pairs takes half as long again
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, value in obj.items():
            if type(value) is str:
                out.append(f"{separator}{encode_basestring(key)}: {encode_basestring(value)}")
            else:
                out.append(f"{separator}{encode_basestring(key)}: ")
                _write(value, inner, out)
            separator = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for value in obj:
            if type(value) is str:
                out.append(separator + encode_basestring(value))
            else:
                out.append(separator)
                _write(value, inner, out)
            separator = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    else:
        out.append(json.dumps(obj))


def check(spec: Callable, value: Any, source: str, path: str = "") -> Any:
    """Walk value with spec; return the result or raise every diagnostic at once."""
    problems: list[str] = []
    try:
        result = spec(value, path, problems)
    except RecursionError:
        raise DocumentError(source, [_TOO_DEEP]) from None
    if problems:
        raise DocumentError(source, problems)
    return result


def at(path: str, message: str) -> str:
    return f"{path}: {message}" if path else message


def maybe(spec: Callable) -> tuple:
    """An object field whose null value counts as absent."""
    return (spec, _ABSENT, True)


def or_null(spec: Callable) -> tuple:
    """An object field that is checked as null when it is absent."""
    return (spec, None, False)


def obj(
    fields: dict, required: str = "", build: Callable = dict, get: dict | None = None
) -> Callable:
    """An object with the given fields, checked in declaration order.

    fields maps each key to its spec, plain or wrapped in maybe or
    or_null; a None spec accepts the key without checking or keeping its
    value. required lists the keys that must be present; keys outside
    fields are unknown. When nothing below the object broke its spec,
    build is called with the checked fields as keyword arguments, and
    the diagnostics of a DocumentError it raises are reported at the
    object's path.

    The spec writes what build made as an object of the same fields, in
    declaration order: each field's value is get[key] of it when get has
    the key, else its attribute of that name, written by the field's
    spec. A field that is not required is left out when it writes as
    null or as an empty list or object.
    """
    required_keys = frozenset(required.split())
    allowed = frozenset(fields)
    plan = [
        (key, "." + key, *(spec if isinstance(spec, tuple) else (spec, _ABSENT, False)))
        for key, spec in fields.items()
        if spec is not None
    ]
    get = get or {}
    writers = [
        (key, get.get(key) or attrgetter(key), getattr(spec, "write", _plain), key in required_keys)
        for key, _, spec, _, _ in plan
    ]

    def walk(value, path, problems):
        if not isinstance(value, dict):
            problems.append(f"{path}: must be an object" if path else "top level must be an object")
            return None
        start = len(problems)
        keys = value.keys()
        if not (required_keys <= keys <= allowed):
            absent = sorted(required_keys - keys)
            problems += [at(path, f"missing required key '{k}'") for k in absent]
            problems += [at(path, f"unknown key '{k}'") for k in sorted(keys - allowed)]
        checked = {}
        for key, dotted, spec, missing, nullable in plan:
            item = value.get(key, missing)
            if item is _ABSENT or (nullable and item is None):
                continue
            checked[key] = spec(item, path + dotted if path else key, problems)
        if len(problems) > start:
            return None
        try:
            return build(**checked)
        except DocumentError as exc:
            problems += [at(path, d) for d in exc.diagnostics]
            return None

    def write(value) -> dict:
        out = {}
        for key, find, write_field, kept in writers:
            item = write_field(find(value))
            if kept or item not in _EMPTY:
                out[key] = item
        return out

    walk.write = write
    return walk


def list_of(item: Callable, message: str = "must be a list") -> Callable:
    """A list whose every element is checked by item; returns a tuple."""

    def walk(value, path, problems):
        if not isinstance(value, list):
            problems.append(at(path, message))
            return ()
        return tuple([item(element, f"{path}[{i}]", problems) for i, element in enumerate(value)])

    write_item = getattr(item, "write", _plain)
    walk.write = lambda value: [write_item(element) for element in value]
    return walk


def mapping(item: Callable) -> Callable:
    """An object with free keys whose every value is checked by item; it
    writes its keys sorted."""

    def walk(value, path, problems):
        if not isinstance(value, dict):
            problems.append(at(path, "must be an object"))
            return {}
        out = {}
        for k, v in value.items():
            where = f"{path}['{k}']"
            if bad := lone_surrogate(k):
                problems.append(at(where, "key " + bad))
            out[k] = item(v, where, problems)
        return out

    write_item = getattr(item, "write", _plain)
    walk.write = lambda value: {k: write_item(value[k]) for k in sorted(value)}
    return walk


def ref(target: Callable[[], Callable]) -> Callable:
    """The spec that target returns, looked up at each use, so that a
    shape can hold itself."""

    def walk(value, path, problems):
        return target()(value, path, problems)

    walk.write = lambda value: target().write(value)
    return walk


def _plain(value):
    # how a spec without a write of its own writes
    return list(value) if isinstance(value, tuple) else value


def leaf(test: Callable, message: str) -> Callable:
    """A value that test accepts."""

    def walk(value, path, problems):
        if not test(value):
            problems.append(at(path, message))
        return value

    return walk


# the JSON decoder pairs the surrogates of an astral character, so a
# surrogate left in a decoded string stands alone: only a \u escape puts
# it there, and no UTF-8 output can hold it
_SURROGATE = re.compile("[\ud800-\udfff]")


def lone_surrogate(text: str) -> str | None:
    """The diagnostic for a string that holds a lone surrogate, or None."""
    found = None if text.isascii() else _SURROGATE.search(text)
    return found and f"must not hold a lone surrogate (U+{ord(found.group()):04X})"


def string(message: str = "must be a string", test: Callable | None = None) -> Callable:
    """A string that test, when given, accepts; a lone surrogate in it is
    reported on its own."""

    def walk(value, path, problems):
        if not isinstance(value, str) or (test is not None and not test(value)):
            problems.append(at(path, message))
        elif bad := lone_surrogate(value):
            problems.append(at(path, bad))
        return value

    return walk


def non_empty(message: str = "must be a non-empty string") -> Callable:
    return string(message, bool)


def one_of(choices: tuple, message: str | None = None) -> Callable:
    return leaf(choices.__contains__, message or f"must be one of {', '.join(choices)}")


STRING = string()
NON_EMPTY = non_empty()
BOOLEAN = leaf(lambda v: isinstance(v, bool), "must be a boolean")


def _strings(value, path, problems):
    # judged as a whole, with one diagnostic however many elements are not
    # strings; then each lone surrogate at its element
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        problems.append(at(path, "must be a list of strings"))
        return value
    for i, s in enumerate(value):
        if bad := lone_surrogate(s):
            problems.append(at(f"{path}[{i}]", bad))
    return value


STRINGS = _strings
