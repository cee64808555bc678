"""Immutable value records, without importing dataclasses.

record gives a class the methods that @dataclass(frozen=True) writes,
with the same behaviour and repr text, plus _replace, as namedtuple has
it. Its fields are the class's annotations, in order; a field's default
is its class attribute, or a field(...). The methods come from one exec,
as namedtuple makes its __new__: dataclasses imports inspect (and with
it ast, dis and tokenize) and builds each method on its own, which costs
every process that imports cmfuse about 24 ms.
"""

_MISSING = object()
_METHODS = "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "_replace"


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a record."""


class field:
    """A field with a default factory, or one left out of the hash."""

    __slots__ = ("default", "default_factory", "hash")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, hash=True):
        self.default = default
        self.default_factory = default_factory
        self.hash = hash


def record(cls):
    """Make cls a frozen record of the fields its annotations name."""
    fields = {}
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if not isinstance(value, field):
            value = field(default=value)
        elif value.default is _MISSING:
            delattr(cls, name)
        else:
            # the default stays a class attribute, as dataclasses leaves it
            setattr(cls, name, value.default)
        fields[name] = value
    # fields are set as dataclasses sets them, through object.__setattr__:
    # writing to __dict__ would slow every later read of the attribute
    namespace = {"_MISSING": _MISSING, "_set": object.__setattr__, "Frozen": FrozenInstanceError}
    params, sets = [], []
    for name, f in fields.items():
        if f.default_factory is not _MISSING:
            namespace[f"_f_{name}"] = f.default_factory
            params.append(f"{name}=_MISSING")
            sets.append(f"  _set(self, {name!r}, _f_{name}() if {name} is _MISSING else {name})\n")
        else:
            namespace[f"_d_{name}"] = f.default
            params.append(name if f.default is _MISSING else f"{name}=_d_{name}")
            sets.append(f"  _set(self, {name!r}, {name})\n")
    if hasattr(cls, "__post_init__"):
        sets.append("  self.__post_init__()\n")
    hashed = "".join(f"self.{name}," for name, f in fields.items() if f.hash)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
    copied = "".join(f"{name!r}: self.{name}, " for name in fields)
    exec(
        f"def __init__(self, {', '.join(params)}):\n{''.join(sets)}"
        "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return ({''.join(f'self.{n},' for n in fields)})"
        f" == ({''.join(f'other.{n},' for n in fields)})\n"
        "  return NotImplemented\n"
        f"def __hash__(self):\n  return hash(({hashed}))\n"
        f'def __repr__(self):\n  return f"{{self.__class__.__qualname__}}({shown})"\n'
        "def __setattr__(self, name, value):\n"
        '  raise Frozen(f"cannot assign to field {name!r}")\n'
        "def __delattr__(self, name):\n"
        '  raise Frozen(f"cannot delete field {name!r}")\n'
        f"def _replace(self, /, **changes):\n  return self.__class__(**{{{copied}**changes}})\n",
        namespace,
    )
    for name in _METHODS:
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls._fields = cls.__match_args__ = tuple(fields)
    return cls
