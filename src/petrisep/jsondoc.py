"""One JSON rule for every report dataclass, and one equality, hash and
repr for every record.

A dataclass becomes a JSON object of its fields in declaration order,
keyed by field name; a tuple becomes a list and an enum its value.
Three field metadata markers cover the documents that differ from this
rule, and the __init__ that record compiles reads a fourth:

  key(name)  write the field under another key
  FLAT       merge the nested object's keys into the parent object
  INLINE     write a one-field object as that field's value
  TUPLE      store a tuple as given, convert another sequence or iterator
             (not a str, bytes, bytearray, set or mapping)
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import _FIELD_INITVAR, MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr

_MARK = "json"
_FLAT, _INLINE = "<flat>", "<inline>"
FLAT = {_MARK: _FLAT}
INLINE = {_MARK: _INLINE}
TUPLE = {"tuple": True}


def key(name: str) -> dict:
    return {_MARK: name}


def encode(value):
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            item = encode(getattr(value, f.name))
            mark = f.metadata.get(_MARK, f.name)
            if mark == _INLINE:
                return item
            if mark == _FLAT:
                doc.update(item)
            else:
                doc[mark] = item
        return doc
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [encode(x) for x in value]
    return value


def _as_tuple(items, name: str) -> tuple:
    # a string or bytes would give its characters or byte values, a mapping
    # its keys and a set its hash order
    if isinstance(items, (str, bytes, bytearray, Set, Mapping)):
        what = "string" if isinstance(items, str) else type(items).__name__
        raise TypeError(f"{name} must be a sequence of items, not the {what} {items!r}")
    return tuple(items)


# Every record of the package is declared with @record and derives from Record
# (a report through JsonDoc). dataclasses only collects the fields and compiles
# no method: Record holds the equality, hash, repr and frozen __setattr__ and
# __delattr__ all records share, and record compiles each class's __init__.
_bare = dataclass(init=False, eq=False, repr=False)


def record(cls):
    """Make cls a dataclass, frozen by Record, with the __init__ dataclasses
    would write (TUPLE fields converted), whose `_values(x)` gives the tuple
    of x's compare fields, read by Record's shared equality and hash, and
    whose `_repr_names` names its repr fields, read by Record's shared repr."""
    cls = _bare(cls)
    for f in cls.__dataclass_fields__.values():
        if f.default_factory is not MISSING or f.kw_only is True or f._field_type is _FIELD_INITVAR:
            raise TypeError(f"{cls.__name__}.{f.name}: @record supports no default_factory, "
                            "kw_only or InitVar field")
    # One parameter per init field, with its default and annotation, stored
    # by a bound object.__setattr__; init=False fields are __post_init__'s.
    scope = {"__name__": cls.__module__, "_set": object.__setattr__, "_as_tuple": _as_tuple}
    params, body, annotations = [], [], {}
    for f in fields(cls):
        if f.init:
            scope[f"_dflt_{f.name}"] = f.default
            params.append(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}")
            value = f.name
            if f.metadata.get("tuple"):  # a tuple argument pays one type test
                value = f"{value} if type({value}) is tuple else _as_tuple({value}, {value!r})"
            body.append(f"_set(self, {f.name!r}, {value})")
            annotations[f.name] = f.type
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__.__annotations__ = {**annotations, "return": None}
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names)
    # attrgetter of one name returns the bare value, not a 1-tuple
    cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))
    cls._repr_names = tuple(f.name for f in fields(cls) if f.repr)
    return cls


class Record:
    """Equality, hash and repr read from the dataclass fields, as the methods
    dataclasses generates give them: equal to a value of the same class with
    equal field values, the hash of their tuple, and Name(field=value, ...);
    setting or deleting an attribute raises FrozenInstanceError, as on a
    frozen dataclass."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    @recursive_repr()
    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_names)
        return f"{self.__class__.__qualname__}({args})"


class JsonDoc(Record):
    """Mixin giving a dataclass to_json() by the rule above."""

    def to_json(self):
        return encode(self)
