"""One JSON rule for every report dataclass.

A dataclass becomes a JSON object of its fields in declaration order,
keyed by field name; a tuple becomes a list and an enum its value.
Decoding follows the field types (typing.get_type_hints): Optional,
tuple[X, ...], fixed-length tuples, nested dataclasses, enums, and the
scalars int, bool and float, coerced with int(x), bool(x) and float(x);
strings pass through. Three field metadata markers cover the documents
that differ from this rule:

  key(name)  write the field under another key
  FLAT       merge the nested object's keys into the parent object
  INLINE     write a one-field object as that field's value
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Union, get_args, get_origin, get_type_hints

_MARK = "json"
_FLAT, _INLINE = "<flat>", "<inline>"
FLAT = {_MARK: _FLAT}
INLINE = {_MARK: _INLINE}


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


def decode(tp, doc):
    origin = get_origin(tp)
    if origin is Union:
        (inner,) = [a for a in get_args(tp) if a is not type(None)]
        return None if doc is None else decode(inner, doc)
    if origin is tuple:
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], x) for x in doc)
        return tuple(decode(a, x) for a, x in zip(args, doc, strict=True))
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        kwargs = {}
        for f in fields(tp):
            mark = f.metadata.get(_MARK, f.name)
            item = doc if mark in (_FLAT, _INLINE) else doc[mark]
            kwargs[f.name] = decode(hints[f.name], item)
        return tp(**kwargs)
    if isinstance(tp, type) and issubclass(tp, (int, float, Enum)):
        return tp(doc)
    return doc


class JsonDoc:
    """Mixin giving a dataclass to_json() and from_json() by the rule above."""

    def to_json(self):
        return encode(self)

    @classmethod
    def from_json(cls, doc):
        return decode(cls, doc)
