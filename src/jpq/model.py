"""The JHM value model: atoms, arrays, and unique-keyed objects.

A document fragment is a `Value`.  Atoms are strings, numbers (arbitrary
precision decimals), booleans, or the distinguished `empty` atom, which maps
to JSON `null` on both input and output.  Objects preserve document order of
their members and reject duplicate keys outright.  Values are immutable after
construction and safe to share.
"""

from __future__ import annotations

import json
from decimal import Decimal
from typing import Iterator, Optional, Union

from .errors import DataError, DuplicateKeyError, JsonSyntaxError, UnknownDocumentError

AtomValue = Union[str, bool, Decimal, None]  # None represents `empty`


class Value:
    """Base class for JHM values."""

    __slots__ = ()


class Atom(Value):
    __slots__ = ("value",)

    def __init__(self, value: AtomValue | int | float):
        if isinstance(value, bool) or value is None or isinstance(value, (str, Decimal)):
            self.value = value
        elif isinstance(value, int):
            self.value = Decimal(value)
        elif isinstance(value, float):
            self.value = Decimal(repr(value))
        else:
            raise TypeError(f"not an atom value: {value!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        a, b = self.value, other.value
        # bool is an int subtype in Python; keep booleans apart from numbers
        if isinstance(a, bool) or isinstance(b, bool):
            return isinstance(a, bool) and isinstance(b, bool) and a == b
        if isinstance(a, Decimal) and isinstance(b, Decimal):
            return a == b  # numeric, not textual
        return type(a) is type(b) and a == b

    def __hash__(self) -> int:
        v = self.value
        return hash((isinstance(v, bool), v))

    def __repr__(self) -> str:
        return f"Atom({self.value!r})"


EMPTY = Atom(None)


class Array(Value):
    __slots__ = ("items",)

    def __init__(self, items: list[Value] | tuple[Value, ...] = ()):
        self.items = tuple(items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __repr__(self) -> str:
        return f"Array({list(self.items)!r})"


class Object(Value):
    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[str, Value]] | tuple[tuple[str, Value], ...] = ()):
        pairs = tuple(pairs)
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateKeyError(key, "")
            seen.add(key)
        self.pairs = pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Object):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def keys(self) -> list[str]:
        return [k for k, _ in self.pairs]

    def __repr__(self) -> str:
        return f"Object({list(self.pairs)!r})"


class _RawObject:
    """Intermediate carrier so json.loads keeps duplicate keys for us to report."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs


def parse_document(text: str) -> Value:
    """Parse JSON text into a Value, preserving member order.

    Raises JsonSyntaxError with line/column on malformed input,
    DuplicateKeyError naming the key and its object path when an object
    repeats a key, and DataError when the document nests too deeply.
    """
    try:
        raw = json.loads(
            text,
            object_pairs_hook=_RawObject,
            parse_float=Decimal,
            parse_int=Decimal,
        )
        return _convert(raw, "$")
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise DataError("document nests too deeply to parse") from None


def _convert(raw, path: str) -> Value:
    if isinstance(raw, _RawObject):
        seen = set()
        pairs = []
        for key, sub in raw.pairs:
            if key in seen:
                raise DuplicateKeyError(key, path)
            seen.add(key)
            pairs.append((key, _convert(sub, f"{path}.{key}")))
        obj = Object.__new__(Object)
        obj.pairs = tuple(pairs)
        return obj
    if isinstance(raw, list):
        return Array([_convert(item, f"{path}[{i}]") for i, item in enumerate(raw)])
    return Atom(raw)


def serialize(v: Value, pretty: bool = False) -> str:
    """Render a Value as standard JSON text.

    parse_document(serialize(v)) is structurally equal to v.
    """
    out: list[str] = []
    _write(v, out, 0, pretty)
    return "".join(out)


def _write(v: Value, out: list[str], depth: int, pretty: bool) -> None:
    if isinstance(v, Atom):
        out.append(_atom_text(v.value))
        return
    pad, inner = ("", "") if not pretty else ("  " * depth, "  " * (depth + 1))
    sep = "," if not pretty else ",\n"
    nl = "" if not pretty else "\n"
    if isinstance(v, Array):
        if not v.items:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, item in enumerate(v.items):
            if i:
                out.append(sep)
            out.append(inner)
            _write(item, out, depth + 1, pretty)
        out.append(nl + pad + "]")
        return
    if isinstance(v, Object):
        if not v.pairs:
            out.append("{}")
            return
        out.append("{" + nl)
        colon = ":" if not pretty else ": "
        for i, (key, sub) in enumerate(v.pairs):
            if i:
                out.append(sep)
            out.append(inner + json.dumps(key) + colon)
            _write(sub, out, depth + 1, pretty)
        out.append(nl + pad + "}")
        return
    raise TypeError(f"not a Value: {v!r}")


def _atom_text(value: AtomValue) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Decimal):
        return str(value)
    return json.dumps(value)


def get_field(v: Value, key: str) -> Optional[Value]:
    """Value under `key` if v is an object containing it, else None (absent)."""
    if isinstance(v, Object):
        for k, sub in v.pairs:
            if k == key:
                return sub
    return None


def preorder(v: Value) -> Iterator[Value]:
    """v itself, then every nested value, preorder; objects before arrays as laid out."""
    yield v
    if isinstance(v, Object):
        for _, sub in v.pairs:
            yield from preorder(sub)
    elif isinstance(v, Array):
        for item in v.items:
            yield from preorder(item)


class DocRegistry:
    """Named root documents available to `doc("name")` sources.

    Populated before evaluation, read-only afterwards.  Looking up an
    unregistered name is an error, never a silent empty document.
    """

    def __init__(self) -> None:
        self._docs: dict[str, Value] = {}

    def register(self, name: str, root: Value) -> None:
        if name in self._docs:
            raise DataError(f"document {name!r} is already registered")
        self._docs[name] = root

    def lookup(self, name: str) -> Value:
        try:
            return self._docs[name]
        except KeyError:
            raise UnknownDocumentError(name) from None
