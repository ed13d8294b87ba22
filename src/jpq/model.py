"""The JHM value model as plain Python values: `dict` (an object, members in
document order), `list`, `str`, `Decimal`, `bool` and `None` (`null`), never
mutated once built.  JPQ equality compares `key`s; `==` is not it."""

from __future__ import annotations

import json
from decimal import Decimal
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Union

from .errors import DataError, DuplicateKeyError, JsonSyntaxError, UnknownDocumentError

Value = Union[dict, list, str, Decimal, bool, None]
MISSING = object()  # what get_field finds where an object has no such member


def parse_document(text: str) -> Value:
    """Parse JSON text into a Value.  Raises JsonSyntaxError (with line and
    column), DuplicateKeyError (with the object's path) or DataError."""
    numbers = dict(parse_int=Decimal, parse_float=Decimal, parse_constant=Decimal)
    try:
        try:
            return json.loads(text, object_pairs_hook=_object, **numbers)
        except DuplicateKeyError:  # parse again, objects as tuples of pairs, to say where
            _first_duplicate(json.loads(text, object_pairs_hook=tuple), "$")
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise DataError("document nests too deeply to parse") from None


def _object(pairs: list[tuple[str, Value]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise DuplicateKeyError("", "")  # parse_document finds which, and where
    return obj


def _first_duplicate(raw, path: str) -> None:
    """Raise for the first repeated key; a key is checked before its member."""
    if isinstance(raw, tuple):
        seen = set()
        for k, sub in raw:
            if k in seen:
                raise DuplicateKeyError(k, path)
            seen.add(k)
            _first_duplicate(sub, f"{path}.{k}")
    elif isinstance(raw, list):
        for i, item in enumerate(raw):
            _first_duplicate(item, f"{path}[{i}]")


def serialize(v: Value, pretty: bool = False) -> str:
    """Render a Value as standard JSON text; parsing it gives v back."""
    if type(v) is not dict and type(v) is not list:
        return serialize([v])[1:-1]  # written as an array's one item
    out: list[str] = []
    try:
        _write(v, out.append, "\n" if pretty else "", *(("  ", ": ") if pretty else ("", ":")), {})
    except RecursionError:
        raise DataError("result nests too deeply to serialize") from None
    return "".join(out)


def _write(v: Value, put: Callable[[str], None], nl: str, step: str, colon: str,
           keys: dict[str, str]) -> None:
    """Write the object or array v; a string, number, boolean or null in it
    is written in this loop, a container by recursion.  `nl` starts a line
    at v's depth; `step` indents one level more.  `keys` holds each key
    met in this `serialize` call, encoded once, with its colon."""
    inner = nl + step
    comma = "," + inner
    if type(v) is dict:
        sep, close = "{" + inner, "}"
        for k, sub in v.items():
            head = keys.get(k) or keys.setdefault(k, encode_basestring_ascii(k) + colon)
            kind = type(sub)
            if kind is str:
                put(sep + head + encode_basestring_ascii(sub))
            elif kind is Decimal:
                put(sep + head + str(sub))
            elif kind is dict or kind is list:
                put(sep + head)
                _write(sub, put, inner, step, colon, keys)
            else:
                put(sep + head + ("null" if sub is None else "true" if sub else "false"))
            sep = comma
    else:
        sep, close = "[" + inner, "]"
        for sub in v:
            kind = type(sub)
            if kind is str:
                put(sep + encode_basestring_ascii(sub))
            elif kind is Decimal:
                put(sep + str(sub))
            elif kind is dict or kind is list:
                put(sep)
                _write(sub, put, inner, step, colon, keys)
            else:
                put(sep + ("null" if sub is None else "true" if sub else "false"))
            sep = comma
    # an empty one closes right after its opening bracket
    put((nl if v else sep[0]) + close)


def key(v: Value, nan_equal: bool = False):
    """v's hashable key for JPQ equality: numbers numerically, booleans apart,
    members in order; a container keys as its nodes' tokens in preorder.  A
    NaN keys as a fresh token, so it and any container holding it equal
    nothing; with `nan_equal` every NaN keys alike, as a grouping key's one
    NaN class."""
    if type(v) is str:
        return v
    if type(v) is dict or type(v) is list:
        return tuple(_token(s, nan_equal) for s in preorder(v))
    return _token(v, nan_equal)


def _token(v: Value, nan_equal: bool):
    kind = type(v)
    if kind is str:
        return v
    if kind is Decimal:
        return (("NaN",) if nan_equal else object()) if v.is_nan() else v
    if kind is dict or kind is list:  # the shape that the tokens after it fill
        return (dict, tuple(v)) if kind is dict else (list, len(v))
    return (bool, v) if kind is bool else v


def get_field(v: Value, name: str) -> Value:
    """Value under `name` if v is an object containing it, else MISSING."""
    return v.get(name, MISSING) if isinstance(v, dict) else MISSING


def preorder(v: Value) -> Iterator[Value]:
    """v, then every value nested in it, preorder; a stack serves any depth."""
    stack = [v]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, (dict, list)):
            stack.extend(reversed(v.values() if isinstance(v, dict) else v))


class DocRegistry:
    """Named root documents for `doc("name")`; an unknown name is an error."""

    def __init__(self) -> None:
        self._docs: dict[str, Value] = {}

    def register(self, name: str, root: Value) -> None:
        if name in self._docs:
            raise DataError(f"document {name!r} is already registered")
        self._docs[name] = root

    def lookup(self, name: str) -> Value:
        if name not in self._docs:
            raise UnknownDocumentError(name)
        return self._docs[name]
