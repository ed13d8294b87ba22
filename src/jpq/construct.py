"""Construct-clause evaluation: building output values from a restructured
match result.

The backbone of a construction pattern is its underlying matching term
(constants erased), derived in ast.py and re-exported here.  A construction
and the restructured term its result has are compiled once into a tree of
closures, one per pattern node.  The compile step fixes how each node's flat
tuple slots are split among its sub-patterns, how a folded array lays out
its classes, and where an ordering variable sits in an element.  A node that
does not fit its term compiles to a closure that raises, so the error comes
only when a result reaches it.
Each class of a folded array is built by the same closures, as one element
whose slots hold the class key and the class members.
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import Decimal

from . import ast as A
from .ast import backbone  # noqa: F401  (re-exported)
from .errors import ConstructionError, ShapeMismatchError, TypeError_
from .filtering import eval_builtin
from .matching import (
    _combine,
    MArray,
    MatchResult,
    MBind,
    MTuple,
    chosen,
    shaped,
    succeeded,
    value_of,
)
from .model import Value
from .terms import (
    ArrayT,
    DistinctT,
    OptionT,
    Term,
    TupleT,
    class_members,
    components,
    is_unit,
    one_value_paths,
    render,
    tuple_of,
    var_set,
)

Build = Callable[[MatchResult], Value]


def build_empty(cp: A.ConstructionPattern) -> Value:
    """The output when everything was filtered away: arrays come out empty,
    data positions come out null."""
    if isinstance(cp, A.CLit):
        return cp.value
    if isinstance(cp, A.CObject):
        return {k: build_empty(sub) for k, sub in cp.members}
    if isinstance(cp, (A.CArray, A.CFlatArray)):
        return []
    return None


def build(cp: A.ConstructionPattern, built: Build, r: MatchResult) -> Value:
    """What `built`, cp's builder (`compile_construction`), makes of `r`; a
    failed result builds `build_empty(cp)`."""
    return built(r) if succeeded(r) else build_empty(cp)


def _fails(error: type, message: str) -> Build:
    def fail(r: MatchResult) -> Value:
        raise error(message)
    return fail


def compile_construction(cp: A.ConstructionPattern, t: Term) -> Build:
    """The builder of `cp` from a successful result of term `t`."""
    kind = type(cp)  # cheaper than isinstance; pattern classes have no subclasses
    if kind is A.CLit:
        return lambda r, value=cp.value: value
    if kind is A.CVarRef:
        def var(r: MatchResult, name=cp.name) -> Value:
            if type(r) is MBind:
                return r.value
            raise ShapeMismatchError(f"${name} is not bound to a single value")
        return var
    if kind is A.CDistinctRef:
        return value_of  # only a grouped array's classes offer a key here
    if kind is A.CObject:
        keys, members = [key for key, _ in cp.members], _parts(t, [sub for _, sub in cp.members])
        return lambda r: dict(zip(keys, members(r)))
    if kind is A.CFun:
        args = _parts(t, cp.args)
        return lambda r: _call(cp.name, args(r))
    if kind is A.COption:
        if is_unit(cp.backbone):
            # constants-only option: nothing to select on, first branch wins
            return compile_construction(cp.branches[0], t)
        if not isinstance(t, OptionT):
            return _fails(ShapeMismatchError, f"expected an option term, not {render(t)}")
        branches = [compile_construction(b, bt) for b, bt in zip(cp.branches, t.branches)]

        def option(r: MatchResult) -> Value:
            i = chosen(shaped(r, t))
            return branches[i](r.branches[i])
        return option
    if kind is A.CArray or kind is A.CFlatArray:
        return _array(cp, t)
    raise TypeError_(f"not a construction pattern: {cp!r}")


def _parts(t: Term, subs) -> Callable[[MatchResult], list]:
    """The values of `subs` from a result of `t`, in order, each built from
    its share of t's flat tuple slots: one slot for a sub-pattern of one
    component, else as many slots as it has components, as one tuple."""
    slots, takes, i = components(t), [], 0
    for sub in subs:
        k = len(components(sub.backbone))
        if k == 1 and i < len(slots):
            takes.append((i, None, compile_construction(sub, slots[i])))
        elif len(slots) - i < k:
            error = "construction pattern is wider than the result"
            takes.append((0, 0, _fails(ShapeMismatchError, error)))
            break  # the builds after it are never reached
        else:
            takes.append((i, k, compile_construction(sub, TupleT(slots[i:i + k]))))
        i += k
    is_tuple = isinstance(t, TupleT)

    def parts(r: MatchResult) -> list:
        items = shaped(r, t).items if is_tuple else (r,)
        return [built(items[i] if k is None else MTuple(items[i:i + k])) for i, k, built in takes]
    return parts


def _array(cp, t: Term) -> Build:
    if is_unit(cp.backbone):
        elem = compile_construction(cp.elem, t)  # constants only: built once, as written
        return lambda r: [elem(r)]
    if not isinstance(t, ArrayT):
        return _fails(ShapeMismatchError, f"expected an array term, not {render(t)}")
    if t.flat:
        # the flattened array's elements were spliced into the enclosing
        # array; here one spliced element remains
        return compile_construction(cp.elem, t.elem)
    # a ^[...] over a plain array term is a grouped class's content
    order = cp.order if type(cp) is A.CArray else None
    if type(cp) is A.CArray and isinstance(cp.groupby, DistinctT):
        if not t.folded:
            return _fails(ShapeMismatchError, "groupby construction needs a folded result")
        class_t, key_t = t.elem.items
        shows = class_members(class_t.elem, key_t, cp.backbone.elem.items[0].elem)
        if shows is None:
            error = f"a class of {render(t)} does not show its members as built"
            return _fails(ShapeMismatchError, error)
        elem, key = _class(cp, t, *shows), lambda cls: value_of(cls.items[1])
    else:
        elem = compile_construction(cp.elem, t.elem)
        key = order and _reader(*var_set(cp.groupby), t.elem)

    def array(r: MatchResult) -> Value:
        items = shaped(r, t).items
        values = [elem(item) for item in items]
        return values if order is None else _sorted_by(values, [key(i) for i in items], order)
    return array


def _class(cp: A.CArray, t: ArrayT, kept: list[bool], shown: Term) -> Build:
    """A class of the folded array t built as one element: its key components
    take the class key, its content component the class members as
    `class_members` shows them (`kept`, `shown`), with or without a copy of
    the key."""
    class_t, key_t = t.elem.items
    member_t = class_t.elem
    is_key = [isinstance(c, DistinctT) for c in components(cp.elem.backbone)]
    content_t = ArrayT(shown, class_t.index)
    elem = compile_construction(cp.elem, tuple_of([key_t if k else content_t for k in is_key]))
    slots = [(i, c) for i, (c, k) in enumerate(zip(components(member_t), kept)) if k]
    member_is_tuple = isinstance(member_t, TupleT)

    def content(m: MatchResult) -> MatchResult:
        items = shaped(m, member_t).items if member_is_tuple else (m,)
        return _combine([(c, items[i]) for i, c in slots])

    def built(cls: MatchResult) -> Value:
        class_r, key_r = shaped(cls, t.elem).items
        content_r = MArray([content(m) for m in shaped(class_r, class_t).items])
        parts = [key_r if k else content_r for k in is_key]
        return elem(parts[0] if len(parts) == 1 else MTuple(parts))
    return built


def _reader(name: str, t: Term) -> Build:
    """The value of `name` in a result of the element term `t`, read at the
    first place outside t's nested arrays (`one_value_paths`) that the
    result binds: an option's branch not taken binds nothing."""
    routes = [[i for node, i in walk if isinstance(node, (TupleT, OptionT))]
              for walk in one_value_paths(t, name)]

    def read(r: MatchResult) -> Value:
        for route in routes:
            node = r
            for i in route:
                node = node.parts()[i] if succeeded(node) else node
            if type(node) is MBind:
                return node.value
        raise ConstructionError(f"ordering variable ${name} is not bound in the array element")
    return read


def _call(name: str, args: list[Value]) -> Value:
    if name == "count":
        (x,) = args
        if not isinstance(x, list):
            raise TypeError_("count applies to arrays only")
        return Decimal(len(x))
    return bool(eval_builtin(name, args))


def _sorted_by(values: list[Value], keys: list[Value], order: str) -> list[Value]:
    kinds = set()
    for k in keys:
        if isinstance(k, str):
            kinds.add("str")
        elif isinstance(k, Decimal) and not k.is_nan():
            kinds.add("num")
        elif isinstance(k, Decimal):
            raise TypeError_("ordering keys must not be NaN")
        else:
            raise TypeError_("ordering keys must be numbers or strings")
    if len(kinds) > 1:
        raise TypeError_("cannot order a mix of numbers and strings")
    paired = sorted(zip(keys, values), key=lambda pair: pair[0], reverse=(order == "desc"))
    return [v for _, v in paired]
