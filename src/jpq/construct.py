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
A class of a folded array builds the array's element straight from the
class key's value and the class's member list: the content array reads the
components it shows from each member, and no tuple is put together.
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import Decimal
from typing import Optional

from . import ast as A
from .ast import backbone  # noqa: F401  (re-exported)
from .errors import ConstructionError, ShapeMismatchError, TypeError_
from .filtering import eval_builtin
from .matching import (
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
    UNIT,
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
    if kind is A.CObject or kind is A.CFun:
        made = _whole(_made(cp, [_at(i, c) for i, c in enumerate(components(t))]))
        if type(t) is TupleT:
            return lambda r: made(shaped(r, t).items)
        return lambda r: made((r,))
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


# (i, built): `built` makes a pattern's value from slot result i, or from all
# the slot results when i is None
Take = tuple[Optional[int], Callable[..., Value]]
Slot = Callable[[A.ConstructionPattern], Take]  # the take of the pattern filling a slot


def _at(i: int, t: Term) -> Slot:
    """Slot i, of term t: the pattern filling it is compiled against t."""
    return lambda sub: (i, compile_construction(sub, t))


def _under(i: int, j: int, t: Term) -> Slot:
    """Slot j, of term t, of the tuple that slot result i holds."""
    def fill(sub: A.ConstructionPattern) -> Take:
        built = compile_construction(sub, t)
        return i, lambda r: built(r.items[j])
    return fill


def _whole(take: Take) -> Callable[..., Value]:
    """The take's builder from all the slot results."""
    i, built = take
    return built if i is None else lambda items: built(items[i])


def _made(cp: A.ConstructionPattern, slots: list[Slot]) -> Take:
    """cp's take of the slot results its caller supplies: an object or a
    call shares `slots` out among its sub-patterns in order, as many to each
    as its backbone has components; any other pattern fills its one slot,
    or none when it holds only constants."""
    kind = type(cp)
    if kind is not A.CObject and kind is not A.CFun:
        if slots:
            return slots[0](cp)
        built = compile_construction(cp, UNIT)  # constants only
        return None, lambda items: built(MTuple([]))
    takes, i = [], 0
    for sub in [sub for _, sub in cp.members] if kind is A.CObject else cp.args:
        k = len(components(sub.backbone))
        if len(slots) - i < k:
            error = "construction pattern is wider than the result"
            takes.append((None, _fails(ShapeMismatchError, error)))
            break  # the builds after it are never reached
        takes.append(_made(sub, slots[i:i + k]))
        i += k

    def parts(items: list[MatchResult]) -> list[Value]:
        return [built(items) if j is None else built(items[j]) for j, built in takes]
    if kind is A.CFun:
        return None, lambda items: _call(cp.name, parts(items))
    keys = [key for key, _ in cp.members]
    return None, lambda items: dict(zip(keys, parts(items)))


def _array(cp, t: Term, kept: Optional[list[bool]] = None) -> Build:
    """cp's builder from an array result of t; with `kept`, t is a folded
    class's member array and each member shows only the components `kept`
    marks (`class_members`), read straight from the member."""
    if is_unit(cp.backbone):
        elem = compile_construction(cp.elem, t)  # constants only: built once, as written
        return lambda r: [elem(r)]
    if not isinstance(t, ArrayT):
        return _fails(ShapeMismatchError, f"expected an array term, not {render(t)}")
    if t.flat:
        # the flattened array's elements were spliced into the enclosing
        # array; here one spliced element remains
        return compile_construction(cp.elem, t.elem)
    if type(cp) is A.CArray and isinstance(cp.groupby, DistinctT):
        if not t.folded:
            return _fails(ShapeMismatchError, "groupby construction needs a folded result")
        return _grouped(cp, t)
    member = t.elem
    if kept is None or type(member) is not TupleT:
        elem = compile_construction(cp.elem, member)
        kept = None  # the whole member is shown
    else:
        slots = []
        for i, (c, k) in enumerate(zip(member.items, kept)):
            if k and type(c) is TupleT:  # spliced, as tuple_of does
                slots += [_under(i, j, s) for j, s in enumerate(c.items)]
            elif k:
                slots.append(_at(i, c))
        made = _whole(_made(cp.elem, slots))
        elem = lambda m: made(m.items)  # unchecked: folding checked each member's shape
    order = cp.order if type(cp) is A.CArray else None
    key = order and _reader(*var_set(cp.groupby), member, kept)

    def array(r: MatchResult) -> Value:
        items = shaped(r, t).items
        values = [elem(item) for item in items]
        return values if order is None else _sorted_by(values, [key(i) for i in items], order)
    return array


def _grouped(cp: A.CArray, t: ArrayT) -> Build:
    """The grouped array cp from the folded array t, one element per class:
    the class's key value, read once, fills the element's key references and
    orders the classes, and its content array is built from the class's
    members as `class_members` shows them."""
    class_t, key_t = t.elem.items
    shows = class_members(class_t.elem, key_t, cp.backbone.elem.items[0].elem)
    if shows is None:
        error = f"a class of {render(t)} does not show its members as built"
        return _fails(ShapeMismatchError, error)
    key = (1, lambda value: value)

    def content(sub: A.ConstructionPattern) -> Take:  # the array of the class's members
        return 0, _array(sub, class_t, shows[0])
    elem = _whole(_made(cp.elem, [(lambda sub: key) if isinstance(c, DistinctT) else content
                                  for c in components(cp.elem.backbone)]))

    def grouped(r: MatchResult) -> Value:
        classes = [shaped(cls, t.elem).items for cls in shaped(r, t).items]
        keys = [value_of(key_r) for _, key_r in classes]
        values = [elem((members, k)) for (members, _), k in zip(classes, keys)]
        return values if cp.order is None else _sorted_by(values, keys, cp.order)
    return grouped


def _reader(name: str, t: Term, kept: Optional[list[bool]] = None) -> Build:
    """The value of `name` in a result of the element term `t`, read at the
    first place outside t's nested arrays (`one_value_paths`), and with
    `kept` in the tuple components it marks, that the result binds: an
    option's branch not taken binds nothing."""
    routes = [[i for node, i in walk if isinstance(node, (TupleT, OptionT))]
              for walk in one_value_paths(t, name) if kept is None or kept[walk[0][1]]]

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
