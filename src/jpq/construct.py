"""Construct-clause evaluation: building output values from a restructured
match result.

The backbone of a construction pattern is its underlying matching term
(constants erased), derived in ast.py and re-exported here.  Building walks
the construction pattern, the restructured term, and the match result
together; flat tuples are aligned by slot arity.
Each class of a folded array is built by the same walk, as one element whose
slots hold the class key and the class members.
"""

from __future__ import annotations

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
    MOption,
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
    Term,
    TupleT,
    class_members,
    components,
    is_unit,
    render,
    tuple_of,
    var_set,
)


# ---------------------------------------------------------------------------
# building


def _slots(t: Term, r: MatchResult) -> list[tuple[Term, MatchResult]]:
    if not isinstance(t, TupleT):
        return [(t, r)]
    return list(zip(t.items, shaped(r, t).items))


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


class Builder:
    def _take(self, slots: list, cp: A.ConstructionPattern):
        """Consume this sub-pattern's share of the flat tuple slots."""
        k = len(components(cp.backbone))
        if k == 1 and slots:
            return slots.pop(0)
        if len(slots) < k:
            raise ShapeMismatchError("construction pattern is wider than the result")
        taken = slots[:k]
        del slots[:k]
        return TupleT(tuple(t for t, _ in taken)), MTuple([r for _, r in taken])

    def build(self, cp: A.ConstructionPattern, t: Term, r: MatchResult) -> Value:
        kind = type(cp)  # cheaper than isinstance; pattern classes have no subclasses
        if kind is A.CLit:
            return cp.value
        if kind is A.CVarRef:
            if isinstance(r, MBind):
                return r.value
            raise ShapeMismatchError(f"${cp.name} is not bound to a single value")
        if kind is A.CDistinctRef:
            # only a grouped array's classes offer a key here
            return value_of(r)
        if kind is A.CObject:
            slots = _slots(t, r)
            obj = {}
            for key, sub in cp.members:
                st, sr = self._take(slots, sub)
                obj[key] = self.build(sub, st, sr)
            return obj
        if kind is A.CFun:
            slots = _slots(t, r)
            args = []
            for sub in cp.args:
                st, sr = self._take(slots, sub)
                args.append(self.build(sub, st, sr))
            return self._call(cp.name, args)
        if kind is A.COption:
            if is_unit(cp.backbone):
                # constants-only option: nothing to select on, first branch wins
                return self.build(cp.branches[0], t, r)
            i = chosen(shaped(r, t))
            return self.build(cp.branches[i], t.branches[i], r.branches[i])
        if kind is A.CArray or kind is A.CFlatArray:
            if is_unit(cp.backbone):
                # constants only: built once, as written, with nothing to splice
                if kind is A.CFlatArray:
                    raise ConstructionError("a ^[...] of constants only has nothing to splice")
                return [self.build(cp.elem, t, r)]
            if not isinstance(t, ArrayT):
                raise ShapeMismatchError(f"expected an array term, not {render(t)}")
            if t.flat:
                # the flattened array's elements were spliced into the
                # enclosing array; here one spliced element remains
                return self.build(cp.elem, t.elem, r)
            # a ^[...] over a plain array term is a grouped class's content
            order = cp.order if kind is A.CArray else None
            r = shaped(r, t)
            if kind is A.CArray and isinstance(cp.groupby, DistinctT):
                return self._build_folded(cp, t, r)
            values = [self.build(cp.elem, t.elem, item) for item in r.items]
            if order is not None:
                (name,) = var_set(cp.groupby)
                keys = [_order_key(name, item) for item in r.items]
                values = _sorted_by(values, keys, order)
            return values
        raise TypeError_(f"not a construction pattern: {cp!r}")

    def _build_folded(self, cp: A.CArray, t: ArrayT, r: MArray) -> Value:
        """Build each class as one element: its key components take the class
        key, its content component the class members as `class_members` shows
        them, with or without a copy of the key."""
        if not t.folded:
            raise ShapeMismatchError("groupby construction needs a folded result")
        class_t, key_t = t.elem.items
        member_t = class_t.elem
        shows = class_members(member_t, key_t, cp.backbone.elem.items[0].elem)
        if shows is None:
            raise ShapeMismatchError(f"a class of {render(t)} does not show its members as built")
        kept, shown = shows
        content_t = ArrayT(shown, class_t.index)
        is_key = [isinstance(c, DistinctT) for c in components(cp.elem.backbone)]
        elem_t = tuple_of([key_t if k else content_t for k in is_key])
        values = []
        for cls in r.items:
            class_r, key_r = shaped(cls, t.elem).items
            content_r = MArray(
                [
                    _combine([s for s, k in zip(_slots(member_t, m), kept) if k])
                    for m in shaped(class_r, class_t).items
                ]
            )
            parts = [key_r if k else content_r for k in is_key]
            elem_r = parts[0] if len(parts) == 1 else MTuple(parts)
            values.append(self.build(cp.elem, elem_t, elem_r))
        if cp.order is not None:
            values = _sorted_by(values, [value_of(cls.items[1]) for cls in r.items], cp.order)
        return values

    def _call(self, name: str, args: list[Value]) -> Value:
        if name == "count":
            (x,) = args
            if not isinstance(x, list):
                raise TypeError_("count applies to arrays only")
            return Decimal(len(x))
        return bool(eval_builtin(name, args))


def _order_key(name: str, r: MatchResult) -> Value:
    binds: dict[str, Value] = {}
    _collect_binds(r, binds)
    if name not in binds:
        raise ConstructionError(f"ordering variable ${name} is not bound in the array element")
    return binds[name]


def _collect_binds(r: MatchResult, out: dict) -> None:
    if isinstance(r, MBind):
        out.setdefault(r.name, r.value)
    elif isinstance(r, (MTuple, MArray)):
        for s in r.items:
            _collect_binds(s, out)
    elif isinstance(r, MOption):
        _collect_binds(r.branches[chosen(r)], out)


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


def build(cp: A.ConstructionPattern, t: Term, r: MatchResult) -> Value:
    if not succeeded(r):
        return build_empty(cp)
    return Builder().build(cp, t, r)
