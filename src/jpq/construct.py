"""Construct-clause evaluation: backbone derivation and building output
values from a restructured match result.

The backbone of a construction pattern is its underlying matching term
(constants erased).  Building walks the construction pattern, the restructured
term, and the match result together; flat tuples are aligned by slot arity,
folded arrays by component kind (the class member array vs the grouping key).
"""

from __future__ import annotations

from decimal import Decimal
from typing import Optional

from . import ast as A
from .errors import ConstructionError, InvalidConstructionError, TypeError_
from .filtering import eval_builtin
from .matching import (
    MArray,
    MatchResult,
    MBind,
    MOption,
    MTuple,
    MUnit,
    succeeded,
)
from .model import Array, Atom, EMPTY, Object, Value
from .terms import (
    ArrayT,
    DistinctT,
    OptionT,
    Term,
    TupleT,
    UNIT,
    Var,
    is_unit,
    option_of,
    render,
    tuple_of,
)


def backbone(cp: A.ConstructionPattern) -> Term:
    """The matching term underlying a construction pattern."""
    if isinstance(cp, A.CLit):
        return UNIT
    if isinstance(cp, A.CVarRef):
        return Var(cp.name)
    if isinstance(cp, A.CDistinctRef):
        return cp.term
    if isinstance(cp, A.CObject):
        return tuple_of([backbone(sub) for _, sub in cp.members])
    if isinstance(cp, A.CFun):
        return tuple_of([backbone(a) for a in cp.args])
    if isinstance(cp, A.COption):
        return option_of([backbone(b) for b in cp.branches])
    if isinstance(cp, A.CFlatArray):
        inner = backbone(cp.elem)
        return UNIT if is_unit(inner) else ArrayT(inner, None, flat=True)
    if isinstance(cp, A.CArray):
        inner = backbone(cp.elem)
        if isinstance(cp.groupby, DistinctT):
            return _folded_backbone(cp, inner)
        if is_unit(inner):
            return UNIT
        return ArrayT(inner, cp.groupby)
    raise TypeError_(f"not a construction pattern: {cp!r}")


def _folded_backbone(cp: A.CArray, inner: Term) -> Term:
    key = cp.groupby
    comps = list(inner.items) if isinstance(inner, TupleT) else [inner]
    key_refs = [c for c in comps if isinstance(c, DistinctT)]
    others = [c for c in comps if not isinstance(c, DistinctT)]
    if any(k != key for k in key_refs):
        raise InvalidConstructionError(
            "a grouped array's distinct reference must match its groupby key"
        )
    if len(others) != 1 or not isinstance(others[0], ArrayT):
        raise InvalidConstructionError(
            "a grouped array element needs exactly one array holding the "
            "per-class content"
        )
    return ArrayT(TupleT((others[0], key)), key, folded=True)


# ---------------------------------------------------------------------------
# building


def _arity(t: Term) -> int:
    if is_unit(t):
        return 0
    if isinstance(t, TupleT):
        return len(t.items)
    return 1


def _slots(t: Term, r: MatchResult) -> list[tuple[Term, MatchResult]]:
    if is_unit(t):
        return []
    if isinstance(t, TupleT):
        if not isinstance(r, MTuple) or len(r.items) != len(t.items):
            raise ConstructionError(
                f"result does not fit the {len(t.items)}-tuple {render(t)}"
            )
        return list(zip(t.items, r.items))
    return [(t, r)]


def _take(slots: list, cp: A.ConstructionPattern):
    """Consume this sub-pattern's share of the flat tuple slots."""
    k = _arity(backbone(cp))
    if k == 0:
        return UNIT, MUnit()
    if len(slots) < k:
        raise ConstructionError("construction pattern is wider than the result")
    taken = [slots.pop(0) for _ in range(k)]
    if k == 1:
        return taken[0]
    return TupleT(tuple(t for t, _ in taken)), MTuple([r for _, r in taken])


def value_of(r: MatchResult) -> Value:
    """The single value a result stands for; used for grouping keys."""
    if isinstance(r, MBind):
        return r.value
    if isinstance(r, MOption):
        if r.selected is None:
            raise ConstructionError("cannot take the value of an unresolved option")
        return value_of(r.branches[r.selected])
    if isinstance(r, MTuple) and len(r.items) == 1:
        return value_of(r.items[0])
    raise ConstructionError("expected a single bound value")


def build_empty(cp: A.ConstructionPattern) -> Value:
    """The output when everything was filtered away: arrays come out empty,
    data positions come out null."""
    if isinstance(cp, A.CLit):
        return cp.value
    if isinstance(cp, A.CObject):
        return Object(tuple((k, build_empty(sub)) for k, sub in cp.members))
    if isinstance(cp, (A.CArray, A.CFlatArray)):
        return Array(())
    return EMPTY


class Builder:
    def build(self, cp: A.ConstructionPattern, t: Term, r: MatchResult) -> Value:
        if isinstance(cp, A.CLit):
            return cp.value
        if isinstance(cp, A.CVarRef):
            if isinstance(r, MBind):
                return r.value
            if isinstance(r, MTuple) and len(r.items) == 1:
                return self.build(cp, _one(t), r.items[0])
            raise ConstructionError(f"${cp.name} is not bound to a single value")
        if isinstance(cp, A.CObject):
            slots = _slots(t, r)
            pairs: list[tuple[str, Value]] = []
            seen: set[str] = set()
            for key, sub in cp.members:
                if key in seen:
                    raise ConstructionError(f"duplicate key {key!r} in output object")
                seen.add(key)
                st, sr = _take(slots, sub)
                pairs.append((key, self.build(sub, st, sr)))
            return Object(tuple(pairs))
        if isinstance(cp, A.CFun):
            slots = _slots(t, r)
            args = []
            for sub in cp.args:
                st, sr = _take(slots, sub)
                args.append(self.build(sub, st, sr))
            return self._call(cp.name, args)
        if isinstance(cp, A.COption):
            if not isinstance(r, MOption):
                # constants-only option: nothing to select on, first branch wins
                if is_unit(backbone(cp)):
                    return self.build(cp.branches[0], UNIT, MUnit())
                raise ConstructionError("expected an option result")
            if r.selected is None:
                raise ConstructionError("cannot build from an unresolved option")
            if not isinstance(t, OptionT) or len(t.branches) != len(cp.branches):
                raise ConstructionError("option construction does not fit the result")
            i = r.selected
            return self.build(cp.branches[i], t.branches[i], r.branches[i])
        if isinstance(cp, A.CFlatArray):
            if isinstance(r, MArray):
                raise ConstructionError(
                    "a flattened array constructor may only appear inside an "
                    "array constructor"
                )
            # the flattened array's elements were spliced into the enclosing
            # array; here one spliced element remains
            if not isinstance(t, ArrayT):
                raise ConstructionError("flattened constructor does not fit the result")
            return self.build(cp.elem, t.elem, r)
        if isinstance(cp, A.CArray):
            if not isinstance(t, ArrayT) or not isinstance(r, MArray):
                raise ConstructionError(f"expected an array result for {render(t)}")
            if isinstance(cp.groupby, DistinctT):
                return self._build_folded(cp, t, r)
            values = [self.build(cp.elem, t.elem, item) for item in r.items]
            if cp.order is not None:
                keys = [self._order_key(cp.groupby, t.elem, item) for item in r.items]
                values = _sorted_by(values, keys, cp.order)
            return Array(tuple(values))
        if isinstance(cp, A.CDistinctRef):
            raise ConstructionError(
                "a distinct reference is only meaningful inside a grouped array"
            )
        raise TypeError_(f"not a construction pattern: {cp!r}")

    # -- grouped arrays -----------------------------------------------------

    def _build_folded(self, cp: A.CArray, t: ArrayT, r: MArray) -> Value:
        if not t.folded:
            raise ConstructionError("groupby construction needs a folded result")
        class_t, key_t = t.elem.items
        key_inner = key_t.inner if isinstance(key_t, DistinctT) else key_t
        values = []
        keys = []
        for cls in r.items:
            if not isinstance(cls, MTuple) or len(cls.items) != 2:
                raise ConstructionError("malformed class in folded result")
            class_r, key_r = cls.items
            values.append(self._build_class(cp.elem, class_t, class_r, key_inner, key_r))
            keys.append(value_of(key_r))
        if cp.order is not None:
            values = _sorted_by(values, keys, cp.order)
        return Array(tuple(values))

    def _build_class(
        self,
        cp: A.ConstructionPattern,
        class_t: ArrayT,
        class_r: MArray,
        key_inner: Term,
        key_r: MatchResult,
    ) -> Value:
        if isinstance(cp, A.CDistinctRef):
            return value_of(key_r)
        if isinstance(cp, A.CObject):
            pairs = []
            seen: set[str] = set()
            for key, sub in cp.members:
                if key in seen:
                    raise ConstructionError(f"duplicate key {key!r} in output object")
                seen.add(key)
                pairs.append((key, self._build_class(sub, class_t, class_r, key_inner, key_r)))
            return Object(tuple(pairs))
        if isinstance(cp, A.CLit):
            return cp.value
        if isinstance(cp, (A.CArray, A.CFlatArray)) and not isinstance(
            getattr(cp, "groupby", None), DistinctT
        ):
            # the per-class content: class members with the grouping key hidden
            items = []
            for member in class_r.items:
                mt, mr = _strip_key(class_t.elem, member, key_inner)
                items.append(self.build(cp.elem, mt, mr))
            values = items
            if isinstance(cp, A.CArray) and cp.order is not None:
                keys = []
                for member in class_r.items:
                    mt, mr = _strip_key(class_t.elem, member, key_inner)
                    keys.append(self._order_key(cp.groupby, mt, mr))
                values = _sorted_by(values, keys, cp.order)
            return Array(tuple(values))
        if isinstance(cp, A.CFun):
            args = []
            for sub in cp.args:
                args.append(self._build_class(sub, class_t, class_r, key_inner, key_r))
            return self._call(cp.name, args)
        raise ConstructionError(
            "a grouped array element may hold the distinct reference, the "
            "per-class array, constants and function calls"
        )

    # -- ordering and functions ---------------------------------------------

    def _order_key(self, index: Optional[Term], t: Term, r: MatchResult) -> Value:
        if index is None:
            raise ConstructionError("asc/desc ordering needs a groupby index term")
        binds: dict[str, Value] = {}
        _collect_binds(r, binds)
        from .terms import var_counts

        names = list(var_counts(index))
        missing = [n for n in names if n not in binds]
        if missing:
            raise ConstructionError(
                f"ordering term {render(index)} is not bound in the array element"
            )
        if len(names) == 1:
            return binds[names[0]]
        raise ConstructionError("ordering terms with several variables are not supported")

    def _call(self, name: str, args: list[Value]) -> Value:
        if name == "count":
            (x,) = args
            if not isinstance(x, Array):
                raise TypeError_("count applies to arrays only")
            return Atom(Decimal(len(x.items)))
        result = eval_builtin(name, args)
        return Atom(bool(result))


def _one(t: Term) -> Term:
    if isinstance(t, TupleT) and len(t.items) == 1:
        return t.items[0]
    return t


def _strip_key(elem_t: Term, elem_r: MatchResult, key_inner: Term):
    """Remove the grouping-key component from one class member."""
    if elem_t == key_inner:
        return UNIT, MUnit()
    if isinstance(elem_t, TupleT) and isinstance(elem_r, MTuple):
        kept_t, kept_r = [], []
        for st, sr in zip(elem_t.items, elem_r.items):
            if st == key_inner:
                continue
            kept_t.append(st)
            kept_r.append(sr)
        if not kept_t:
            return UNIT, MUnit()
        if len(kept_t) == 1:
            return kept_t[0], kept_r[0]
        return TupleT(tuple(kept_t)), MTuple(kept_r)
    return elem_t, elem_r


def _collect_binds(r: MatchResult, out: dict) -> None:
    if isinstance(r, MBind):
        out.setdefault(r.name, r.value)
    elif isinstance(r, (MTuple, MArray)):
        for s in r.items:
            _collect_binds(s, out)
    elif isinstance(r, MOption):
        if r.selected is not None:
            _collect_binds(r.branches[r.selected], out)


def _sorted_by(values: list[Value], keys: list[Value], order: str) -> list[Value]:
    def sort_key(pair):
        k = pair[0]
        if not isinstance(k, Atom):
            raise TypeError_("ordering keys must be atoms")
        if isinstance(k.value, bool) or k.value is None:
            raise TypeError_("ordering keys must be numbers or strings")
        return k.value

    kinds = set()
    for k in keys:
        if isinstance(k, Atom) and isinstance(k.value, str):
            kinds.add("str")
        elif isinstance(k, Atom) and not isinstance(k.value, bool) and k.value is not None:
            kinds.add("num")
        else:
            raise TypeError_("ordering keys must be numbers or strings")
    if len(kinds) > 1:
        raise TypeError_("cannot order a mix of numbers and strings")
    paired = sorted(zip(keys, values), key=sort_key, reverse=(order == "desc"))
    return [v for _, v in paired]


def build(cp: A.ConstructionPattern, t: Term, r: MatchResult) -> Value:
    if not succeeded(r):
        return build_empty(cp)
    return Builder().build(cp, t, r)
