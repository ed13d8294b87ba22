"""Pattern matching: evaluate an extraction pattern against a value.

A match produces a MatchResult shaped exactly as the pattern's matching term
prescribes: bindings for variables, tuples for objects/conjunctions, arrays
for array and enumeration patterns, options for disjunctions.  Failure is a
value (MFailed), not an error.

Array elements and option nodes carry small integer identities so that later
filtering can talk about which elements and branches survived.
"""

from __future__ import annotations

import itertools
from decimal import Decimal
from typing import Iterable, Iterator, Optional, Union

from . import ast as A
from .model import Value, key, preorder, serialize
from .terms import ArrayT, DistinctT, OptionT, Term, TupleT, UNIT, Var, is_unit


class MatchResult:
    """A match result node.  The composite nodes (tuples, arrays, options)
    list their sub-results with `parts()` and rebuild over new ones with
    `with_parts(parts)`, which keeps the node's identity: its element id, an
    array's folding, an option's branch tokens and selection."""

    __slots__ = ("elem_id",)

    def __init__(self):
        self.elem_id: Optional[int] = None

    def _keeping_id(self, out: MatchResult) -> MatchResult:
        out.elem_id = self.elem_id
        return out


class MBind(MatchResult):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Value):
        super().__init__()
        self.name = name
        self.value = value

    def __repr__(self):
        return f"MBind(${self.name})"


class MTuple(MatchResult):
    __slots__ = ("items",)

    def __init__(self, items: list[MatchResult]):
        super().__init__()
        self.items = list(items)

    def parts(self) -> list[MatchResult]:
        return list(self.items)

    def with_parts(self, parts: list[MatchResult]) -> MTuple:
        return self._keeping_id(MTuple(parts))

    def __repr__(self):
        return f"MTuple({self.items!r})"


class MArray(MatchResult):
    __slots__ = ("items", "folded")

    def __init__(self, items: list[MatchResult], folded: bool = False):
        super().__init__()
        self.items = list(items)
        self.folded = folded

    def parts(self) -> list[MatchResult]:
        return list(self.items)

    def with_parts(self, parts: list[MatchResult]) -> MArray:
        return self._keeping_id(MArray(parts, self.folded))

    def __repr__(self):
        return f"MArray({self.items!r})"


class MOption(MatchResult):
    __slots__ = ("branches", "selected", "branch_ids")

    def __init__(
        self,
        branches: list[MatchResult],
        option_id: Optional[int],
        selected: Optional[int] = None,
        branch_ids: Optional[list[int]] = None,
    ):
        super().__init__()
        self.branches = list(branches)
        self.selected = selected
        # stable per-branch tokens; they follow branches through commutation
        if branch_ids is None:
            branch_ids = [(option_id, i) for i in range(len(branches))]
        self.branch_ids = list(branch_ids)

    def parts(self) -> list[MatchResult]:
        return list(self.branches)

    def with_parts(self, parts: list[MatchResult]) -> MOption:
        return self._keeping_id(MOption(parts, None, self.selected, self.branch_ids))

    def __repr__(self):
        return f"MOption({self.branches!r}, selected={self.selected})"


class MUnit(MatchResult):
    __slots__ = ()

    def __repr__(self):
        return "MUnit()"


class MFailed(MatchResult):
    __slots__ = ()

    def __repr__(self):
        return "MFailed()"


def succeeded(r: MatchResult) -> bool:
    if isinstance(r, MFailed):
        return False
    if isinstance(r, MOption):
        return any(succeeded(b) for b in r.branches)
    return True


def _combine(parts: list[tuple[Term, MatchResult]]) -> MatchResult:
    """Combine (term, result) slots as a flat tuple — the exact mirror of
    terms.tuple_of: unit slots dropped, tuple slots spliced, singletons
    collapsed."""
    kept: list[MatchResult] = []
    for t, r in parts:
        if is_unit(t):
            continue
        if isinstance(t, TupleT) and isinstance(r, MTuple):
            kept.extend(r.items)
        else:
            kept.append(r)
    if not kept:
        return MUnit()
    if len(kept) == 1:
        return kept[0]
    return MTuple(kept)


def _slotted(sub_patterns, sub_results) -> MatchResult:
    return _combine([(p.term, r) for p, r in zip(sub_patterns, sub_results)])


class Matcher:
    """Evaluates patterns, drawing element and option identities from `ids`
    (by default a counter of its own, from 1)."""

    def __init__(self, ids: Optional[Iterator[int]] = None) -> None:
        self._ids = itertools.count(1) if ids is None else ids

    def fresh_id(self) -> int:
        return next(self._ids)

    # -- value patterns -----------------------------------------------------

    def match_value(self, p: A.ValuePattern, v: Value) -> MatchResult:
        if isinstance(p, A.PVar):
            return MBind(p.name, v)
        if isinstance(p, A.PWild):
            return MUnit()
        if isinstance(p, A.PPred):
            return MUnit() if _pred_holds(p.pred, v) else MFailed()
        if isinstance(p, A.PObject):
            if not isinstance(v, dict):
                return MFailed()
            results = []
            for member in p.members:
                r = self._match_kv_in_object(member, v)
                if not succeeded(r):
                    return MFailed()
                results.append(r)
            return _slotted(p.members, results)
        if isinstance(p, A.PArray):
            if not isinstance(v, list):
                return MFailed()
            return self._collect(self.match_value(p.elem, x) for x in v)
        if isinstance(p, A.PConj):
            results = []
            for sub in p.items:
                r = self.match_value(sub, v)
                if not succeeded(r):
                    return MFailed()
                results.append(r)
            return _slotted(p.items, results)
        if isinstance(p, A.POption):
            return MOption([self.match_value(b, v) for b in p.branches], self.fresh_id())
        if isinstance(p, A.PChildren):
            # an object's pairs, document order
            if not isinstance(v, dict):
                return MFailed()
            return self._collect(self.match_kv_pair(p.member, k, x) for k, x in v.items())
        if isinstance(p, A.PDescend):
            # v and every nested value, preorder
            return self._collect(self.match_value(p.pattern, d) for d in preorder(v))
        raise TypeError(f"not a value pattern: {p!r}")

    def _collect(self, results: Iterable[MatchResult]) -> MArray:
        """The successful results as array elements, each given an id as soon
        as it is matched: `results` is lazy, so ids drawn inside an element
        come before the element's own."""
        items = []
        for r in results:
            if succeeded(r):
                r.elem_id = self.fresh_id()
                items.append(r)
        return MArray(items)

    # -- key-value patterns --------------------------------------------------

    def match_kv_pair(self, kv: A.KeyValuePattern, name: str, value: Value) -> MatchResult:
        """Match one key-value pair (used by enumeration)."""
        if isinstance(kv, A.KVOption):
            return MOption(
                [self.match_kv_pair(b, name, value) for b in kv.branches], self.fresh_id()
            )
        if kv.key is not None and not kv.key.matches(name):
            return MFailed()
        vr = self.match_value(kv.value, value)
        if not succeeded(vr):
            return MFailed()
        key_term = Var(kv.var) if kv.var else UNIT
        key_result = MBind(kv.var, name) if kv.var else MUnit()
        return _combine([(key_term, key_result), (kv.value.term, vr)])

    def _match_kv_in_object(self, kv: A.KeyValuePattern, obj: dict) -> MatchResult:
        """First pair (document order) that satisfies kv; Failed when none does."""
        if isinstance(kv, A.KVOption):
            return MOption(
                [self._match_kv_in_object(b, obj) for b in kv.branches], self.fresh_id()
            )
        for name, sub in obj.items():
            r = self.match_kv_pair(kv, name, sub)
            if succeeded(r):
                return r
        return MFailed()


def match_value(p: A.ValuePattern, v: Value) -> MatchResult:
    return Matcher().match_value(p, v)


def _pred_holds(pred: Union[A.StringPredicate, A.ComparePredicate], v: Value) -> bool:
    if isinstance(v, (dict, list)):
        return False
    if isinstance(pred, A.StringPredicate):
        return isinstance(v, str) and pred.matches(v)
    return compare_atoms(pred.op, v, pred.literal)


def compare_atoms(op: str, a: Value, b: Value) -> bool:
    """JPQ equality (`model.key`) on any values; ordering numeric on numbers,
    code-point on strings; booleans, null, arrays and objects support only
    (in)equality; mismatched kinds never compare equal, and NaN, which equals
    nothing, is neither smaller nor larger than anything."""
    if op == "=":
        return key(a) == key(b)
    if op == "!=":
        return not (key(a) == key(b))
    strings = isinstance(a, str) and isinstance(b, str)
    numbers = isinstance(a, Decimal) and isinstance(b, Decimal)
    if not (strings or (numbers and not (a.is_nan() or b.is_nan()))):
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison {op!r}")


# ---------------------------------------------------------------------------
# shape checking, identity footprints, rendering


def instantiates(r: MatchResult, t: Term) -> bool:
    """Does the result's shape instantiate the term?  Failed never does."""
    if isinstance(r, MFailed):
        return False
    if isinstance(t, Var):
        return isinstance(r, MBind) and r.name == t.name
    if isinstance(t, TupleT):
        if not t.items:
            return isinstance(r, MUnit)
        return (
            isinstance(r, MTuple)
            and len(r.items) == len(t.items)
            and all(instantiates(s, st) for s, st in zip(r.items, t.items))
        )
    if isinstance(t, OptionT):
        return (
            isinstance(r, MOption)
            and len(r.branches) == len(t.branches)
            and all(
                instantiates(b, bt)
                for b, bt in zip(r.branches, t.branches)
                if not isinstance(b, MFailed)
            )
            and any(not isinstance(b, MFailed) for b in r.branches)
        )
    if isinstance(t, ArrayT):
        if t.flat and not isinstance(r, MArray):
            # a flattened array's elements are spliced into the enclosing
            # array, so in place of the array one finds a single element
            return instantiates(r, t.elem)
        return (
            isinstance(r, MArray)
            and r.folded == t.folded
            and all(instantiates(item, t.elem) for item in r.items)
        )
    if isinstance(t, DistinctT):
        return instantiates(r, t.inner)
    raise TypeError(f"cannot check against term {t!r}")


def footprint(r: MatchResult) -> frozenset:
    """Identity tokens under r: element ids, plus (option, branch) markers for
    selected branches.  Unresolved options contribute all viable branches."""
    tokens: set = set()
    _collect_footprint(r, tokens)
    return frozenset(tokens)


def _collect_footprint(r: MatchResult, tokens: set) -> None:
    if r.elem_id is not None:
        tokens.add(r.elem_id)
    if isinstance(r, MTuple):
        for s in r.items:
            _collect_footprint(s, tokens)
    elif isinstance(r, MArray):
        for s in r.items:
            _collect_footprint(s, tokens)
    elif isinstance(r, MOption):
        if r.selected is not None:
            tokens.add(branch_token(r, r.selected))
            _collect_footprint(r.branches[r.selected], tokens)
        else:
            for i, b in enumerate(r.branches):
                if succeeded(b):
                    _collect_footprint(b, tokens)


def branch_token(opt: MOption, i: int):
    """The footprint token contributed by choosing branch i of this option."""
    return ("b", opt.branch_ids[i])


def render_result(r: MatchResult, max_value: int = 40) -> str:
    """Paper-style notation: ($x↦v, [..;..], a|b)."""
    if isinstance(r, MFailed):
        return "FAIL"
    if isinstance(r, MUnit):
        return "()"
    if isinstance(r, MBind):
        text = serialize(r.value)
        if len(text) > max_value:
            text = text[: max_value - 3] + "..."
        return f"${r.name} -> {text}"
    if isinstance(r, MTuple):
        return "(" + ", ".join(render_result(s, max_value) for s in r.items) + ")"
    if isinstance(r, MArray):
        return "[" + "; ".join(render_result(s, max_value) for s in r.items) + "]"
    if isinstance(r, MOption):
        if r.selected is not None:
            return render_result(r.branches[r.selected], max_value)
        return "(" + " | ".join(render_result(b, max_value) for b in r.branches) + ")"
    raise TypeError(f"not a result: {r!r}")

