"""Pattern matching: evaluate an extraction pattern against a value.

A match produces a MatchResult shaped exactly as the pattern's matching term
prescribes: bindings for variables, tuples for objects/conjunctions, arrays
for array and enumeration patterns, options for disjunctions, and the empty
tuple, as the unit term `()`, for a match that binds nothing.  Failure is a
value (MFailed), not an error.

Array elements and option nodes carry small integer identities so that later
filtering can talk about which elements and branches survived.

A member whose key has no `?` is looked up in the object (keys are unique);
a `?` or `*` key scans the pairs in document order.  How a node's result is
made from its parts' results (drop a unit slot, splice a tuple's items, keep
anything else) is fixed once per pattern node, as `Pattern.layout`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional

from . import ast as A
from .errors import ShapeMismatchError
from .model import Value, preorder
from .terms import DROP, KEEP, SPLICE, ArrayT, OptionT, Term, TupleT, render, slot_code


class MatchResult:
    """A match result node.  The composite nodes (tuples, arrays, options)
    list their sub-results with `parts()` and rebuild over new ones with
    `with_parts(parts)`, which keeps the node's identity: its element id, an
    array's folding, an option's branch tokens.  A match that binds nothing
    is the empty tuple `MTuple([])`, as its term is the unit tuple.  A failed
    result is MFailed, never an option whose branches all failed; an option
    is resolved when all its branches but one have failed, and `chosen` names
    that one.  A node keeps the list it is made from; `parts()` and
    `with_parts` copy, as their callers write to the lists they get and give."""

    __slots__ = ("elem_id",)


def _keep_id(new: MatchResult, old: MatchResult) -> MatchResult:
    new.elem_id = old.elem_id
    return new


class MBind(MatchResult):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Value):
        self.elem_id = None
        self.name = name
        self.value = value

    def __repr__(self):
        return f"MBind(${self.name})"


class MTuple(MatchResult):
    __slots__ = ("items",)

    def __init__(self, items: list[MatchResult]):
        self.elem_id = None
        self.items = items

    def parts(self) -> list[MatchResult]:
        return list(self.items)

    def with_parts(self, parts: list[MatchResult]) -> MTuple:
        return _keep_id(MTuple(list(parts)), self)

    def __repr__(self):
        return f"MTuple({self.items!r})"


class MArray(MatchResult):
    __slots__ = ("items", "folded")

    def __init__(self, items: list[MatchResult], folded: bool = False):
        self.elem_id = None
        self.items = items
        self.folded = folded

    def parts(self) -> list[MatchResult]:
        return list(self.items)

    def with_parts(self, parts: list[MatchResult]) -> MArray:
        return _keep_id(MArray(list(parts), self.folded), self)

    def __repr__(self):
        return f"MArray({self.items!r})"


class MOption(MatchResult):
    __slots__ = ("branches", "branch_ids")

    def __init__(
        self,
        branches: list[MatchResult],
        option_id: Optional[int],
        branch_ids: Optional[list[int]] = None,
    ):
        self.elem_id = None
        self.branches = branches
        # stable per-branch tokens; they follow branches through commutation
        if branch_ids is None:
            branch_ids = [(option_id, i) for i in range(len(branches))]
        self.branch_ids = branch_ids

    def parts(self) -> list[MatchResult]:
        return list(self.branches)

    def with_parts(self, parts: list[MatchResult]) -> MOption:
        return _keep_id(MOption(list(parts), None, self.branch_ids), self)

    def __repr__(self):
        return f"MOption({self.branches!r})"


class MFailed(MatchResult):
    """The one failed match, which `MFailed()` returns; it has no element id."""
    __slots__ = ()
    elem_id = None  # shadows the slot, so assigning an id raises AttributeError

    def __new__(cls):
        return FAILED

    def __repr__(self):
        return "MFailed()"


FAILED = object.__new__(MFailed)


def succeeded(r: MatchResult) -> bool:
    return not isinstance(r, MFailed)


def _viable(opt: MOption) -> MatchResult:
    """The option, or MFailed when none of its branches survived: the mirror
    of terms.option_of, as _combine is of tuple_of."""
    return opt if any(succeeded(b) for b in opt.branches) else FAILED


def chosen(opt: MOption) -> int:
    """The branch a resolved option took: its one surviving branch."""
    alive = [i for i, b in enumerate(opt.branches) if succeeded(b)]
    if len(alive) != 1:
        raise ShapeMismatchError(f"an option with {len(alive)} surviving branches is unresolved")
    return alive[0]


def value_of(r: MatchResult) -> Value:
    """The value a grouping key's result stands for: a binding's value, a
    resolved option's chosen branch's, and for a tuple or an array the list
    of its parts' values.  A failed result stands for none."""
    if isinstance(r, MBind):
        return r.value
    if isinstance(r, MOption):
        return value_of(r.branches[chosen(r)])
    if isinstance(r, (MTuple, MArray)):
        return [value_of(s) for s in r.items]
    raise ShapeMismatchError("a failed result has no value")


def _flat(layout: tuple[int, ...], results: list[MatchResult]) -> MatchResult:
    """The slots' results as a flat tuple, each slot as its `slot_code` in
    `layout` says: the exact mirror of terms.tuple_of.  A unit slot adds
    nothing, whatever its result: a `[*]` slot holds the array it walked."""
    if DROP not in layout and SPLICE not in layout:
        return results[0] if len(results) == 1 else MTuple(results)
    kept: list[MatchResult] = []
    for code, r in zip(layout, results):
        if code == SPLICE and type(r) is MTuple:
            kept.extend(r.items)
        elif code != DROP:
            kept.append(r)
    return kept[0] if len(kept) == 1 else MTuple(kept)


def _combine(parts: list[tuple[Term, MatchResult]]) -> MatchResult:
    """(term, result) slots as a flat tuple, the layout read off the terms."""
    return _flat([slot_code(t) for t, _ in parts], [r for _, r in parts])


class Matcher:
    """Evaluates patterns, drawing element and option identities from `ids`
    (by default a counter of its own, from 1)."""

    def __init__(self, ids: Optional[Iterator[int]] = None) -> None:
        self._ids = itertools.count(1) if ids is None else ids

    def fresh_id(self) -> int:
        return next(self._ids)

    # -- value patterns -----------------------------------------------------

    def match_value(self, p: A.ValuePattern, v: Value) -> MatchResult:
        kind = type(p)
        if kind is A.PVar:
            return MBind(p.name, v)
        if kind is A.PObject:
            if not isinstance(v, dict):
                return FAILED
            results = []
            for kv in p.members:
                name = kv.literal if type(kv) is A.KVPattern else None
                if name is None:
                    r = self._match_kv_in_object(kv, v)
                else:  # keys are unique: the only pair a scan could find
                    r = self._pair(kv, name, v[name]) if name in v else FAILED
                if r is FAILED:
                    return r
                results.append(r)
            return _flat(p.layout, results)
        if kind is A.PArray:
            if not isinstance(v, list):
                return FAILED
            return self._collect(self.match_value, p.elem, v)
        if kind is A.PWild:
            return MTuple([])
        if kind is A.PPred:
            return MTuple([]) if p.pred.holds(v) else FAILED
        if kind is A.PConj:
            results = []
            for sub in p.items:
                r = self.match_value(sub, v)
                if r is FAILED:
                    return r
                results.append(r)
            return _flat(p.layout, results)
        if kind is A.POption:
            return self._option(p, [self.match_value(b, v) for b in p.branches])
        if kind is A.PChildren:
            # an object's pairs, document order
            if not isinstance(v, dict):
                return FAILED
            return self._collect(lambda kv, k: self.match_kv_pair(kv, k, v[k]), p.member, v)
        if kind is A.PDescend:
            # v and every nested value, preorder
            return self._collect(self.match_value, p.pattern, preorder(v))
        raise TypeError(f"not a value pattern: {p!r}")

    def _collect(self, match: Callable, sub: A.Pattern, xs: Iterable) -> MArray:
        """`match(sub, x)` for each of xs, the successes as array elements:
        each is given an id as soon as it is matched, so ids drawn inside an
        element come before the element's own."""
        items = []
        for x in xs:
            r = match(sub, x)
            if r is not FAILED:
                r.elem_id = self.fresh_id()
                items.append(r)
        return MArray(items)

    def _option(self, p: A.Pattern, results: list[MatchResult]) -> MatchResult:
        """An option over the branches' results, or MFailed when all failed.  A
        branch whose term is unit gives `()` when it matched, whatever it
        walked: a `[*]` branch walks an array."""
        results = [MTuple([]) if code == DROP and r is not FAILED else r
                   for code, r in zip(p.layout, results)]
        return _viable(MOption(results, self.fresh_id()))

    # -- key-value patterns --------------------------------------------------

    def match_kv_pair(self, kv: A.KeyValuePattern, name: str, value: Value) -> MatchResult:
        """Match one key-value pair (used by enumeration)."""
        if type(kv) is A.KVOption:
            return self._option(kv, [self.match_kv_pair(b, name, value) for b in kv.branches])
        if kv.key is not None and not kv.key.matches(name):
            return FAILED
        return self._pair(kv, name, value)

    def _pair(self, kv: A.KVPattern, name: str, value: Value) -> MatchResult:
        """Match a pair whose key kv admits."""
        vr = self.match_value(kv.value, value)
        if vr is FAILED or kv.layout == (KEEP,):  # the pair is its value
            return vr
        return _flat(kv.layout, [MBind(kv.var, name), vr] if kv.var else [vr])

    def _match_kv_in_object(self, kv: A.KeyValuePattern, obj: dict) -> MatchResult:
        """The pair kv's literal key names, else the first that satisfies kv; MFailed if none."""
        if type(kv) is A.KVOption:
            return self._option(kv, [self._match_kv_in_object(b, obj) for b in kv.branches])
        name = kv.literal
        if name is not None:
            return self._pair(kv, name, obj[name]) if name in obj else FAILED
        for name, sub in obj.items():
            r = self.match_kv_pair(kv, name, sub)
            if r is not FAILED:
                return r
        return FAILED


def match_value(p: A.ValuePattern, v: Value) -> MatchResult:
    return Matcher().match_value(p, v)


# ---------------------------------------------------------------------------
# shape checking and identity footprints


def shaped(r: MatchResult, t: Term) -> MatchResult:
    """`r` when it is of `t`'s kind: a tuple or option of the term's arity, or an
    array for an array term.  Else a ShapeMismatchError, as the plan promised it."""
    kind = type(t)
    if kind is TupleT:
        if type(r) is MTuple and len(r.items) == len(t.items):
            return r
    elif kind is OptionT:
        if type(r) is MOption and len(r.branches) == len(t.branches):
            return r
    elif kind is ArrayT and type(r) is MArray:
        return r
    raise ShapeMismatchError(f"the result does not have the shape of {render(t)}")


def footprint(r: MatchResult) -> frozenset:
    """Identity tokens of what r chose: element ids and a branch token for each
    surviving (once resolved, taken) option branch.  It stops at arrays: an
    array gives its own id, never its items', which distribution pairs."""
    tokens: set = set()
    _collect_footprint(r, tokens)
    return frozenset(tokens)


def _collect_footprint(r: MatchResult, tokens: set) -> None:
    if r.elem_id is not None:
        tokens.add(r.elem_id)
    if isinstance(r, MTuple):
        for s in r.items:
            _collect_footprint(s, tokens)
    elif isinstance(r, MOption):
        for i, b in enumerate(r.branches):
            if succeeded(b):
                tokens.add(branch_token(r, i))
                _collect_footprint(b, tokens)


def branch_token(opt: MOption, i: int):
    """The footprint token contributed by choosing branch i of this option."""
    return ("b", opt.branch_ids[i])
