"""Restructuring rules as a term-rewriting system, route inference, and the
data transformation each route drives.

Each rule is stated once, as an entry of one table: the parameters whose side
conditions hold at a node, its rewrite of that node's term, and its rewrite
of a result of that node's shape.  A route is an ordered list of steps (rule,
subterm path, parameter); replaying it from the source term yields the target
term, and a Transformer applies the same steps to the match result.
Inference is breadth-first search that expands each state once; tuple
duplication is budgeted by per-variable occurrence deficits so the otherwise
infinite system stays bounded.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    InvalidConstructionError,
    RuleInapplicableError,
    SearchBoundExceededError,
    ShapeMismatchError,
)
from .matching import (
    MArray,
    MatchResult,
    MBind,
    MFailed,
    MOption,
    MTuple,
    MUnit,
    _combine,
    branch_token,
    footprint,
    succeeded,
)
from .model import key
from .terms import (
    ArrayT,
    DistinctT,
    OptionT,
    Path,
    Term,
    TupleT,
    Var,
    children,
    is_unit,
    positions,
    project,
    render,
    replace,
    subterm,
    terms_match,
    tuple_of,
    var_counts,
    var_set,
)


def _loc(path: Path) -> str:
    return "/".join(str(p) for p in path) or "root"


@dataclass(frozen=True)
class Step:
    rule: str
    path: Path
    param: int = 0

    def describe(self) -> str:
        extra = f" #{self.param}" if _TABLE[self.rule].numbered else ""
        return f"{self.rule} @ {_loc(self.path)}{extra}"


RewriteRoute = tuple[Step, ...]


@dataclass(frozen=True)
class _Room:
    """What a search state still lacks of the target."""

    short: frozenset  # variables occurring fewer times than in the target
    flat: bool  # another array may be flattened
    fold: bool  # another array may be folded


@dataclass(frozen=True)
class Rule:
    """One restructuring rule, stated once.

    The rule rewrites nodes of type `on`.  `params(node, t, path)` lists in
    ascending order the parameters whose side conditions, summarised by
    `needs` (a plain array is neither flattened nor folded), hold at that
    node of `t`; `term(node, param)` is the rewritten node; `data(tr, node,
    r, arg, ctx)` rewrites a result `r` of the node's shape for Transformer
    `tr`, given the identity tokens `ctx` chosen on the way down.
    Flattening's data rewrite acts on the nearest enclosing array instead,
    `arg` being the path from there.  `room`, when set, is a search-only
    gate: route search offers the rule at a node only while the state lacks
    what the rule adds.  `numbered` rules show their parameter in explain
    text."""

    name: str
    on: type
    needs: str
    params: Callable[[Term, Term, Path], Iterable[int]]
    term: Callable[[Term, int], Term]
    data: Callable[..., MatchResult]
    numbered: bool = True
    room: Optional[Callable[[Term, _Room], bool]] = None


def _enclosing_array(t: Term, path: Path) -> Optional[Path]:
    """Path of the nearest proper ancestor array, provided only tuples and
    options sit between its element term and `path`."""
    for cut in range(len(path) - 1, -1, -1):
        node = subterm(t, path[:cut])
        if isinstance(node, ArrayT):
            return path[:cut]
        if not isinstance(node, (TupleT, OptionT)):
            return None
    return None


# -- commutation and association, shared by tuples and options ----------------


def _swap(xs, i: int) -> list:
    xs = list(xs)
    xs[i], xs[i + 1] = xs[i + 1], xs[i]
    return xs


def _swaps(node: Term, t: Term, path: Path) -> range:
    return range(len(children(node)) - 1)


def _commute(node: Term, i: int) -> Term:
    return type(node)(tuple(_swap(children(node), i)))


def _splits(node: Term, t: Term, path: Path) -> tuple[int, ...]:
    """-1 ungroups a nested last component of the node's own kind; j in
    1..n-2 groups the components from #j on."""
    kids = children(node)
    if len(kids) < 2:
        return ()
    last = kids[-1]
    ungroup = (-1,) if isinstance(last, type(node)) and len(children(last)) >= 2 else ()
    return ungroup + tuple(range(1, len(kids) - 1))


def _associate(node: Term, j: int) -> Term:
    kind, kids = type(node), children(node)
    if j == -1:
        return kind(kids[:-1] + children(kids[-1]))
    return kind(kids[:j] + (kind(kids[j:]),))


def _commute_tuple_data(tr, t, r, i, ctx):
    return _as_tuple(r, t).with_parts(_swap(r.items, i))


def _associate_tuple_data(tr, t, r, j, ctx):
    items = _as_tuple(r, t).items
    if j != -1:
        return r.with_parts(items[:j] + [MTuple(items[j:])])
    if not isinstance(items[-1], MTuple):
        raise ShapeMismatchError("no nested tuple result to ungroup")
    return r.with_parts(items[:-1] + items[-1].items)


def _rebranched(opt: MOption, branches: list, branch_ids: list, selected) -> MOption:
    """`opt` over new branches, given their tokens and the selected one."""
    out = opt.with_parts(branches)
    out.branch_ids, out.selected = branch_ids, selected
    return out


def _commute_option_data(tr, t, r, i, ctx):
    opt = _as_option(r, t)
    selected = {i: i + 1, i + 1: i}.get(opt.selected, opt.selected)
    return _rebranched(opt, _swap(opt.branches, i), _swap(opt.branch_ids, i), selected)


def _associate_option_data(tr, t, r, j, ctx):
    opt = _as_option(r, t)
    branches, ids, selected = opt.branches, opt.branch_ids, opt.selected
    if j == -1:
        inner = branches[-1]
        if isinstance(inner, MFailed):
            # a failed nested option expands to failed branches
            width = len(t.branches[-1].branches)
            grouped = [("g", tr.fresh_id()) for _ in range(width)]
            return _rebranched(
                opt, branches[:-1] + [MFailed()] * width, ids[:-1] + grouped, selected
            )
        if not isinstance(inner, MOption):
            raise ShapeMismatchError("no nested option result to ungroup")
        if selected is not None and selected == len(branches) - 1:
            selected = len(branches) - 1 + (inner.selected or 0)
        return _rebranched(
            opt, branches[:-1] + inner.branches, ids[:-1] + inner.branch_ids, selected
        )
    inner_sel = None
    if selected is not None and selected >= j:
        inner_sel, selected = selected - j, j
    inner = MOption(branches[j:], None, inner_sel, ids[j:])
    if not succeeded(inner):
        inner = MFailed()  # a failed group is a failed branch, as matching makes it
    return _rebranched(opt, branches[:j] + [inner], ids[:j] + [("g", tr.fresh_id())], selected)


# -- duplication and flattening -------------------------------------------------


def _anywhere(node: Term, t: Term, path: Path) -> tuple[int, ...]:
    return (0,)


def _short_in(node: Term, room: _Room) -> bool:
    return bool(room.short) and not room.short.isdisjoint(var_set(node))


def _plain(a: ArrayT) -> bool:
    return not a.flat and not a.folded


def _flattenable(node: ArrayT, t: Term, path: Path) -> tuple[int, ...]:
    inside = path and _enclosing_array(t, path) is not None
    return (0,) if _plain(node) and inside else ()


# -- distribution over the last component of a tuple ---------------------------


def _over_option(node: TupleT, t: Term, path: Path) -> tuple[int, ...]:
    return (0,) if len(node.items) >= 2 and isinstance(node.items[-1], OptionT) else ()


def _over_array(node: TupleT, t: Term, path: Path) -> tuple[int, ...]:
    if len(node.items) < 2 or not isinstance(node.items[-1], ArrayT):
        return ()
    *head, arr = node.items
    shared = var_set(TupleT(tuple(head))) & var_set(arr.elem)
    return (0,) if _plain(arr) and not shared else ()


def _distribute_option(node: TupleT, _: int) -> Term:
    *head, opt = node.items
    return OptionT(tuple(tuple_of(head + [b]) for b in opt.branches))


def _distribute_array(node: TupleT, _: int) -> Term:
    *head, arr = node.items
    return ArrayT(tuple_of(head + [arr.elem]), arr.index)


def _pair(t: TupleT, r: MTuple, last_t: Term, last_r: MatchResult) -> MatchResult:
    """Result of tuple_of(head + [last_t]) for the head of tuple t."""
    return _combine(list(zip(t.items[:-1], r.items[:-1])) + [(last_t, last_r)])


def _distribute_option_data(tr, t, r, _, ctx):
    tup = _as_tuple(r, t)
    opt_t = t.items[-1]
    opt = _as_option(tup.items[-1], opt_t)
    branches = [
        _pair(t, tup, bt, br) if succeeded(br) else MFailed()
        for bt, br in zip(opt_t.branches, opt.branches)
    ]
    return _keep_id(opt.with_parts(branches), r)


def _distribute_array_data(tr, t, r, _, ctx):
    tup = _as_tuple(r, t)
    arr_r = tup.items[-1]
    if not isinstance(arr_r, MArray):
        raise ShapeMismatchError("expected an array result to distribute over")
    head_tokens = ctx | footprint(MTuple(tup.items[:-1]))
    items = []
    for item in arr_r.items:
        if compatible(head_tokens | footprint(item), tr.constraints):
            items.append(_keep_id(_pair(t, tup, t.items[-1].elem, item), item))
    return _keep_id(arr_r.with_parts(items), r)


# -- folding into classes keyed by one element component ------------------------


def _keys(node: ArrayT, t: Term, path: Path) -> range:
    elem = node.elem
    tuples = isinstance(elem, TupleT) and len(elem.items) >= 2
    return range(len(elem.items) if _plain(node) and tuples else 0)


def _fold(node: ArrayT, k: int) -> Term:
    by = DistinctT(node.elem.items[k])
    return ArrayT(TupleT((ArrayT(node.elem, node.index), by)), by, folded=True)


def _fold_data(tr, t, r, k, ctx):
    if not isinstance(r, MArray):
        raise ShapeMismatchError("expected an array result to fold")
    classes: dict = {}
    for item in r.items:
        key_r = _as_tuple(item, t.elem).items[k]
        class_key = _value_key(key_r)
        if class_key not in classes:
            classes[class_key] = (MArray([]), key_r)
        classes[class_key][0].items.append(item)
    items = []
    for members, key_r in classes.values():
        cls = MTuple([members, key_r])
        cls.elem_id = tr.fresh_id()
        items.append(cls)
    return _keep_id(MArray(items, folded=True), r)


_TABLE = {
    rule.name: rule
    for rule in (
        Rule(
            "tuple-commutation", TupleT, "a tuple with components #i and #i+1",
            _swaps, _commute, _commute_tuple_data,
        ),
        Rule(
            "tuple-association", TupleT, "a tuple to ungroup (#-1) or to split at #1..n-2",
            _splits, _associate, _associate_tuple_data,
        ),
        Rule(
            "option-commutation", OptionT, "an option with branches #i and #i+1",
            _swaps, _commute, _commute_option_data,
        ),
        Rule(
            "option-association", OptionT, "an option to ungroup (#-1) or to split at #1..n-2",
            _splits, _associate, _associate_option_data,
        ),
        Rule(
            "tuple-duplication", Term, "#0",
            _anywhere,
            lambda node, _: TupleT((node, node)),
            lambda tr, t, r, _, ctx: _keep_id(MTuple([r, r]), r),
            numbered=False,
            room=_short_in,
        ),
        Rule(
            "array-flattening", ArrayT,
            "#0 and a plain array inside an enclosing array's element term",
            _flattenable,
            lambda node, _: ArrayT(node.elem, node.index, flat=True),
            lambda tr, t, r, rel, ctx: tr._splice(t, r, rel),
            numbered=False,
            room=lambda node, room: room.flat,
        ),
        Rule(
            "option-tuple-distribution", TupleT,
            "#0 and a tuple whose last component is an option",
            _over_option, _distribute_option, _distribute_option_data,
            numbered=False,
        ),
        Rule(
            "array-tuple-distribution", TupleT,
            "#0 and a tuple whose last component is a plain array sharing no variable "
            "with the rest",
            _over_array, _distribute_array, _distribute_array_data,
            numbered=False,
        ),
        Rule(
            "array-tpl-folding", ArrayT, "a plain array of tuples with a component #k",
            _keys, _fold, _fold_data,
            room=lambda node, room: room.fold,
        ),
    )
}

RULES = tuple(_TABLE)


def apply_rule(rule: str, t: Term, path: Path, param: int = 0) -> Term:
    """One restructuring step; raises RuleInapplicableError stating the
    rule's side condition when it fails, ValueError for an unknown rule."""
    entry = _TABLE.get(rule)
    if entry is None:
        raise ValueError(f"unknown rule {rule!r}")
    node = subterm(t, path)
    if not isinstance(node, entry.on) or param not in entry.params(node, t, path):
        raise RuleInapplicableError(
            f"{rule} @ {_loc(path)} #{param}: needs {entry.needs}"
        )
    return replace(t, path, entry.term(node, param))


def replay(source: Term, route: RewriteRoute) -> tuple[Term, ...]:
    """The terms the route passes through, the source first, the result last."""
    terms = [source]
    for step in route:
        terms.append(apply_rule(step.rule, terms[-1], step.path, step.param))
    return tuple(terms)


# ---------------------------------------------------------------------------
# route inference


def _feature_counts(t: Term) -> tuple[int, int]:
    """(flattened arrays, folded arrays); both are monotone under the rules."""
    flats = folds = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, ArrayT):
            flats += node.flat
            folds += node.folded
        stack.extend(children(node))
    return flats, folds


def _successors(t: Term, room: _Room):
    """Candidate steps and the states they lead to, in canonical order: rule
    order first, then preorder position, then parameter."""
    nodes = positions(t)
    of_kind = {Term: nodes}  # term classes are final: type() is the kind
    for path, node in nodes:
        of_kind.setdefault(type(node), []).append((path, node))
    for rule in _TABLE.values():
        for path, node in of_kind.get(rule.on, ()):
            if rule.room and not rule.room(node, room):
                continue
            for param in rule.params(node, t, path):
                yield Step(rule.name, path, param), apply_rule(rule.name, t, path, param)


def _count_budget(target: Term) -> Counter:
    """Per-variable occurrence ceiling for search states.  A folded class in
    the target may hide its grouping key inside the member term, so each
    distinct key contributes one extra allowed occurrence of its variables."""
    budget = var_counts(target)
    for _, node in positions(target):
        if isinstance(node, DistinctT):
            budget.update(var_counts(node.inner))
    return budget


def _feature_budget(target: Term) -> tuple[int, int]:
    """Flat/folded array ceilings, widened the same way as `_count_budget`:
    the hidden key copy inside a folded class may itself be flat or folded."""
    flats, folds = _feature_counts(target)
    for _, node in positions(target):
        if isinstance(node, DistinctT):
            f, d = _feature_counts(node.inner)
            flats += f
            folds += d
    return flats, folds


def _first_difference(source: Term, target: Term) -> str:
    missing = var_set(target) - var_set(source)
    if missing:
        name = sorted(missing)[0]
        return f"target variable ${name} is not bound by the source"
    sc, tc = var_counts(source), var_counts(target)
    sf, tf = _feature_counts(source), _feature_budget(target)
    if sf[0] > tf[0]:
        return "source has flattened arrays the target lacks"
    if sf[1] > tf[1]:
        return "source has folded arrays the target lacks"
    for v in sorted(tc):
        if sc[v] > tc[v]:
            return f"${v} occurs more often in the source than in the target"
    return f"no rule sequence turns {render(source)} into {render(target)}"


def _invalid(source: Term, target: Term) -> InvalidConstructionError:
    return InvalidConstructionError(
        f"invalid construction: {_first_difference(source, target)}"
    )


def projected_source(source: Term, target: Term) -> Term:
    return project(source, var_set(target))


def infer_route(
    source: Term,
    target: Term,
    max_depth: int = 14,
    max_states: int = 200_000,
) -> RewriteRoute:
    """A route whose replay from the (projected) source yields a term matching
    the target.  Breadth-first, one level per route length, each level in the
    order its states were found and each state's steps in canonical order, so
    the first route found is the shallowest, rule-order-least one and explain
    output is deterministic.  Raises InvalidConstructionError when a level
    admits no new state (the space is exhausted without a hit), and
    SearchBoundExceededError when a route would need more than `max_depth`
    steps or the whole search more than `max_states` admitted states."""
    if var_set(target) - var_set(source):
        raise _invalid(source, target)
    source = projected_source(source, target)
    if terms_match(source, target):
        return ()
    # no rule introduces an option into an option-free term
    def has_option(t: Term) -> bool:
        return any(isinstance(n, OptionT) for _, n in positions(t))

    if has_option(target) and not has_option(source):
        raise InvalidConstructionError(
            "invalid construction: the target has option structure "
            "the source cannot produce"
        )
    target_counts = var_counts(target)
    budget = _count_budget(target)
    tflats, tfolds = _feature_budget(target)

    def room_of(t: Term) -> Optional[_Room]:
        """What t still lacks of the target; None when t is over budget."""
        counts, (flats, folds) = var_counts(t), _feature_counts(t)
        if flats > tflats or folds > tfolds or any(n > budget[v] for v, n in counts.items()):
            return None
        short = frozenset(v for v, n in target_counts.items() if counts[v] < n)
        return _Room(short, flats < tflats, folds < tfolds)

    def exceeded(depth: int) -> SearchBoundExceededError:
        return SearchBoundExceededError(
            f"route search exhausted its budget transforming {render(source)} "
            f"into {render(target)}: {admitted} states admitted "
            f"(max_states {max_states}), depth {depth} reached (max_depth {max_depth})"
        )

    room = room_of(source)
    if room is None:
        raise _invalid(source, target)
    # each state is met once; a level holds its admitted states, routes, rooms
    seen = {source}
    level = [(source, (), room)]
    admitted = 0
    for depth in range(1, max_depth + 1):
        following = []
        for t, route, room in level:
            for step, succ in _successors(t, room):
                if terms_match(succ, target):
                    return route + (step,)
                if succ in seen:
                    continue
                seen.add(succ)
                succ_room = room_of(succ)
                if succ_room is None:
                    continue
                if admitted == max_states:
                    raise exceeded(depth)
                admitted += 1
                following.append((succ, route + (step,), succ_room))
        if not following:
            raise _invalid(source, target)
        level = following
    raise exceeded(max_depth)


# ---------------------------------------------------------------------------
# constraints recorded by filtering, consumed by array distribution


_NO_POSTINGS: frozenset = frozenset()


@dataclass(frozen=True)
class Constraint:
    """Satisfied support-tuple footprints of one filter condition.

    `footprints` are token sets of the satisfied assignments; `groups` lists,
    per array instance or option involved, the tokens one assignment picks
    from; `option_universe` pairs, per option involved, the branch tokens the
    condition covered with all that option's branch tokens, so a combination
    standing on a branch the condition never inspected is left alone."""

    footprints: tuple[frozenset, ...]
    groups: tuple[frozenset, ...]
    option_universe: tuple[tuple[frozenset, frozenset], ...] = ()

    def allows(self, tokens: frozenset) -> bool:
        for covered, universe in self.option_universe:
            chosen = tokens & universe
            if chosen and not chosen <= covered:
                return True
        required: set = set()
        for group in self.groups:
            chosen = tokens & group
            if len(chosen) == 1:
                required |= chosen
        if not required:
            return True
        # some footprint holds every required token: intersect their postings
        first, *rest = sorted((self._postings.get(tok, _NO_POSTINGS) for tok in required), key=len)
        return bool(first.intersection(*rest))

    @cached_property
    def _postings(self) -> dict:
        """Token -> indexes of the footprints holding it, built on first use."""
        postings: dict = {}
        for i, fp in enumerate(self.footprints):
            for tok in fp:
                postings.setdefault(tok, set()).add(i)
        return postings


def compatible(tokens: frozenset, constraints: Iterable[Constraint]) -> bool:
    return all(c.allows(tokens) for c in constraints)


# ---------------------------------------------------------------------------
# transformation of match results


class Transformer:
    """Applies a route's steps to a match result, step for step.

    Holds the filter constraints so array distribution only couples
    combinations some satisfied support tuple allows, and the id source for
    nodes it creates: the matcher's, so no new id equals a matched one that
    a constraint refers to (by default a counter of its own, from 1)."""

    def __init__(
        self, constraints: Iterable[Constraint] = (), ids: Optional[Iterator[int]] = None
    ):
        self.constraints = tuple(constraints)
        self._ids = itertools.count(1) if ids is None else ids

    def fresh_id(self) -> int:
        return next(self._ids)

    def transform(
        self, r: MatchResult, terms: tuple[Term, ...], route: RewriteRoute
    ) -> MatchResult:
        """`terms` are the terms `route` passes through (`replay`)."""
        for t, step in zip(terms, route):
            r = self._apply(step, t, r)
        return r

    # -- navigation ----------------------------------------------------------

    def _apply(self, step: Step, t: Term, r: MatchResult) -> MatchResult:
        rule, path, arg = _TABLE[step.rule], step.path, step.param
        if step.rule == "array-flattening":
            # a flat ancestor holds spliced singles, not an array result, so
            # the elements to multiply live in the nearest non-flat array out
            path = _enclosing_array(t, step.path)
            while path is not None and subterm(t, path).flat:
                path = _enclosing_array(t, path)
            if path is None:
                raise ShapeMismatchError("flattened array has no enclosing array")
            arg = step.path[len(path) :]
        return self._descend(t, r, path, lambda nt, nr, ctx: rule.data(self, nt, nr, arg, ctx))

    def _descend(
        self, t: Term, r: MatchResult, path: Path, op, ctx: frozenset = frozenset()
    ) -> MatchResult:
        """Walk `path`, applying `op` at the end.  `ctx` carries the identity
        tokens chosen along the way (array elements entered, option branches
        taken, sibling tuple components) so that operations inside one element
        can be checked against constraints recorded over the whole result."""
        if r.elem_id is not None:
            ctx = ctx | {r.elem_id}
        if not path:
            return op(t, r, ctx)
        step = path[0]
        if isinstance(t, TupleT):
            if not isinstance(r, MTuple) or len(r.items) != len(t.items):
                raise ShapeMismatchError(
                    f"expected a {len(t.items)}-tuple result for {render(t)}"
                )
            items = r.parts()
            for i, sib in enumerate(items):
                if i != step:
                    ctx = ctx | footprint(sib)
            items[step] = self._descend(t.items[step], items[step], path[1:], op, ctx)
            return r.with_parts(items)
        if isinstance(t, OptionT):
            if not isinstance(r, MOption):
                raise ShapeMismatchError(f"expected an option result for {render(t)}")
            branches = r.parts()
            if succeeded(branches[step]):
                branch_ctx = ctx | {branch_token(r, step)}
                branches[step] = self._descend(
                    t.branches[step], branches[step], path[1:], op, branch_ctx
                )
            return r.with_parts(branches)
        if isinstance(t, ArrayT):
            if step != 0:
                raise ShapeMismatchError("array terms have a single element position")
            if t.flat:
                # spliced representation: the position holds the element content
                return _keep_id(self._descend(t.elem, r, path[1:], op, ctx), r)
            if not isinstance(r, MArray):
                raise ShapeMismatchError(f"expected an array result for {render(t)}")
            return r.with_parts([self._descend(t.elem, s, path[1:], op, ctx) for s in r.items])
        if isinstance(t, DistinctT):
            return self._descend(t.inner, r, path[1:], op, ctx)
        raise ShapeMismatchError(f"cannot descend into {render(t)}")

    # -- flattening splice ---------------------------------------------------

    def _splice(self, arr_t: Term, arr_r: MatchResult, rel: Path) -> MatchResult:
        """`rel` addresses the array being flattened inside the enclosing
        array's element term; every element whose selected content reaches it
        expands into one output element per inner element."""
        if not isinstance(arr_t, ArrayT) or not isinstance(arr_r, MArray):
            raise ShapeMismatchError("flattening needs an enclosing array result")
        if not rel or rel[0] != 0:
            raise ShapeMismatchError("flattened position lies outside the element term")
        inner_path = rel[1:]
        items: list[MatchResult] = []
        for elem in arr_r.items:
            items.extend(self._expand(arr_t.elem, elem, inner_path))
        return arr_r.with_parts(items)

    def _expand(self, t: Term, r: MatchResult, path: Path) -> list[MatchResult]:
        if not path:
            if not isinstance(r, MArray):
                raise ShapeMismatchError("flattened position does not hold an array")
            for item in r.items:
                if item.elem_id is None:
                    item.elem_id = self.fresh_id()
            return list(r.items)
        step = path[0]
        if isinstance(t, (TupleT, OptionT)):
            tuple_t = isinstance(t, TupleT)
            if not isinstance(r, MTuple if tuple_t else MOption):
                kind = "a tuple" if tuple_t else "an option"
                raise ShapeMismatchError(f"expected {kind} result while flattening")
            parts = r.parts()
            if not tuple_t:
                # an option expands only through the branch it takes
                take = r.selected
                if take is None:
                    take = next((i for i, b in enumerate(parts) if succeeded(b)), None)
                if take != step or not succeeded(parts[step]):
                    return [r]
            out = []
            for sub in self._expand(children(t)[step], parts[step], path[1:]):
                parts[step] = sub
                out.append(r.with_parts(parts))
            return out
        if isinstance(t, ArrayT) and t.flat:
            if step != 0:
                raise ShapeMismatchError("array terms have a single element position")
            return [_keep_id(sub, r) for sub in self._expand(t.elem, r, path[1:])]
        if isinstance(t, DistinctT):
            return self._expand(t.inner, r, path[1:])
        raise ShapeMismatchError(
            "flattening may only cross tuples and options inside the element term"
        )


def _keep_id(new: MatchResult, old: MatchResult) -> MatchResult:
    new.elem_id = old.elem_id
    return new


def _as_tuple(r: MatchResult, t: Term) -> MTuple:
    if not isinstance(r, MTuple):
        raise ShapeMismatchError(f"expected a tuple result for {render(t)}")
    return r


def _as_option(r: MatchResult, t: Term) -> MOption:
    if not isinstance(r, MOption):
        raise ShapeMismatchError(f"expected an option result for {render(t)}")
    return r


def project_result(r: MatchResult, t: Term, keep: set) -> MatchResult:
    """Mirror of terms.project on a match result: drop the parts bound to
    variables outside `keep`, collapsing exactly as the term projection does."""
    if isinstance(r, MFailed):
        return r
    if isinstance(t, Var):
        return r if t.name in keep else MUnit()
    if isinstance(t, TupleT):
        if not t.items:
            return r
        if not isinstance(r, MTuple) or len(r.items) != len(t.items):
            raise ShapeMismatchError(f"expected a {len(t.items)}-tuple for {render(t)}")
        parts = []
        for st, sr in zip(t.items, r.items):
            parts.append((project(st, keep), project_result(sr, st, keep)))
        return _keep_id(_combine(parts), r)
    if isinstance(t, OptionT):
        if is_unit(project(t, keep)):
            return _keep_id(MUnit(), r)
        if not isinstance(r, MOption):
            raise ShapeMismatchError(f"expected an option result for {render(t)}")
        return r.with_parts([
            project_result(b, bt, keep) if succeeded(b) else MFailed()
            for bt, b in zip(t.branches, r.branches)
        ])
    if isinstance(t, ArrayT):
        if is_unit(project(t.elem, keep)):
            return _keep_id(MUnit(), r)
        if not isinstance(r, MArray):
            raise ShapeMismatchError(f"expected an array result for {render(t)}")
        return r.with_parts([project_result(item, t.elem, keep) for item in r.items])
    if isinstance(t, DistinctT):
        return project_result(r, t.inner, keep)
    raise ShapeMismatchError(f"cannot project a result against {render(t)}")


def _value_key(r: MatchResult):
    """Deep structural key of a result's bound values, used for grouping."""
    if isinstance(r, MBind):
        return ("b", r.name, key(r.value, nan_equal=True))
    if isinstance(r, MTuple):
        return ("t",) + tuple(_value_key(s) for s in r.items)
    if isinstance(r, MArray):
        return ("a",) + tuple(_value_key(s) for s in r.items)
    if isinstance(r, MOption):
        if r.selected is not None:
            return ("o", r.selected, _value_key(r.branches[r.selected]))
        return ("o",) + tuple(_value_key(b) for b in r.branches if succeeded(b))
    if isinstance(r, MUnit):
        return ("u",)
    raise ShapeMismatchError("cannot take the value of a failed result")

