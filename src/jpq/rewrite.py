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
from functools import cached_property
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    InvalidConstructionError,
    RuleInapplicableError,
    SearchBoundExceededError,
    ShapeMismatchError,
)
from .matching import (
    MArray,
    MatchResult,
    MFailed,
    MOption,
    MTuple,
    _combine,
    _flat,
    _keep_id,
    _viable,
    branch_token,
    footprint,
    shaped,
    succeeded,
    value_of,
)
from .model import key
from .terms import (
    ArrayT,
    DistinctT,
    OptionT,
    Path,
    Record,
    Term,
    TupleT,
    Var,
    children,
    is_unit,
    optioned,
    positions,
    projection,
    render,
    replace,
    slot_code,
    subterm,
    terms_match,
    tuple_of,
    var_counts,
    var_set,
)


def _loc(path: Path) -> str:
    return "/".join(str(p) for p in path) or "root"


class Step(Record):
    rule: str
    path: Path
    param: int = 0

    def describe(self) -> str:
        extra = f" #{self.param}" if _TABLE[self.rule].numbered else ""
        return f"{self.rule} @ {_loc(self.path)}{extra}"


RewriteRoute = tuple[Step, ...]


class _Room(Record):
    """What a search state still lacks of the target."""

    short: frozenset  # variables occurring fewer times than in the target
    flat: bool  # another array may be flattened
    fold: bool  # another array may be folded


class Rule(Record):
    """One restructuring rule, stated once.

    The rule rewrites nodes of type `on`.  `params(node, t, path)` lists in
    ascending order the parameters whose side conditions, summarised by
    `needs` (a plain array is neither flattened nor folded), hold at that
    node of `t`; `term(node, param)` is the rewritten node; `data(tr, node,
    r, param, ctx)` lists the results that replace a result `r` of the node's
    shape for Transformer `tr`, given the identity tokens `ctx` chosen on the
    way down: one result, or for flattening the array's items, which the
    nearest non-flat enclosing array takes in place of the element that held
    them.  `room`, when set, is a search-only gate: route search offers the
    rule at a node only while the state lacks what the rule adds.  `numbered`
    rules show their parameter in explain text."""

    name: str
    on: type
    needs: str
    params: Callable[[Term, Term, Path], Iterable[int]]
    term: Callable[[Term, int], Term]
    data: Callable[..., list[MatchResult]]
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
    return [shaped(r, t).with_parts(_swap(r.items, i))]


def _associate_tuple_data(tr, t, r, j, ctx):
    items = shaped(r, t).items
    if j != -1:
        return [r.with_parts(items[:j] + [MTuple(items[j:])])]
    return [r.with_parts(items[:-1] + shaped(items[-1], t.items[-1]).items)]


def _rebranched(opt: MOption, branches: list, branch_ids: list) -> list[MOption]:
    """`opt` over new branches, given their tokens, as a rule's data result."""
    out = opt.with_parts(branches)
    out.branch_ids = list(branch_ids)
    return [out]


def _commute_option_data(tr, t, r, i, ctx):
    opt = shaped(r, t)
    return _rebranched(opt, _swap(opt.branches, i), _swap(opt.branch_ids, i))


def _associate_option_data(tr, t, r, j, ctx):
    opt = shaped(r, t)
    branches, ids = opt.branches, opt.branch_ids
    if j == -1:
        inner = branches[-1]
        if isinstance(inner, MFailed):
            # a failed nested option expands to failed branches
            width = len(t.branches[-1].branches)
            grouped = [("g", tr.fresh_id()) for _ in range(width)]
            return _rebranched(opt, branches[:-1] + [MFailed()] * width, ids[:-1] + grouped)
        inner = shaped(inner, t.branches[-1])
        return _rebranched(opt, branches[:-1] + inner.branches, ids[:-1] + inner.branch_ids)
    # a failed group is a failed branch, as matching makes it
    inner = _viable(MOption(branches[j:], None, ids[j:]))
    return _rebranched(opt, branches[:j] + [inner], ids[:j] + [("g", tr.fresh_id())])


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


def _flatten_data(tr, t, r, _, ctx):
    """The array's items, each given an id if it has none."""
    for item in shaped(r, t).items:
        if item.elem_id is None:
            item.elem_id = tr.fresh_id()
    return list(r.items)


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


def _distribute_option_data(tr, t, r, _, ctx):
    tup = shaped(r, t)
    *head_t, opt_t = t.items
    opt = shaped(tup.items[-1], opt_t)
    head, layout = tup.items[:-1], [slot_code(c) for c in head_t]
    branches = [
        _flat(layout + [slot_code(bt)], head + [br]) if succeeded(br) else MFailed()
        for bt, br in zip(opt_t.branches, opt.branches)
    ]
    return [_keep_id(opt.with_parts(branches), r)]


def _distribute_array_data(tr, t, r, _, ctx):
    tup = shaped(r, t)
    *head_t, arr_t = t.items
    arr_r = shaped(tup.items[-1], arr_t)
    head, items = tup.items[:-1], arr_r.items
    if tr.constraints:
        items = tr.allowed(ctx | footprint(MTuple(head)), arr_r)
    layout = [slot_code(c) for c in head_t] + [slot_code(arr_t.elem)]  # one per step
    return [_keep_id(arr_r.with_parts([_keep_id(_flat(layout, head + [i]), i) for i in items]), r)]


# -- folding into classes keyed by one element component ------------------------


def _keys(node: ArrayT, t: Term, path: Path) -> range:
    elem = node.elem
    tuples = isinstance(elem, TupleT) and len(elem.items) >= 2
    return range(len(elem.items) if _plain(node) and tuples else 0)


def _fold(node: ArrayT, k: int) -> Term:
    by = DistinctT(node.elem.items[k])
    return ArrayT(TupleT((ArrayT(node.elem, node.index), by)), by, folded=True)


def _fold_data(tr, t, r, k, ctx):
    classes: dict = {}
    for item in shaped(r, t).items:
        key_r = shaped(item, t.elem).items[k]
        class_key = key(value_of(key_r), nan_equal=True)
        if class_key not in classes:
            classes[class_key] = (MArray([]), key_r)
        classes[class_key][0].items.append(item)
    items = []
    for members, key_r in classes.values():
        cls = MTuple([members, key_r])
        cls.elem_id = tr.fresh_id()
        items.append(cls)
    return [_keep_id(MArray(items, folded=True), r)]


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
            lambda tr, t, r, _, ctx: [_keep_id(MTuple([r, r]), r)],
            numbered=False,
            room=_short_in,
        ),
        Rule(
            "array-flattening", ArrayT,
            "#0 and a plain array inside an enclosing array's element term",
            _flattenable,
            lambda node, _: ArrayT(node.elem, node.index, flat=True),
            _flatten_data,
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


def _census(t: Term) -> Counter:
    """Variable occurrences, plus the flattened arrays under "^" and the folded
    ones under "%", counted in one walk; the array counts are monotone under
    the rules."""
    census: Counter = Counter()
    stack = [t]
    while stack:
        node = stack.pop()
        kind = type(node)  # term classes are final
        if kind is Var:
            census[node.name] += 1
        elif kind is ArrayT:
            census["^"] += node.flat
            census["%"] += node.folded
        stack.extend(children(node))
    return census


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


def _budget(target: Term) -> Counter:
    """The census ceiling for search states: the target's census plus one
    hidden copy of each distinct key, the copy a folded class may hold
    inside its members without showing it (`terms.class_members`)."""
    budget = _census(target)
    for _, node in positions(target):
        if isinstance(node, DistinctT):
            budget.update(_census(node.inner))
    return budget


def _first_difference(source: Term, target: Term) -> str:
    missing = var_set(target) - var_set(source)
    if missing:
        name = sorted(missing)[0]
        return f"target variable ${name} is not bound by the source"
    sc, tc, budget = _census(source), var_counts(target), _budget(target)
    if sc["^"] > budget["^"]:
        return "source has flattened arrays the target lacks"
    if sc["%"] > budget["%"]:
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
    return projection(source, var_set(target))[source] or source


MAX_DEPTH = 14  # the steps of a route the search may find
MAX_STATES = 200_000  # the states one search may admit


def infer_route(source: Term, target: Term, projected: Optional[Term] = None) -> RewriteRoute:
    """A route whose replay from the projected source (`projected`, when the
    caller has it) yields a term matching the target.  Breadth-first, one
    level per route length, each level in the order its states were found
    and each state's steps in canonical order, so the first route found is
    the shallowest, rule-order-least one and explain output is
    deterministic.  Raises InvalidConstructionError when a level
    admits no new state (the space is exhausted without a hit), and
    SearchBoundExceededError when a route would need more than `MAX_DEPTH`
    steps or the whole search more than `MAX_STATES` admitted states."""
    if var_set(target) - var_set(source):
        raise _invalid(source, target)
    source = projected_source(source, target) if projected is None else projected
    if terms_match(source, target):
        return ()
    # no rule introduces an option into an option-free term
    if target in optioned(target) and source not in optioned(source):
        raise InvalidConstructionError(
            "invalid construction: the target has option structure "
            "the source cannot produce"
        )
    target_counts = var_counts(target)
    budget = _budget(target)

    def room_of(t: Term) -> Optional[_Room]:
        """What t still lacks of the target; None when t is over budget."""
        census = _census(t)
        if any(n > budget[v] for v, n in census.items()):
            return None
        short = frozenset(v for v, n in target_counts.items() if census[v] < n)
        return _Room(short, census["^"] < budget["^"], census["%"] < budget["%"])

    def exceeded(depth: int) -> SearchBoundExceededError:
        return SearchBoundExceededError(
            f"route search exhausted its budget transforming {render(source)} "
            f"into {render(target)}: {admitted} states admitted "
            f"(max_states {MAX_STATES}), depth {depth} reached (max_depth {MAX_DEPTH})"
        )

    room = room_of(source)
    if room is None:
        raise _invalid(source, target)
    # each state is met once; a level holds its admitted states, routes, rooms
    seen = {source}
    level = [(source, (), room)]
    admitted = 0
    for depth in range(1, MAX_DEPTH + 1):
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
                if admitted == MAX_STATES:
                    raise exceeded(depth)
                admitted += 1
                following.append((succ, route + (step,), succ_room))
        if not following:
            raise _invalid(source, target)
        level = following
    raise exceeded(MAX_DEPTH)


# ---------------------------------------------------------------------------
# constraints recorded by filtering, consumed by array distribution


class Picks(NamedTuple):
    """What a head's or an item's footprint picks (`Constraint.picks`)."""

    open: bool  # it stands on an option branch the condition never inspected
    groups: dict  # group index -> the tokens picked from it, for each group the set meets
    held: Optional[AbstractSet]  # the footprints holding each of its lone picks; None: it has none


class Constraint(Record):
    """Satisfied support-tuple footprints of one filter condition.

    `footprints` are token sets of the satisfied assignments; `groups` lists,
    per array instance involved, the element ids one assignment picks from;
    `option_universe` pairs, per option involved, the branch tokens the
    condition covered with all that option's branch tokens, so a combination
    standing on a branch the condition never inspected is left alone.  A
    token set's lone pick is the only token it holds from a group (as
    footprints stop at arrays, no query now holds two); heads and items are
    read alike, with `picks`, and paired by `allows`.

    Array distribution (`Transformer.allowed`) alone reads the postings, token
    -> the footprints holding it, and the groups of each token; both are built
    on first use, so a plan that distributes no array builds neither."""

    footprints: tuple[frozenset, ...]
    groups: tuple[frozenset, ...]
    option_universe: tuple[tuple[frozenset, frozenset], ...] = ()

    def picks(self, tokens: AbstractSet) -> Picks:
        """What `tokens` pick from each group, and the footprints holding each lone pick."""
        groups: dict = {}
        for tok in tokens:
            for g in self._groups_of.get(tok, ()):
                groups.setdefault(g, set()).add(tok)
        return Picks(not self._uncovered.isdisjoint(tokens), groups, self._holding(groups))

    def allows(self, head: Picks, item: Picks) -> bool:
        """Whether the item may go beside the head: the pair stands on an
        uncovered branch, or some footprint holds each of the pair's lone picks.
        Asked only of a head that picks from its items' groups, which no
        query now makes."""
        if head.open or item.open:
            return True
        pair = {g: head.groups.get(g, set()) | item.groups.get(g, set())
                for g in head.groups.keys() | item.groups.keys()}
        held = self._holding(pair)
        return held is None or bool(held)

    def _holding(self, groups: dict) -> Optional[AbstractSet]:
        """Indexes of the footprints holding each token picked alone from its
        group in `groups`; None, for all, when nothing restricts them.  One
        token's postings are returned as they are: no caller writes to them."""
        postings = [self._postings.get(tok, frozenset())
                    for chosen in groups.values() if len(chosen) == 1 for tok in chosen]
        if len(postings) < 2:
            return postings[0] if postings else None
        return min(postings, key=len).intersection(*postings)

    @cached_property
    def _uncovered(self) -> frozenset:
        """The branch tokens of the options involved the condition never inspected."""
        return frozenset().union(*(every - covered for covered, every in self.option_universe))

    @cached_property
    def _groups_of(self) -> dict:
        """Token -> indexes of the groups holding it, built on first use."""
        return _index(self.groups)

    @cached_property
    def _postings(self) -> dict:
        """Token -> indexes of the footprints holding it, built on first use."""
        return _index(self.footprints)


def _index(sets: tuple[frozenset, ...]) -> dict:
    """Token -> indexes of the sets holding it."""
    index: dict = {}
    for i, tokens in enumerate(sets):
        for tok in tokens:
            index.setdefault(tok, set()).add(i)
    return index


# ---------------------------------------------------------------------------
# transformation of match results


def _reading(c: Constraint, fps: list) -> tuple:
    """One constraint's reading of an array's items, given their footprints:
    their picks; the groups they meet; the positions of the items that are
    open, of the others that pick nothing alone, and of all that some head may
    keep; and footprint index -> the positions of the items whose lone picks
    it holds."""
    picks = [c.picks(fp) for fp in fps]
    met, opened, unheld, index = set(), set(), set(), {}
    for i, p in enumerate(picks):
        met.update(p.groups)
        if p.open or p.held is None:
            (opened if p.open else unheld).add(i)
        else:
            for f in p.held:
                index.setdefault(f, []).append(i)
    return picks, met, opened, unheld, opened.union(unheld, *index.values()), index


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
        self._readings: dict = {}

    def allowed(self, head: frozenset, arr: MArray) -> list[MatchResult]:
        """`arr`'s items every constraint allows beside the tokens `head`, in
        array order.  Each constraint's `_reading` of the items is made once
        per step, the head's `picks` once per call.  A head takes the items
        whose footprints meet its own, through the reading's index; one that
        picks from their groups (no query now) asks `allows` of each item."""
        items = arr.items
        if arr not in self._readings:  # keyed by identity
            fps = [footprint(item) for item in items]
            self._readings[arr] = [_reading(c, fps) for c in self.constraints]
        named, checks = None, []
        readings = zip(self.constraints, self._readings[arr])
        for c, (picks, met, opened, unheld, live, index) in readings:
            mine = c.picks(head)
            if mine.open:
                continue
            if not met.isdisjoint(mine.groups):
                checks.append((c, mine, picks))
                continue
            # held None: the head restricts nothing; empty: only open items go beside it
            hits = (index.get(f, ()) for f in mine.held or ())
            kept = live if mine.held is None else opened.union(unheld if mine.held else (), *hits)
            named = kept if named is None else named & kept
        at = range(len(items)) if named is None else sorted(named)
        return [items[i] for i in at if all(c.allows(h, ps[i]) for c, h, ps in checks)]

    def fresh_id(self) -> int:
        return next(self._ids)

    def transform(
        self, r: MatchResult, terms: tuple[Term, ...], route: RewriteRoute
    ) -> MatchResult:
        """`terms` are the terms `route` passes through (`replay`)."""
        for t, step in zip(terms, route):
            self._readings.clear()  # a cache for one step: it pins the arrays it holds
            out = self._descend(step, t, r, step.path)
            if len(out) != 1:
                raise ShapeMismatchError(f"{step.describe()} leaves {len(out)} results at the root")
            r = out[0]
        return r

    def _descend(
        self, step: Step, t: Term, r: MatchResult, path: Path, ctx: frozenset = frozenset()
    ) -> list[MatchResult]:
        """The results that replace `r` once `step` is applied at `path` below
        it.  A tuple or option on the path is repeated once per result from
        below (an option whose branch there failed is kept as it is), and a
        non-flat array takes its items' results as its items.  `ctx` carries
        what was chosen on the way (array elements entered, option branches
        taken, sibling tuple components' footprints) so that operations inside
        one element are checked against constraints over the whole result."""
        if r.elem_id is not None:
            ctx = ctx | {r.elem_id}
        if not path:
            return _TABLE[step.rule].data(self, t, r, step.param, ctx)
        i, rest = path[0], path[1:]
        if isinstance(t, TupleT):
            for j, sib in enumerate(shaped(r, t).items):
                if j != i:
                    ctx = ctx | footprint(sib)
        elif isinstance(t, OptionT):
            if not succeeded(shaped(r, t).branches[i]):
                return [r]
            ctx = ctx | {branch_token(r, i)}
        elif isinstance(t, ArrayT) and not t.flat:
            items = shaped(r, t).items
            items = [sub for s in items for sub in self._descend(step, t.elem, s, rest, ctx)]
            return [r.with_parts(items)]
        elif isinstance(t, (ArrayT, DistinctT)):
            # the only child, of the same result: a flat array's position
            # holds one spliced element, a distinct term its inner term's result
            return self._descend(step, children(t)[0], r, rest, ctx)
        else:
            raise ShapeMismatchError(f"cannot descend into {render(t)}")
        parts, out = r.parts(), []
        for sub in self._descend(step, children(t)[i], parts[i], rest, ctx):
            parts[i] = sub
            out.append(r.with_parts(parts))
        return out


def project_result(r: MatchResult, t: Term, shown: dict[Term, Optional[Term]]) -> MatchResult:
    """Mirror of terms.projection on a match result of the matching term
    `t`, given the projection `shown` of t's subterms: drop the parts bound
    to the variables it drops, collapsing exactly as the term projection
    does.  A result of a subterm kept whole is returned as it is."""
    p = shown[t]
    if p is None or isinstance(r, MFailed):
        return r
    if isinstance(t, Var):
        return MTuple([])
    if isinstance(t, TupleT):
        parts = []
        for st, sr in zip(t.items, shaped(r, t).items):
            parts.append((shown[st] or st, project_result(sr, st, shown)))
        return _keep_id(_combine(parts), r)
    if is_unit(p):
        return _keep_id(MTuple([]), r)
    if isinstance(t, OptionT):
        branches = shaped(r, t).branches
        return r.with_parts([project_result(b, bt, shown) for bt, b in zip(t.branches, branches)])
    items = shaped(r, t).items
    return r.with_parts([project_result(item, t.elem, shown) for item in items])
