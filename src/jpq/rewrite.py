"""Restructuring rules as a term-rewriting system, route inference, and the
data transformation each route drives.

A route is an ordered list of steps (rule, subterm path, parameter); replaying
it from the source term yields the target term, and a Transformer applies the
same steps to the match result.  Inference is breadth-first search that
expands each state once; tuple duplication is budgeted by per-variable
occurrence deficits so the otherwise infinite system stays bounded.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

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
    footprint,
    succeeded,
)
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
    project,
    render,
    replace,
    subterm,
    terms_match,
    tuple_of,
    var_counts,
    var_set,
)

RULES = (
    "tuple-commutation",
    "tuple-association",
    "option-commutation",
    "option-association",
    "tuple-duplication",
    "array-flattening",
    "option-tuple-distribution",
    "array-tuple-distribution",
    "array-tpl-folding",
)

_PARAM_RULES = {
    "tuple-commutation",
    "tuple-association",
    "option-commutation",
    "option-association",
    "array-tpl-folding",
}


@dataclass(frozen=True)
class Step:
    rule: str
    path: Path
    param: int = 0

    def describe(self) -> str:
        loc = "/".join(str(p) for p in self.path) or "root"
        extra = f" #{self.param}" if self.rule in _PARAM_RULES else ""
        return f"{self.rule} @ {loc}{extra}"


RewriteRoute = tuple[Step, ...]


def _fail(rule: str, reason: str):
    raise RuleInapplicableError(f"{rule}: {reason}")


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


def apply_rule(rule: str, t: Term, path: Path, param: int = 0) -> Term:
    """One restructuring step; raises RuleInapplicableError naming the
    violated side condition.  Distribution rules accept flat tuples of any
    width whose last component is the option/array being distributed over."""
    target = subterm(t, path)
    if rule == "tuple-commutation":
        if not isinstance(target, TupleT) or len(target.items) < 2:
            _fail(rule, "needs a tuple of at least two components")
        if not 0 <= param < len(target.items) - 1:
            _fail(rule, "swap position out of range")
        items = list(target.items)
        items[param], items[param + 1] = items[param + 1], items[param]
        return replace(t, path, TupleT(tuple(items)))
    if rule == "option-commutation":
        if not isinstance(target, OptionT) or len(target.branches) < 2:
            _fail(rule, "needs an option of at least two branches")
        if not 0 <= param < len(target.branches) - 1:
            _fail(rule, "swap position out of range")
        branches = list(target.branches)
        branches[param], branches[param + 1] = branches[param + 1], branches[param]
        return replace(t, path, OptionT(tuple(branches)))
    if rule == "tuple-association":
        if not isinstance(target, TupleT):
            _fail(rule, "needs a tuple")
        items = target.items
        if param == -1:
            if not items or not isinstance(items[-1], TupleT) or len(items[-1].items) < 2:
                _fail(rule, "no nested tuple to ungroup")
            return replace(t, path, TupleT(items[:-1] + items[-1].items))
        if not 1 <= param <= len(items) - 2:
            _fail(rule, "grouping split out of range")
        return replace(t, path, TupleT(items[:param] + (TupleT(items[param:]),)))
    if rule == "option-association":
        if not isinstance(target, OptionT):
            _fail(rule, "needs an option")
        branches = target.branches
        if param == -1:
            if not branches or not isinstance(branches[-1], OptionT):
                _fail(rule, "no nested option to ungroup")
            return replace(t, path, OptionT(branches[:-1] + branches[-1].branches))
        if not 1 <= param <= len(branches) - 2:
            _fail(rule, "grouping split out of range")
        return replace(t, path, OptionT(branches[:param] + (OptionT(branches[param:]),)))
    if rule == "tuple-duplication":
        return replace(t, path, TupleT((target, target)))
    if rule == "array-flattening":
        if not isinstance(target, ArrayT):
            _fail(rule, "needs an array")
        if target.flat:
            _fail(rule, "array is already flattened")
        if target.folded:
            _fail(rule, "cannot flatten a folded array")
        if not path or _enclosing_array(t, path) is None:
            _fail(rule, "array is not inside an enclosing array's element term")
        return replace(t, path, ArrayT(target.elem, target.index, flat=True))
    if rule == "option-tuple-distribution":
        if not (
            isinstance(target, TupleT)
            and len(target.items) >= 2
            and isinstance(target.items[-1], OptionT)
        ):
            _fail(rule, "needs a tuple whose last component is an option")
        head = list(target.items[:-1])
        opt = target.items[-1]
        return replace(
            t, path, OptionT(tuple(tuple_of(head + [b]) for b in opt.branches))
        )
    if rule == "array-tuple-distribution":
        if not (
            isinstance(target, TupleT)
            and len(target.items) >= 2
            and isinstance(target.items[-1], ArrayT)
        ):
            _fail(rule, "needs a tuple whose last component is an array")
        head = list(target.items[:-1])
        arr = target.items[-1]
        if arr.folded:
            _fail(rule, "the array is a folded array")
        if arr.flat:
            _fail(rule, "the array is already flattened")
        if var_set(TupleT(tuple(head))) & var_set(arr.elem):
            _fail(rule, "the paired term and the array element share variables")
        return replace(
            t,
            path,
            ArrayT(tuple_of(head + [arr.elem]), arr.index, arr.flat, arr.folded),
        )
    if rule == "array-tpl-folding":
        if not isinstance(target, ArrayT):
            _fail(rule, "needs an array")
        if target.folded:
            _fail(rule, "array is already folded")
        if target.flat:
            _fail(rule, "cannot fold a flattened array")
        elem = target.elem
        if not isinstance(elem, TupleT) or len(elem.items) < 2:
            _fail(rule, "element term must be a tuple")
        if not 0 <= param < len(elem.items):
            _fail(rule, "grouping key position out of range")
        key = elem.items[param]
        classes = TupleT((ArrayT(elem, target.index, False, False), DistinctT(key)))
        return replace(t, path, ArrayT(classes, DistinctT(key), folded=True))
    raise ValueError(f"unknown rule {rule!r}")


def replay(source: Term, route: RewriteRoute) -> Term:
    t = source
    for step in route:
        t = apply_rule(step.rule, t, step.path, step.param)
    return t


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


def _positions_preorder(t: Term) -> list[tuple[Path, Term]]:
    out: list[tuple[Path, Term]] = []

    def walk(node: Term, path: Path) -> None:
        out.append((path, node))
        for i, kid in enumerate(children(node)):
            walk(kid, path + (i,))

    walk(t, ())
    return out


_RULE_ORDER = {name: i for i, name in enumerate(RULES)}


def _successors(t: Term, counts: Counter, flats: int, folds: int,
                target_counts: Counter, target_flats: int, target_folds: int):
    """Candidate steps in canonical order: rule-enumeration order first, then
    preorder position, then parameter; `counts`, `flats`, `folds` describe t."""
    need_dup = any(counts[v] < target_counts[v] for v in target_counts)
    steps: list[Step] = []
    for path, node in _positions_preorder(t):
        if isinstance(node, TupleT) and len(node.items) >= 2:
            for i in range(len(node.items) - 1):
                steps.append(Step("tuple-commutation", path, i))
            for j in range(1, len(node.items) - 1):
                steps.append(Step("tuple-association", path, j))
            if isinstance(node.items[-1], TupleT) and len(node.items[-1].items) >= 2:
                steps.append(Step("tuple-association", path, -1))
            if isinstance(node.items[-1], OptionT):
                steps.append(Step("option-tuple-distribution", path))
            last = node.items[-1]
            if (
                isinstance(last, ArrayT)
                and not last.folded
                and not last.flat
                and not (var_set(TupleT(node.items[:-1])) & var_set(last.elem))
            ):
                steps.append(Step("array-tuple-distribution", path))
        if isinstance(node, OptionT) and len(node.branches) >= 2:
            for i in range(len(node.branches) - 1):
                steps.append(Step("option-commutation", path, i))
            for j in range(1, len(node.branches) - 1):
                steps.append(Step("option-association", path, j))
            if isinstance(node.branches[-1], OptionT):
                steps.append(Step("option-association", path, -1))
        if need_dup and not is_unit(node):
            if any(counts[v] < target_counts[v] for v in var_set(node)):
                steps.append(Step("tuple-duplication", path))
        if isinstance(node, ArrayT) and not node.flat and not node.folded:
            if flats < target_flats and path and _enclosing_array(t, path) is not None:
                steps.append(Step("array-flattening", path))
            if (
                folds < target_folds
                and isinstance(node.elem, TupleT)
                and len(node.elem.items) >= 2
            ):
                for k in range(len(node.elem.items)):
                    steps.append(Step("array-tpl-folding", path, k))
    steps.sort(key=lambda s: (_RULE_ORDER[s.rule], s.path, s.param))
    for step in steps:
        try:
            yield step, apply_rule(step.rule, t, step.path, step.param)
        except RuleInapplicableError:
            continue


def _count_budget(target: Term) -> Counter:
    """Per-variable occurrence ceiling for search states.  A folded class in
    the target may hide its grouping key inside the member term, so each
    distinct key contributes one extra allowed occurrence of its variables."""
    budget = var_counts(target)
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, DistinctT):
            budget.update(var_counts(node.inner))
        stack.extend(children(node))
    return budget


def _feature_budget(target: Term) -> tuple[int, int]:
    """Flat/folded array ceilings, widened the same way as `_count_budget`:
    the hidden key copy inside a folded class may itself be flat or folded."""
    flats, folds = _feature_counts(target)
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, DistinctT):
            f, d = _feature_counts(node.inner)
            flats += f
            folds += d
        stack.extend(children(node))
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
        return isinstance(t, OptionT) or any(has_option(k) for k in children(t))

    if has_option(target) and not has_option(source):
        raise InvalidConstructionError(
            "invalid construction: the target has option structure "
            "the source cannot produce"
        )
    target_counts = var_counts(target)
    budget = _count_budget(target)
    tflats, tfolds = _feature_budget(target)

    def viable_features(t: Term) -> Optional[tuple[Counter, int, int]]:
        """(var counts, flat arrays, folded arrays) within budget, else None."""
        counts, (flats, folds) = var_counts(t), _feature_counts(t)
        if flats > tflats or folds > tfolds or any(n > budget[v] for v, n in counts.items()):
            return None
        return counts, flats, folds

    def exceeded(depth: int) -> SearchBoundExceededError:
        return SearchBoundExceededError(
            f"route search exhausted its budget transforming {render(source)} "
            f"into {render(target)}: {admitted} states admitted "
            f"(max_states {max_states}), depth {depth} reached (max_depth {max_depth})"
        )

    features = viable_features(source)
    if features is None:
        raise _invalid(source, target)
    # each state is met once; a level holds its admitted states, routes, features
    seen = {source}
    level = [(source, (), features)]
    admitted = 0
    for depth in range(1, max_depth + 1):
        following = []
        for t, route, features in level:
            for step, succ in _successors(t, *features, target_counts, tflats, tfolds):
                if terms_match(succ, target):
                    return route + (step,)
                if succ in seen:
                    continue
                seen.add(succ)
                succ_features = viable_features(succ)
                if succ_features is None:
                    continue
                if admitted == max_states:
                    raise exceeded(depth)
                admitted += 1
                following.append((succ, route + (step,), succ_features))
        if not following:
            raise _invalid(source, target)
        level = following
    raise exceeded(max_depth)


# ---------------------------------------------------------------------------
# constraints recorded by filtering, consumed by array distribution


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
        return any(required <= fp for fp in self.footprints)


def compatible(tokens: frozenset, constraints: Iterable[Constraint]) -> bool:
    return all(c.allows(tokens) for c in constraints)


# ---------------------------------------------------------------------------
# transformation of match results


class Transformer:
    """Applies a route's steps to a match result, step for step.

    Holds the filter constraints so array distribution only couples
    combinations some satisfied support tuple allows, and a fresh-id source
    for nodes it creates."""

    def __init__(self, constraints: Iterable[Constraint] = (), id_start: int = 1_000_000):
        self.constraints = tuple(constraints)
        self._ids = itertools.count(id_start)

    def fresh_id(self) -> int:
        return next(self._ids)

    def transform(self, r: MatchResult, source: Term, route: RewriteRoute) -> MatchResult:
        t = source
        for step in route:
            r = self._apply(step, t, r)
            t = apply_rule(step.rule, t, step.path, step.param)
        return r

    # -- navigation ----------------------------------------------------------

    def _apply(self, step: Step, t: Term, r: MatchResult) -> MatchResult:
        if step.rule == "array-flattening":
            # a flat ancestor holds spliced singles, not an array result, so
            # the elements to multiply live in the nearest non-flat array out
            anchor = _enclosing_array(t, step.path)
            while anchor is not None and subterm(t, anchor).flat:
                anchor = _enclosing_array(t, anchor)
            if anchor is None:
                raise ShapeMismatchError("flattened array has no enclosing array")
            rel = step.path[len(anchor) :]
            return self._descend(t, r, anchor, lambda at, ar, ctx: self._splice(at, ar, rel))
        return self._descend(t, r, step.path, lambda nt, nr, ctx: self._op(step, nt, nr, ctx))

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
            items = list(r.items)
            for i, sib in enumerate(items):
                if i != step:
                    ctx = ctx | footprint(sib)
            items[step] = self._descend(t.items[step], items[step], path[1:], op, ctx)
            return _keep_id(MTuple(items), r)
        if isinstance(t, OptionT):
            if not isinstance(r, MOption):
                raise ShapeMismatchError(f"expected an option result for {render(t)}")
            branches = list(r.branches)
            if succeeded(branches[step]):
                branch_ctx = ctx | {("b", r.branch_ids[step])}
                branches[step] = self._descend(
                    t.branches[step], branches[step], path[1:], op, branch_ctx
                )
            out = MOption(branches, r.option_id, r.selected, list(r.branch_ids))
            return _keep_id(out, r)
        if isinstance(t, ArrayT):
            if step != 0:
                raise ShapeMismatchError("array terms have a single element position")
            if t.flat:
                # spliced representation: the position holds the element content
                new = self._descend(t.elem, r, path[1:], op, ctx)
                return _keep_id(new, r)
            if not isinstance(r, MArray):
                raise ShapeMismatchError(f"expected an array result for {render(t)}")
            items = []
            for item in r.items:
                new = self._descend(t.elem, item, path[1:], op, ctx)
                new.elem_id = item.elem_id
                items.append(new)
            return _keep_id(MArray(items, r.folded), r)
        if isinstance(t, DistinctT):
            return self._descend(t.inner, r, path[1:], op, ctx)
        raise ShapeMismatchError(f"cannot descend into {render(t)}")

    # -- per-rule data operations -------------------------------------------

    def _op(
        self, step: Step, t: Term, r: MatchResult, ctx: frozenset = frozenset()
    ) -> MatchResult:
        rule, param = step.rule, step.param
        if rule == "tuple-commutation":
            items = list(_as_tuple(r, t).items)
            items[param], items[param + 1] = items[param + 1], items[param]
            return _keep_id(MTuple(items), r)
        if rule == "option-commutation":
            opt = _as_option(r, t)
            branches = list(opt.branches)
            ids = list(opt.branch_ids)
            branches[param], branches[param + 1] = branches[param + 1], branches[param]
            ids[param], ids[param + 1] = ids[param + 1], ids[param]
            selected = opt.selected
            if selected == param:
                selected = param + 1
            elif selected == param + 1:
                selected = param
            return _keep_id(MOption(branches, opt.option_id, selected, ids), r)
        if rule == "tuple-association":
            items = list(_as_tuple(r, t).items)
            if param == -1:
                inner = items[-1]
                if not isinstance(inner, MTuple):
                    raise ShapeMismatchError("no nested tuple result to ungroup")
                return _keep_id(MTuple(items[:-1] + list(inner.items)), r)
            return _keep_id(MTuple(items[:param] + [MTuple(items[param:])]), r)
        if rule == "option-association":
            opt = _as_option(r, t)
            branches = list(opt.branches)
            ids = list(opt.branch_ids)
            if param == -1:
                inner = branches[-1]
                if isinstance(inner, MFailed):
                    # a failed nested option expands to failed branches
                    width = len(t.branches[-1].branches)
                    out = MOption(
                        branches[:-1] + [MFailed() for _ in range(width)],
                        opt.option_id,
                        opt.selected,
                        ids[:-1] + [("g", self.fresh_id()) for _ in range(width)],
                    )
                    return _keep_id(out, r)
                if not isinstance(inner, MOption):
                    raise ShapeMismatchError("no nested option result to ungroup")
                selected = opt.selected
                if selected is not None and selected == len(branches) - 1:
                    selected = len(branches) - 1 + (inner.selected or 0)
                out = MOption(
                    branches[:-1] + list(inner.branches),
                    opt.option_id,
                    selected,
                    ids[:-1] + list(inner.branch_ids),
                )
                return _keep_id(out, r)
            inner_sel = None
            if opt.selected is not None and opt.selected >= param:
                inner_sel = opt.selected - param
            inner = MOption(branches[param:], self.fresh_id(), inner_sel, ids[param:])
            selected = opt.selected
            if selected is not None and selected >= param:
                selected = param
            out = MOption(
                branches[:param] + [inner],
                opt.option_id,
                selected,
                ids[:param] + [("g", self.fresh_id())],
            )
            return _keep_id(out, r)
        if rule == "tuple-duplication":
            return _keep_id(MTuple([r, r]), r)
        if rule == "option-tuple-distribution":
            items = list(_as_tuple(r, t).items)
            head_t = tuple_of(list(t.items[:-1]))
            head_r = items[0] if len(items) == 2 else MTuple(items[:-1])
            opt = _as_option(items[-1], t.items[-1])
            branches = []
            for bt, br in zip(t.items[-1].branches, opt.branches):
                if succeeded(br):
                    branches.append(_combine_pair(head_t, head_r, bt, br))
                else:
                    branches.append(MFailed())
            out = MOption(branches, opt.option_id, opt.selected, list(opt.branch_ids))
            return _keep_id(out, r)
        if rule == "array-tuple-distribution":
            items = list(_as_tuple(r, t).items)
            head_t = tuple_of(list(t.items[:-1]))
            head_r = items[0] if len(items) == 2 else MTuple(items[:-1])
            arr_t = t.items[-1]
            arr_r = items[-1]
            if not isinstance(arr_r, MArray):
                raise ShapeMismatchError("expected an array result to distribute over")
            head_tokens = ctx | footprint(head_r)
            out_items = []
            for item in arr_r.items:
                if not compatible(head_tokens | footprint(item), self.constraints):
                    continue
                pair = _combine_pair(head_t, head_r, arr_t.elem, item)
                pair.elem_id = item.elem_id
                out_items.append(pair)
            return _keep_id(MArray(out_items, arr_r.folded), r)
        if rule == "array-tpl-folding":
            if not isinstance(r, MArray):
                raise ShapeMismatchError("expected an array result to fold")
            elem_t = t.elem
            classes: dict = {}
            order: list = []
            for item in r.items:
                tup = _as_tuple(item, elem_t)
                key_r = tup.items[param]
                key = _value_key(key_r)
                if key not in classes:
                    classes[key] = (MArray([]), key_r)
                    order.append(key)
                classes[key][0].items.append(item)
            out_items = []
            for key in order:
                members, key_r = classes[key]
                cls = MTuple([members, key_r])
                cls.elem_id = self.fresh_id()
                out_items.append(cls)
            return _keep_id(MArray(out_items, folded=True), r)
        raise ValueError(f"unknown rule {rule!r}")

    # -- flattening splice ---------------------------------------------------

    def _splice(self, arr_t: Term, arr_r: MatchResult, rel: Path) -> MatchResult:
        """`rel` addresses the array being flattened inside the enclosing
        array's element term; every element whose selected content reaches it
        expands into one output element per inner element."""
        if not isinstance(arr_t, ArrayT) or not isinstance(arr_r, MArray):
            raise ShapeMismatchError("flattening needs an enclosing array result")
        assert rel and rel[0] == 0
        inner_path = rel[1:]
        items: list[MatchResult] = []
        for elem in arr_r.items:
            items.extend(self._expand(arr_t.elem, elem, inner_path))
        return _keep_id(MArray(items, arr_r.folded), arr_r)

    def _expand(self, t: Term, r: MatchResult, path: Path) -> list[MatchResult]:
        if not path:
            if not isinstance(r, MArray):
                raise ShapeMismatchError("flattened position does not hold an array")
            for item in r.items:
                if item.elem_id is None:
                    item.elem_id = self.fresh_id()
            return list(r.items)
        step = path[0]
        if isinstance(t, TupleT):
            if not isinstance(r, MTuple):
                raise ShapeMismatchError("expected a tuple result while flattening")
            out = []
            for sub in self._expand(t.items[step], r.items[step], path[1:]):
                items = list(r.items)
                items[step] = sub
                out.append(_keep_id(MTuple(items), r))
            return out
        if isinstance(t, OptionT):
            if not isinstance(r, MOption):
                raise ShapeMismatchError("expected an option result while flattening")
            take = r.selected
            if take is None:
                take = next((i for i, b in enumerate(r.branches) if succeeded(b)), None)
            if take != step or not succeeded(r.branches[step]):
                return [r]
            out = []
            for sub in self._expand(t.branches[step], r.branches[step], path[1:]):
                branches = list(r.branches)
                branches[step] = sub
                new = MOption(branches, r.option_id, r.selected, list(r.branch_ids))
                out.append(_keep_id(new, r))
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


def _combine_pair(
    head_t: Term, head_r: MatchResult, tail_t: Term, tail_r: MatchResult
) -> MatchResult:
    """Mirror of terms.tuple_of for the pair formed during distribution."""
    items: list[MatchResult] = []
    for t, r in ((head_t, head_r), (tail_t, tail_r)):
        if is_unit(t):
            continue
        if isinstance(t, TupleT) and isinstance(r, MTuple):
            items.extend(r.items)
        else:
            items.append(r)
    if not items:
        return MUnit()
    if len(items) == 1:
        return items[0]
    return MTuple(items)


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
        out = _combine_parts(parts)
        return _keep_id(out, r)
    if isinstance(t, OptionT):
        if is_unit(project(t, keep)):
            return _keep_id(MUnit(), r)
        if not isinstance(r, MOption):
            raise ShapeMismatchError(f"expected an option result for {render(t)}")
        branches = [
            project_result(b, bt, keep) if succeeded(b) else MFailed()
            for bt, b in zip(t.branches, r.branches)
        ]
        out = MOption(branches, r.option_id, r.selected, list(r.branch_ids))
        return _keep_id(out, r)
    if isinstance(t, ArrayT):
        if is_unit(project(t.elem, keep)):
            return _keep_id(MUnit(), r)
        if not isinstance(r, MArray):
            raise ShapeMismatchError(f"expected an array result for {render(t)}")
        items = []
        for item in r.items:
            new = project_result(item, t.elem, keep)
            new.elem_id = item.elem_id
            items.append(new)
        return _keep_id(MArray(items, r.folded), r)
    if isinstance(t, DistinctT):
        return project_result(r, t.inner, keep)
    raise ShapeMismatchError(f"cannot project a result against {render(t)}")


def _combine_parts(parts: list) -> MatchResult:
    items: list[MatchResult] = []
    for t, r in parts:
        if is_unit(t):
            continue
        if isinstance(t, TupleT) and isinstance(r, MTuple):
            items.extend(r.items)
        else:
            items.append(r)
    if not items:
        return MUnit()
    if len(items) == 1:
        return items[0]
    return MTuple(items)


def _value_key(r: MatchResult):
    """Deep structural key of a result's bound values, used for grouping."""
    if isinstance(r, MBind):
        return ("b", r.name, r.value)
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
