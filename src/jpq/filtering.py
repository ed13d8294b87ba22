"""Where-clause evaluation over match results.

The semantics is support-tuple based: conceptually the result is distributed
over every array and option enclosing the condition's argument variables,
giving flat assignments; the condition is evaluated once per assignment.  An
array element survives when at least one satisfied assignment involves it; an
option branch the condition covers is emptied when no satisfied assignment
selects it.  The satisfied footprints are also recorded as constraints so a
later array distribution only couples combinations some support tuple allows
(joins across sibling arrays).

`par` evaluates its parts independently against the same result and merges
survivors branchwise; the `with` stages (`ast.where_stages`) apply in turn,
each on what the stages before it left.  `compile_where` compiles a clause
once per plan: each part becomes an enumerator of its support tuples,
compiled against the matching term, and a predicate over one assignment's
environment.  A run walks only the result, and records into lists of its own.
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import Decimal
from typing import Optional

from . import ast as A
from .errors import ShapeMismatchError, TypeError_
from .matching import (
    MArray,
    MatchResult,
    MBind,
    MFailed,
    MTuple,
    _viable,
    branch_token,
    shaped,
    succeeded,
)
from .model import BUILTINS, COMPARISONS, MISSING, get_field, key
from .rewrite import Constraint
from .terms import (
    ArrayT, OptionT, Path, Term, TupleT, Var, children, subterm, var_counts, var_set,
)

# ---------------------------------------------------------------------------
# assignment enumeration


Assignment = tuple[dict, tuple]  # an environment, and the identity tokens it stands on
Enumerate = Callable[[MatchResult, Optional[list], Optional[list]], list[Assignment]]


def _enumerator(
    t: Term,
    needed: set[str],
    anchors: dict[Path, list[str]],
    joins: tuple[tuple[str, str], ...] = (),
) -> tuple[Enumerate, frozenset]:
    """The enumerator of a (not failed) result of the matching term `t`'s
    support tuples, binding the `needed` variables and, at an `anchors` path,
    each range variable `$v` there as `("range", $v)` to the array's items; the
    array groups and option universes walked go to the two lists it is run with,
    unless `None` (see `Constraint`).  `joins` lists `(u, v)` variable pairs
    whose equality every satisfied assignment needs: where a tuple combines a
    component binding one with earlier components binding the other, only pairs
    with equal values are formed (a hash partition).  Returned beside the
    enumerator: the joins partitioned on the way to every assignment, under no
    option, both ways round; they hold on every assignment."""
    relevant = needed | {v for vs in anchors.values() for v in vs}
    partitioned: set = set()

    def walk(t: Term, path: Path, always: bool) -> Enumerate:
        if path in anchors:
            keys = [("range", v) for v in anchors[path]]
            return lambda r, *_: [(dict.fromkeys(keys, shaped(r, t).items), ())]
        if isinstance(t, Var) and t.name in needed:
            def bind(r: MatchResult, *_, name=t.name) -> list[Assignment]:
                return [({name: r.value}, ())] if isinstance(r, MBind) else []
            return bind
        if isinstance(t, Var) or not var_set(t) & relevant:
            return lambda r, *_: [({}, ())]
        if isinstance(t, TupleT):
            comps, bound = [], set()
            for i, st in enumerate(t.items):
                here = var_set(st)
                if here & relevant:
                    # the first join with one side bound earlier and the other here
                    join = next(((a, b) for u, v in joins for a, b in ((u, v), (v, u))
                                 if a in bound and b in here), None)
                    if join and always:
                        partitioned.update((join, join[::-1]))
                    comps.append((i, walk(st, path + (i,), always), join))
                    bound |= here

            (first, first_sub, _), *rest = comps

            def tuple_(r: MatchResult, groups, options) -> list[Assignment]:
                # the first component's assignments are handed on as they are
                parts = shaped(r, t).items
                combos = first_sub(parts[first], groups, options)
                for i, sub, join in rest:
                    combos = _pairs(combos, sub(parts[i], groups, options), join)
                return combos
            return tuple_
        if isinstance(t, OptionT):
            subs = [(i, walk(b, path + (i,), False))
                    for i, b in enumerate(t.branches) if var_set(b) & relevant]

            def option(r: MatchResult, groups, options) -> list[Assignment]:
                branches, covered, out = shaped(r, t).branches, set(), []
                for i, sub in subs:
                    tok = branch_token(r, i)
                    covered.add(tok)  # a failed branch is covered, and yields nothing
                    if succeeded(branches[i]):
                        out.extend((env, toks + (tok,))
                                   for env, toks in sub(branches[i], groups, options))
                if options is not None:
                    toks = frozenset(branch_token(r, i) for i in range(len(branches)))
                    options.append((frozenset(covered), toks))
                return out
            return option
        elem = walk(t.elem, path + (0,), always)  # an array, relevant as its element is

        def array(r: MatchResult, groups, options) -> list[Assignment]:
            items = shaped(r, t).items
            if groups is not None:
                groups.append(frozenset(item.elem_id for item in items))
            return [(env, toks + (item.elem_id,))
                    for item in items for env, toks in elem(item, groups, options)]
        return array

    each = walk(t, (), True)
    return each, frozenset(partitioned)


def _pairs(
    combos: list[Assignment], subs: list[Assignment], join: Optional[tuple[str, str]]
) -> list[Assignment]:
    """The merged (earlier, new) assignment pairs, outer in `combos` order and
    inner in `subs` order.  With a join `(u, v)`, each earlier assignment meets
    only the new ones whose `v` has the same `key` as its `u`, the pairs on
    which `u = v` holds, so the condition need not test it again.  An
    assignment lacking its join variable pairs with nothing: `=` on a missing
    operand is false."""
    if join is None:
        pairs = ((a, b) for a in combos for b in subs)
    else:
        u, v = join
        buckets: dict = {}
        for b in subs:
            if v in b[0]:
                buckets.setdefault(key(b[0][v]), []).append(b)
        pairs = ((a, b) for a in combos if u in a[0] for b in buckets.get(key(a[0][u]), ()))
    return [({**ea, **eb}, ta + tb) for (ea, ta), (eb, tb) in pairs]


# ---------------------------------------------------------------------------
# conditions compiled into predicates over one assignment


def _value(e: A.CondExpr) -> Callable[[dict], object]:
    """What `e` reads from an assignment's environment."""
    if isinstance(e, A.ELit):
        return lambda env, value=e.value: value
    if isinstance(e, A.EVar):
        return lambda env, name=e.name: env.get(name, MISSING)
    if isinstance(e, A.EField):
        def field(env: dict, var=e.var, names=e.keys):
            v = env.get(var, MISSING)
            for name in names:
                v = get_field(v, name)
            return v
        return field
    if isinstance(e, A.ECount):
        def count(env: dict, var=e.var) -> Decimal:
            items = env.get(("range", var), MISSING)
            if items is MISSING:
                raise TypeError_(f"count[${var}] applies to arrays only")
            return Decimal(len(items))
        return count
    raise TypeError_(f"not a condition expression: {e!r}")


def _predicate(c: A.Condition, elems: dict[str, Term]) -> Callable[[dict], bool]:
    """`c` as a test of one assignment's environment; `elems` maps each range
    variable to the element term of the array it ranges over."""
    if isinstance(c, A.CCompare):
        lhs, rhs, holds = _value(c.lhs), _value(c.rhs), COMPARISONS[c.op]

        def compare(env: dict) -> bool:
            a, b = lhs(env), rhs(env)
            return a is not MISSING and b is not MISSING and holds(a, b)
        return compare
    if isinstance(c, A.CCall):
        _, call = BUILTINS[c.name]
        args = [_value(a) for a in c.args]
        return lambda env: call(*[a(env) for a in args])
    if isinstance(c, A.CBool):
        subs = [_predicate(s, elems) for s in c.subs]
        if c.op == "and":
            return lambda env: all(s(env) for s in subs)
        if c.op == "or":
            return lambda env: any(s(env) for s in subs)
        return lambda env: not subs[0](env)
    if isinstance(c, A.CQuant):
        elem = elems[c.var]
        each, _ = _enumerator(elem, set(A.cond_vars(c.body)) & var_set(elem), {})
        body, kind, var = _predicate(c.body, elems), c.kind, c.var

        def quantifier(env: dict) -> bool:
            items = env.get(("range", var), MISSING)
            if items is MISSING:
                raise TypeError_(f"{kind} ${var} needs an array binding for ${var}")
            # lazy: the first item that decides ends the walk (a body raises nothing)
            judged = (any(body({**env, **e}) for e, _ in each(item, None, None)) for item in items)
            return all(judged) if kind == "foreach" else any(judged)
        return quantifier
    raise TypeError_(f"not a condition: {c!r}")


# ---------------------------------------------------------------------------
# the filter itself


def _conjuncts(c: A.Condition) -> list[tuple[A.Condition, Optional[tuple[str, str]]]]:
    """`c`'s `and` conjuncts in textual order, a parenthesised `and`'s taken
    apart, each with `(u, v)` when it is `$u = $v` (`c` alone if no `and`)."""
    if isinstance(c, A.CBool) and c.op == "and":
        return [s for sub in c.subs for s in _conjuncts(sub)]
    if isinstance(c, A.CCompare) and c.op == "=" and type(c.lhs) is type(c.rhs) is A.EVar:
        return [(c, (c.lhs.name, c.rhs.name))]
    return [(c, None)]


def _equi_joins(c: A.Condition, needed: set[str], source: Term) -> tuple[tuple[str, str], ...]:
    """The `$u = $v` conditions every satisfied assignment meets (the condition
    itself or an `and` conjunct) over needed variables the source binds once,
    so an assignment's value of each is the one its component bound."""
    once = {v for v, n in var_counts(source).items() if n == 1} & needed
    return tuple(p for _, p in _conjuncts(c) if p and set(p) <= once)


def _sweep(r: MatchResult, removed: set, emptied: set) -> MatchResult:
    if isinstance(r, (MBind, MFailed)):
        return r
    if isinstance(r, MTuple):
        items = [_sweep(s, removed, emptied) for s in r.items]
        return r.with_parts(items) if all(succeeded(s) for s in items) else MFailed()
    if isinstance(r, MArray):
        kept = (_sweep(item, removed, emptied) for item in r.items if item.elem_id not in removed)
        return r.with_parts([s for s in kept if succeeded(s)])
    return _viable(r.with_parts([
        MFailed() if branch_token(r, i) in emptied else _sweep(b, removed, emptied)
        for i, b in enumerate(r.branches)
    ]))


# a compiled where clause: per `with` stage, per `par` part, a result's `Constraint`
Where = tuple[tuple[Callable[[MatchResult], Constraint], ...], ...]


def compile_where(c: A.Condition, source: Term) -> Where:
    """`c` compiled against the matching term `source`."""
    return tuple(tuple(_part(part, source) for part in stage) for stage in A.where_stages(c))


def _part(c: A.Condition, source: Term) -> Callable[[MatchResult], Constraint]:
    anchors, needed = A.condition_scope(c, source)
    each, partitioned = _enumerator(source, needed, anchors, _equi_joins(c, needed, source))
    rest = tuple(s for s, pair in _conjuncts(c) if pair not in partitioned)  # left to test
    elems = {v: subterm(source, p).elem for p, vs in anchors.items() for v in vs}
    holds = _predicate(rest[0] if len(rest) == 1 else A.CBool("and", rest), elems)

    def outcome(r: MatchResult) -> Constraint:
        groups, options = [], []
        footprints = tuple(frozenset(toks) for env, toks in each(r, groups, options) if holds(env))
        return Constraint(footprints, tuple(groups), tuple(options))
    return outcome


def filter_result(
    r: MatchResult, source: Term, where: Where, constraints: Optional[list[Constraint]] = None
) -> MatchResult:
    """Filter a match result of `source` by a where clause compiled against it,
    recording join constraints into `constraints` for the transform stage.
    (`source` is not read: it keeps `constraints` the fourth argument, which
    `bench/tracing.py` reads.)"""
    constraints = [] if constraints is None else constraints
    for stage in where:
        if not succeeded(r):
            break
        satisfied, grouped, covered = set(), set(), set()
        for o in [part(r) for part in stage]:
            constraints.append(o)
            if not (o.footprints or o.groups or o.option_universe):
                return MFailed()
            satisfied.update(*o.footprints)
            grouped.update(*o.groups)
            covered.update(*(cov for cov, _all in o.option_universe))
        r = _sweep(r, grouped - satisfied, covered - satisfied)
    return r


# ---------------------------------------------------------------------------
# option resolution


def resolve_options(r: MatchResult, t: Term, options: frozenset) -> MatchResult:
    """Resolve every option under `r`, a result of the matching term `t`, to its
    first surviving branch in pattern order by failing the others, so `chosen` names
    the branch taken.  `options` is `optioned(t)`: a result of any other subterm is
    returned as it is.  (An option of unit branches, which `option_of` erases from
    the term, sits in a unit slot, which matching drops or makes `()`.)  No result
    fails here: an option always has a surviving branch."""
    if t not in options or isinstance(r, MFailed):
        return r
    parts = shaped(r, t).parts()
    kids = [t.elem] * len(parts) if isinstance(t, ArrayT) else children(t)
    if isinstance(t, OptionT):
        take = next((i for i, b in enumerate(parts) if succeeded(b)), None)
        if take is None:
            raise ShapeMismatchError("an option with no surviving branch reached resolution")
        parts = [b if i == take else MFailed() for i, b in enumerate(parts)]
    return r.with_parts([resolve_options(s, st, options) for s, st in zip(parts, kids)])
