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
each on what the stages before it left.  Each part is compiled once per
filter call into two closures, an enumerator of its support tuples compiled
against the source term and a predicate over one assignment's environment,
so a run walks only the result.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
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
    compare_atoms,
    shaped,
    succeeded,
)
from .model import MISSING, get_field, key
from .rewrite import Constraint
from .terms import (
    ArrayT, DistinctT, OptionT, Path, Term, TupleT, Var, children, subterm, var_counts, var_set,
)

# ---------------------------------------------------------------------------
# assignment enumeration


@dataclass
class _Assignment:
    env: dict
    tokens: frozenset


Enumerate = Callable[[MatchResult], list[_Assignment]]


def _enumerator(
    t: Term,
    needed: set[str],
    anchors: dict[Path, list[str]],
    joins: tuple[tuple[str, str], ...] = (),
    groups: Optional[list] = None,
    options: Optional[list] = None,
) -> Enumerate:
    """The enumerator of a (not failed) result of `t`'s support tuples, binding
    the `needed` variables and, at an `anchors` path, each range variable
    `$v` there as `("range", $v)` to the array's items; the array groups and
    option universes walked go to `groups` and `options` when given (see
    `Constraint`).  `joins` lists `(u, v)` variable pairs whose equality every
    satisfied assignment needs: where a tuple combines a component binding
    one with earlier components binding the other, only pairs with equal
    values are formed (a hash partition)."""
    relevant = needed | {v for vs in anchors.values() for v in vs}

    def walk(t: Term, path: Path) -> Enumerate:
        if path in anchors:
            keys = [("range", v) for v in anchors[path]]
            return lambda r: [_Assignment(dict.fromkeys(keys, shaped(r, t).items), frozenset())]
        if isinstance(t, Var) and t.name in needed:
            def bind(r: MatchResult, name=t.name) -> list[_Assignment]:
                return [_Assignment({name: r.value}, frozenset())] if isinstance(r, MBind) else []
            return bind
        if isinstance(t, Var) or not var_set(t) & relevant:
            return lambda r: [_Assignment({}, frozenset())]
        if isinstance(t, DistinctT):
            return walk(t.inner, path + (0,))
        if isinstance(t, TupleT):
            comps, bound = [], set()
            for i, st in enumerate(t.items):
                here = var_set(st)
                if here & relevant:
                    # the first join with one side bound earlier and the other here
                    join = next(((a, b) for u, v in joins for a, b in ((u, v), (v, u))
                                 if a in bound and b in here), None)
                    comps.append((i, walk(st, path + (i,)), join))
                    bound |= here

            (first, first_sub, _), *rest = comps

            def tuple_(r: MatchResult) -> list[_Assignment]:
                # the first component's assignments are handed on as they are
                parts = shaped(r, t).items
                combos = first_sub(parts[first])
                for i, sub, join in rest:
                    combos = _pairs(combos, sub(parts[i]), join)
                return combos
            return tuple_
        if isinstance(t, OptionT):
            subs = [(i, walk(b, path + (i,)))
                    for i, b in enumerate(t.branches) if var_set(b) & relevant]

            def option(r: MatchResult) -> list[_Assignment]:
                branches, covered, out = shaped(r, t).branches, set(), []
                for i, sub in subs:
                    tok = branch_token(r, i)
                    covered.add(tok)  # a failed branch is covered, and yields nothing
                    if succeeded(branches[i]):
                        out.extend(_Assignment(a.env, a.tokens | {tok}) for a in sub(branches[i]))
                if options is not None:
                    toks = frozenset(branch_token(r, i) for i in range(len(branches)))
                    options.append((frozenset(covered), toks))
                return out
            return option
        elem = walk(t.elem, path + (0,))  # an array, relevant as its element is

        def array(r: MatchResult) -> list[_Assignment]:
            items = shaped(r, t).items
            if groups is not None:
                groups.append(frozenset(item.elem_id for item in items))
            return [_Assignment(a.env, a.tokens | {item.elem_id})
                    for item in items for a in elem(item)]
        return array

    return walk(t, ())


def _pairs(
    combos: list[_Assignment], subs: list[_Assignment], join: Optional[tuple[str, str]]
) -> list[_Assignment]:
    """The merged (earlier, new) assignment pairs, outer in `combos` order and
    inner in `subs` order.  With a join `(u, v)`, each earlier assignment meets
    only the new ones whose `v` has the same `key` as its `u`, the pairs on
    which `u = v` holds; the condition is still evaluated on every pair
    formed.  An assignment lacking its join variable pairs with nothing: `=`
    on a missing operand is false."""
    if join is None:
        pairs = ((a, b) for a in combos for b in subs)
    else:
        u, v = join
        buckets: dict = {}
        for b in subs:
            if v in b.env:
                buckets.setdefault(key(b.env[v]), []).append(b)
        pairs = ((a, b) for a in combos if u in a.env for b in buckets.get(key(a.env[u]), ()))
    return [_Assignment({**a.env, **b.env}, a.tokens | b.tokens) for a, b in pairs]


# ---------------------------------------------------------------------------
# conditions compiled into predicates over one assignment


def eval_builtin(name: str, args: list) -> bool:
    if name == "notnull":
        (x,) = args
        return x is not MISSING and x is not None
    if name in ("endWith", "startWith", "contains"):
        a, b = args
        if not (isinstance(a, str) and isinstance(b, str)):
            return False
        if name == "endWith":
            return a.endswith(b)
        if name == "startWith":
            return a.startswith(b)
        return b in a
    raise TypeError_(f"unknown function {name!r}")


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
        lhs, rhs, op = _value(c.lhs), _value(c.rhs), c.op

        def compare(env: dict) -> bool:
            a, b = lhs(env), rhs(env)
            return a is not MISSING and b is not MISSING and compare_atoms(op, a, b)
        return compare
    if isinstance(c, A.CCall):
        args = [_value(a) for a in c.args]
        return lambda env, name=c.name: eval_builtin(name, [a(env) for a in args])
    if isinstance(c, A.CBool):
        subs = [_predicate(s, elems) for s in c.subs]
        if c.op == "and":
            return lambda env: all(s(env) for s in subs)
        if c.op == "or":
            return lambda env: any(s(env) for s in subs)
        return lambda env: not subs[0](env)
    if isinstance(c, A.CQuant):
        elem = elems[c.var]
        each = _enumerator(elem, set(A.cond_vars(c.body)) & var_set(elem), {})
        body, kind, var = _predicate(c.body, elems), c.kind, c.var

        def quantifier(env: dict) -> bool:
            items = env.get(("range", var), MISSING)
            if items is MISSING:
                raise TypeError_(f"{kind} ${var} needs an array binding for ${var}")
            # lazy: the first item that decides ends the walk (a body raises nothing)
            judged = (any(body({**env, **a.env}) for a in each(item)) for item in items)
            return all(judged) if kind == "foreach" else any(judged)
        return quantifier
    raise TypeError_(f"not a condition: {c!r}")


# ---------------------------------------------------------------------------
# the filter itself


def _equi_joins(c: A.Condition, needed: set[str], source: Term) -> tuple[tuple[str, str], ...]:
    """The `$u = $v` conditions every satisfied assignment meets (the condition
    itself or a top-level `and` conjunct) over needed variables the source
    binds once, so an assignment's value of each is the one its component
    bound."""
    conjuncts = c.subs if isinstance(c, A.CBool) and c.op == "and" else (c,)
    once = {v for v, n in var_counts(source).items() if n == 1} & needed
    return tuple(
        (s.lhs.name, s.rhs.name)
        for s in conjuncts
        if isinstance(s, A.CCompare)
        and s.op == "="
        and isinstance(s.lhs, A.EVar)
        and isinstance(s.rhs, A.EVar)
        and {s.lhs.name, s.rhs.name} <= once
    )


def _outcome(r: MatchResult, source: Term, c: A.Condition) -> Constraint:
    """Everything one condition's evaluation says about the result."""
    anchors, needed = A.condition_scope(c, source)
    groups, options = [], []
    each = _enumerator(source, needed, anchors, _equi_joins(c, needed, source), groups, options)
    holds = _predicate(c, {v: subterm(source, p).elem for p, vs in anchors.items() for v in vs})
    footprints = tuple(a.tokens for a in each(r) if holds(a.env))
    return Constraint(footprints, tuple(groups), tuple(options))


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


def _apply_outcomes(
    r: MatchResult, outcomes: list[Constraint], constraints: list[Constraint]
) -> MatchResult:
    satisfied: set = set()
    grouped: set = set()
    covered: set = set()
    for o in outcomes:
        for fp in o.footprints:
            satisfied |= fp
        for g in o.groups:
            grouped |= g
        for cov, _all in o.option_universe:
            covered |= cov
        constraints.append(o)
        if not o.footprints and not o.groups and not o.option_universe:
            return MFailed()
    removed = grouped - satisfied
    emptied = covered - satisfied
    return _sweep(r, removed, emptied)


def filter_result(
    r: MatchResult,
    source: Term,
    c: A.Condition,
    constraints: Optional[list[Constraint]] = None,
) -> MatchResult:
    """Filter a match result by a condition, recording join constraints into
    `constraints` for the transform stage.  A stage is compiled only once the
    stages before it have left something to filter."""
    if constraints is None:
        constraints = []
    stages = A.where_stages(c)
    while succeeded(r) and (stage := next(stages, None)) is not None:
        r = _apply_outcomes(r, [_outcome(r, source, part) for part in stage], constraints)
    return r


# ---------------------------------------------------------------------------
# option resolution


def resolve_options(r: MatchResult, t: Term, options: frozenset) -> MatchResult:
    """Resolve every option under `r`, a result of `t`, to its first surviving
    branch in pattern order by failing the others, so `chosen` names the
    branch taken.  `options` is `optioned(t)`: a result of any other subterm
    is returned as it is.  (An option of unit branches, which `option_of`
    erases from the term, sits in a unit slot, which matching drops or makes `()`.)
    No result fails here: an option always has a surviving branch."""
    if t not in options or isinstance(r, MFailed):
        return r
    if isinstance(t, DistinctT):
        return resolve_options(r, t.inner, options)
    parts = shaped(r, t).parts()
    kids = [t.elem] * len(parts) if isinstance(t, ArrayT) else children(t)
    if isinstance(t, OptionT):
        take = next((i for i, b in enumerate(parts) if succeeded(b)), None)
        if take is None:
            raise ShapeMismatchError("an option with no surviving branch reached resolution")
        parts = [b if i == take else MFailed() for i, b in enumerate(parts)]
    return r.with_parts([resolve_options(s, st, options) for s, st in zip(parts, kids)])
