"""Where-clause evaluation over match results.

The semantics is support-tuple based: conceptually the result is distributed
over every array and option enclosing the condition's argument variables,
giving flat assignments; the condition is evaluated once per assignment.  An
array element survives when at least one satisfied assignment involves it; an
option branch the condition covers is emptied when no satisfied assignment
selects it.  The satisfied footprints are also recorded as constraints so a
later array distribution only couples combinations some support tuple allows
(joins across sibling arrays).

`par` evaluates its sub-conditions independently against the same result and
merges survivors branchwise; `with` applies its left condition first and the
right one on the already-filtered result.
"""

from __future__ import annotations

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
    ArrayT, DistinctT, OptionT, Path, Term, TupleT, Var, children, positions, var_counts, var_set,
)

# ---------------------------------------------------------------------------
# assignment enumeration


@dataclass
class _Assignment:
    env: dict
    tokens: frozenset


class _Enumerator:
    """Enumerates a result's support tuples, recording the array groups and
    option universes it walks (see `Constraint`).  `joins` lists `(u, v)`
    variable pairs whose equality every satisfied assignment needs: where a
    tuple combines a component binding one with earlier components binding
    the other, only pairs with equal values are formed (a hash partition)."""

    def __init__(
        self,
        needed: set[str],
        anchors: dict[Path, list[str]],
        joins: tuple[tuple[str, str], ...] = (),
    ):
        self.needed = needed
        self.anchors = anchors
        self.joins = joins
        self.relevant_vars = needed | {v for vs in anchors.values() for v in vs}
        self.groups: list[frozenset] = []
        self.options: list[tuple[frozenset, frozenset]] = []

    def _relevant(self, t: Term) -> bool:
        return bool(var_set(t) & self.relevant_vars)

    def run(self, t: Term, r: MatchResult, path: Path) -> list[_Assignment]:
        if isinstance(r, MFailed):
            return []
        if isinstance(t, Var):
            if t.name in self.needed:
                if not isinstance(r, MBind):
                    return []
                return [_Assignment({t.name: r.value}, frozenset())]
            return [_Assignment({}, frozenset())]
        if isinstance(t, TupleT):
            combos = [_Assignment({}, frozenset())]
            bound: set[str] = set()
            for i, (st, sr) in enumerate(zip(t.items, shaped(r, t).items)):
                here = var_set(st)
                if not here & self.relevant_vars:
                    continue
                subs = self.run(st, sr, path + (i,))
                combos = _pairs(combos, subs, self._join(bound, here))
                bound |= here
            return combos
        if isinstance(t, OptionT):
            covered = set()
            out: list[_Assignment] = []
            any_relevant = False
            for i, (bt, br) in enumerate(zip(t.branches, shaped(r, t).branches)):
                if not self._relevant(bt):
                    continue
                any_relevant = True
                tok = branch_token(r, i)
                covered.add(tok)
                if not succeeded(br):
                    continue
                for a in self.run(bt, br, path + (i,)):
                    out.append(_Assignment(a.env, a.tokens | {tok}))
            if not any_relevant:
                return [_Assignment({}, frozenset())]
            all_toks = frozenset(branch_token(r, i) for i in range(len(r.branches)))
            self.options.append((frozenset(covered), all_toks))
            return out
        if isinstance(t, ArrayT):
            items = shaped(r, t).items
            if path in self.anchors:
                env = {("range", v): (t.elem, list(items)) for v in self.anchors[path]}
                return [_Assignment(env, frozenset())]
            if not self._relevant(t.elem):
                return [_Assignment({}, frozenset())]
            self.groups.append(frozenset(item.elem_id for item in items))
            out = []
            for item in items:
                for a in self.run(t.elem, item, path + (0,)):
                    out.append(_Assignment(a.env, a.tokens | {item.elem_id}))
            return out
        if isinstance(t, DistinctT):
            return self.run(t.inner, r, path + (0,))
        return [_Assignment({}, frozenset())]

    def _join(self, bound: set[str], here: set[str]) -> Optional[tuple[str, str]]:
        """The first join whose one side the earlier components bind and whose
        other side the new component binds, as (earlier, new)."""
        for u, v in self.joins:
            if u in bound and v in here:
                return u, v
            if v in bound and u in here:
                return v, u
        return None


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
# condition evaluation over one assignment


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


def _expr(e: A.CondExpr, env: dict):
    if isinstance(e, A.ELit):
        return e.value
    if isinstance(e, A.EVar):
        return env.get(e.name, MISSING)
    if isinstance(e, A.EField):
        v = env.get(e.var, MISSING)
        for name in e.keys:
            v = get_field(v, name)
        return v
    if isinstance(e, A.ECount):
        rng = env.get(("range", e.var), MISSING)
        if rng is MISSING:
            raise TypeError_(f"count[${e.var}] applies to arrays only")
        return Decimal(len(rng[1]))
    raise TypeError_(f"not a condition expression: {e!r}")


def _holds(c: A.Condition, env: dict) -> bool:
    if isinstance(c, A.CCompare):
        lhs, rhs = _expr(c.lhs, env), _expr(c.rhs, env)
        if lhs is MISSING or rhs is MISSING:
            return False
        return compare_atoms(c.op, lhs, rhs)
    if isinstance(c, A.CCall):
        return eval_builtin(c.name, [_expr(a, env) for a in c.args])
    if isinstance(c, A.CBool):
        if c.op == "and":
            return all(_holds(s, env) for s in c.subs)
        if c.op == "or":
            return any(_holds(s, env) for s in c.subs)
        return not _holds(c.subs[0], env)
    if isinstance(c, A.CQuant):
        rng = env.get(("range", c.var), MISSING)
        if rng is MISSING:
            raise TypeError_(f"{c.kind} ${c.var} needs an array binding for ${c.var}")
        elem_t, items = rng
        body_vars = set(A.cond_vars(c.body)) & var_set(elem_t)
        walker = _Enumerator(body_vars, {})
        judged = []
        for item in items:
            subs = walker.run(elem_t, item, ())
            judged.append(any(_holds(c.body, {**env, **a.env}) for a in subs))
        if c.kind == "foreach":
            return all(judged)
        return any(judged)
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
    walker = _Enumerator(needed, anchors, _equi_joins(c, needed, source))
    footprints = tuple(a.tokens for a in walker.run(source, r, ()) if _holds(c, a.env))
    return Constraint(footprints, tuple(walker.groups), tuple(walker.options))


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
    `constraints` for the transform stage."""
    if constraints is None:
        constraints = []
    if not succeeded(r):
        return MFailed()
    if isinstance(c, A.CCompound) and c.op == "with":
        left = filter_result(r, source, c.left, constraints)
        if not succeeded(left):
            return MFailed()
        return filter_result(left, source, c.right, constraints)
    if isinstance(c, A.CCompound) and c.op == "par":
        outcomes = [_outcome(r, source, sub) for sub in A.par_parts(c)]
        return _apply_outcomes(r, outcomes, constraints)
    return _apply_outcomes(r, [_outcome(r, source, c)], constraints)


# ---------------------------------------------------------------------------
# option resolution


def optioned(t: Term) -> frozenset:
    """The subterms of t with an option at or below them."""
    return frozenset(
        node for _, node in positions(t) if any(isinstance(n, OptionT) for _, n in positions(node))
    )


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
