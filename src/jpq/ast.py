"""Abstract syntax for queries: extraction patterns, conditions, construction
patterns, and the derivation of a pattern's matching term.

The concrete grammar lives in parser.py; this module owns the node types,
their unparser (the printer round-trips through the parser), the structural
derivations of a pattern's matching term and a construction's backbone (each
cached on its node), and the static checks every query passes on creation.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Iterator, Optional

from .errors import (
    ConstructionError,
    InvalidCompositionError,
    InvalidConstructionError,
    ReboundVariableError,
    TypeError_,
    UnboundVariableError,
)
from .model import BUILTINS, COMPARISONS, Value, serialize
from .terms import (
    ArrayT,
    DistinctT,
    OptionT,
    Path,
    Record,
    Term,
    TupleT,
    UNIT,
    Var,
    components,
    is_unit,
    one_value_paths,
    option_of,
    positions,
    render,
    slot_code,
    subterm,
    tuple_of,
    var_set,
)

# ---------------------------------------------------------------------------
# predicates


class StringPredicate(Record):
    """A string test where `?` matches any (possibly empty) character run;
    everything else is literal.  Anchored at both ends, case-sensitive."""

    pattern: str

    def matches(self, s: str) -> bool:
        return self._regex.fullmatch(s) is not None

    def holds(self, v: Value) -> bool:
        """The test of a value: only a string can pass."""
        return type(v) is str and self.matches(v)

    @cached_property
    def _regex(self) -> re.Pattern:
        parts = self.pattern.split("?")
        return re.compile(".*".join(re.escape(p) for p in parts), re.DOTALL)


class ComparePredicate(Record):
    """Comparison against a literal atom: =, !=, <, <=, >, >=."""

    op: str
    literal: Value

    @cached_property
    def holds(self) -> Callable[[Value], bool]:
        """The test of a value, its comparison bound once per node; an array
        or object passes none, as a predicate tests atoms."""
        compare, literal = COMPARISONS[self.op], self.literal
        return lambda v: type(v) is not dict and type(v) is not list and compare(v, literal)


# `|`, not typing.Union, whose process-wide cache would pin this module on reload
ValuePredicate = StringPredicate | ComparePredicate


# ---------------------------------------------------------------------------
# extraction patterns


class Pattern(Record):
    @cached_property
    def term(self) -> Term:
        """The matching term, derived once per node."""
        return derive_matching_term(self)

    @cached_property
    def layout(self) -> tuple[int, ...]:
        """How a match result is made from its parts' results, once per node."""
        return tuple(slot_code(t) for t in _slots(self))


class ValuePattern(Pattern):
    pass


class KeyValuePattern(Pattern):
    pass


class PVar(ValuePattern):
    name: str


class PPred(ValuePattern):
    pred: ValuePredicate


class PWild(ValuePattern):
    pass


class PObject(ValuePattern):
    members: tuple[KeyValuePattern, ...]


class PArray(ValuePattern):
    elem: ValuePattern


class PConj(ValuePattern):
    items: tuple[ValuePattern, ...]


class POption(ValuePattern):
    branches: tuple[ValuePattern, ...]


class PChildren(ValuePattern):
    member: KeyValuePattern


class PDescend(ValuePattern):
    pattern: ValuePattern


class KVPattern(KeyValuePattern):
    var: Optional[str]
    key: Optional[StringPredicate]  # both None: wildcard key `*`
    value: ValuePattern

    @cached_property
    def literal(self) -> Optional[str]:
        """The one key a `?`-free key predicate admits, else None."""
        return None if self.key is None or "?" in self.key.pattern else self.key.pattern


class KVOption(KeyValuePattern):
    branches: tuple[KeyValuePattern, ...]


# ---------------------------------------------------------------------------
# conditions


class CondExpr(Record):
    pass


class EVar(CondExpr):
    name: str


class EField(CondExpr):
    var: str
    keys: tuple[str, ...]


class ELit(CondExpr):
    value: Value


class ECount(CondExpr):
    """count[$v]: the length of the array the variable ranges over."""

    var: str


class Condition(Record):
    pass


class CCompare(Condition):
    op: str
    lhs: CondExpr
    rhs: CondExpr


class CCall(Condition):
    name: str
    args: tuple[CondExpr, ...]


class CQuant(Condition):
    kind: str  # "foreach" | "forsome"
    var: str
    body: Condition


class CBool(Condition):
    op: str  # "and" | "or" | "not"
    subs: tuple[Condition, ...]


class CCompound(Condition):
    op: str  # "par" | "with"
    left: Condition
    right: Condition


# ---------------------------------------------------------------------------
# construction patterns


class ConstructionPattern(Record):
    @cached_property
    def backbone(self) -> Term:
        """The backbone, derived once per node."""
        return backbone(self)


class CLit(ConstructionPattern):
    value: Value


class CVarRef(ConstructionPattern):
    name: str


class CObject(ConstructionPattern):
    members: tuple[tuple[str, ConstructionPattern], ...]


class CArray(ConstructionPattern):
    elem: ConstructionPattern
    groupby: Optional[Term] = None
    order: Optional[str] = None  # "asc" | "desc"


class CFlatArray(ConstructionPattern):
    elem: ConstructionPattern


class COption(ConstructionPattern):
    branches: tuple[ConstructionPattern, ...]


class CFun(ConstructionPattern):
    name: str
    args: tuple[ConstructionPattern, ...]


class CDistinctRef(ConstructionPattern):
    """Reference to a folded array's grouping key, written e.g. `^[$id]%`."""

    term: Term


class QueryAst(Record):
    sources: tuple[tuple[str, ValuePattern], ...]  # (doc name, pattern)
    construct: ConstructionPattern
    where: Optional[Condition]

    def __post_init__(self) -> None:
        validate_query(self)

    @cached_property
    def term(self) -> Term:
        """The matching term of all sources, derived once per query."""
        return query_matching_term(self)

    @cached_property
    def texts(self) -> tuple[str, Optional[str]]:
        """The construction and the where clause as text, unparsed once per query."""
        where = None if self.where is None else unparse_condition(self.where)
        return unparse_construction(self.construct), where


# ---------------------------------------------------------------------------
# variable inventory


def pattern_vars(p: Pattern) -> list[str]:
    """All variable bindings, in textual order, duplicates included: the
    matching term keeps every binding, and its preorder is textual order."""
    return [n.name for _, n in positions(p.term) if isinstance(n, Var)]


def cond_nodes(c: Condition) -> Iterator[Condition]:
    """c and every condition nested in it, preorder (textual order)."""
    yield c
    if isinstance(c, CQuant):
        yield from cond_nodes(c.body)
    elif isinstance(c, CBool):
        for s in c.subs:
            yield from cond_nodes(s)
    elif isinstance(c, CCompound):
        yield from cond_nodes(c.left)
        yield from cond_nodes(c.right)


def leaf_exprs(c: Condition) -> tuple[CondExpr, ...]:
    """The expressions a comparison or a call reads; none for other nodes."""
    return (c.lhs, c.rhs) if isinstance(c, CCompare) else c.args if isinstance(c, CCall) else ()


def _expr_var(e: CondExpr) -> Optional[str]:
    """The variable an expression reads; None for a literal."""
    if isinstance(e, ELit):
        return None
    return e.name if isinstance(e, EVar) else e.var


def cond_vars(c: Condition) -> list[str]:
    """All variable mentions, in textual order, duplicates included."""
    out: list[str] = []
    for node in cond_nodes(c):
        if isinstance(node, CQuant):
            out.append(node.var)
        out.extend(v for v in map(_expr_var, leaf_exprs(node)) if v is not None)
    return out


# ---------------------------------------------------------------------------
# matching-term derivation


def derive_matching_term(p: Pattern) -> Term:
    """The abstract shape of p's match results.

    Variables become variable terms; object, conjunctive, and definitive
    key-value patterns become tuples (textual order, variable-free slots
    dropped); array and enumeration patterns become self-indexed arrays;
    options become option terms.  A pattern binding nothing is the unit tuple.
    """
    if isinstance(p, PVar):
        return Var(p.name)
    if isinstance(p, (PPred, PWild)):
        return UNIT
    if isinstance(p, (PObject, PConj, KVPattern)):
        return tuple_of(_slots(p))
    if isinstance(p, (PArray, PChildren, PDescend)):
        elem = (p.elem if isinstance(p, PArray) else
                p.member if isinstance(p, PChildren) else p.pattern).term
        return UNIT if is_unit(elem) else ArrayT(elem, elem)
    if isinstance(p, (POption, KVOption)):
        return option_of(_slots(p))
    raise TypeError(f"not a pattern: {p!r}")


def _slots(p: Pattern) -> list[Term]:
    """The terms of the parts p's match result is made of: members, items,
    branches, or a key-value pair's key variable (if any) and value."""
    if isinstance(p, PObject):
        return [m.term for m in p.members]
    if isinstance(p, PConj):
        return [s.term for s in p.items]
    if isinstance(p, (POption, KVOption)):
        return [b.term for b in p.branches]
    if isinstance(p, KVPattern):
        return [Var(p.var), p.value.term] if p.var else [p.value.term]
    return []


def query_matching_term(q: QueryAst) -> Term:
    """Multiple sources combine their terms as one tuple in source order."""
    return tuple_of([p.term for _, p in q.sources])


def backbone(cp: ConstructionPattern) -> Term:
    """The matching term underlying a construction pattern: constants erased;
    a plain array ordered by a term leaves its index open."""
    if isinstance(cp, CLit):
        return UNIT
    if isinstance(cp, CVarRef):
        return Var(cp.name)
    if isinstance(cp, CDistinctRef):
        return cp.term
    if isinstance(cp, CObject):
        return tuple_of([sub.backbone for _, sub in cp.members])
    if isinstance(cp, CFun):
        return tuple_of([a.backbone for a in cp.args])
    if isinstance(cp, COption):
        return option_of([b.backbone for b in cp.branches])
    if isinstance(cp, CFlatArray):
        inner = cp.elem.backbone
        return UNIT if is_unit(inner) else ArrayT(inner, None, flat=True)
    if isinstance(cp, CArray):
        inner = cp.elem.backbone
        if isinstance(cp.groupby, DistinctT):
            return _folded_backbone(cp, inner)
        if is_unit(inner):
            return UNIT
        return ArrayT(inner, None if cp.order else cp.groupby)
    raise TypeError_(f"not a construction pattern: {cp!r}")


def _folded_backbone(cp: CArray, inner: Term) -> Term:
    key = cp.groupby
    comps = components(inner)
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


def validate_query(q: QueryAst) -> None:
    """Reject what no document can make valid, before any data is read."""
    bound: set[str] = set()
    for _, p in q.sources:
        for name in pattern_vars(p):
            if name in bound:
                raise ReboundVariableError(name)
            bound.add(name)
    _check_construction(q.construct, bound)
    if q.where is not None:
        for name in cond_vars(q.where):
            if name not in bound:
                raise UnboundVariableError(name)
        for node in cond_nodes(q.where):
            if isinstance(node, CCall):
                _check_call(node.name, len(node.args))
        for stage in where_stages(q.where):
            for part in stage:
                condition_scope(part, q.term)


def _check_call(name: str, arity: int) -> None:
    if name not in BUILTINS:
        raise TypeError_(f"unknown function {name!r}")
    wanted, _ = BUILTINS[name]
    if arity != wanted:
        raise TypeError_(f"{name} takes {wanted} argument(s), got {arity}")


def _check_bound(t: Term, bound: set[str]) -> None:
    for name in sorted(var_set(t)):
        if name not in bound:
            raise UnboundVariableError(name)


def _check_construction(cp: ConstructionPattern, bound: set[str]) -> None:
    if isinstance(cp, CVarRef):
        if cp.name not in bound:
            raise UnboundVariableError(cp.name)
    elif isinstance(cp, CDistinctRef):
        _check_bound(cp.term, bound)
    elif isinstance(cp, CObject):
        seen: set[str] = set()
        for key, sub in cp.members:
            if key in seen:
                raise ConstructionError(f"duplicate key {key!r} in output object")
            seen.add(key)
            _check_construction(sub, bound)
    elif isinstance(cp, (CArray, CFlatArray)):
        _check_construction(cp.elem, bound)
        if isinstance(cp, CFlatArray) and is_unit(cp.backbone):
            raise ConstructionError("a ^[...] of constants only has nothing to splice")
        if isinstance(cp, CArray) and cp.groupby is not None:
            _check_bound(cp.groupby, bound)
        if isinstance(cp, CArray) and cp.order is not None:
            # a grouped array orders by its classes' keys
            if cp.groupby is None:
                raise ConstructionError("asc/desc ordering needs a groupby index term")
            if not isinstance(cp.groupby, DistinctT) and len(var_set(cp.groupby)) != 1:
                raise ConstructionError("an ordering term needs exactly one variable")
            if not isinstance(cp.groupby, DistinctT):
                (name,) = var_set(cp.groupby)
                if not one_value_paths(cp.elem.backbone, name):
                    raise ConstructionError(
                        f"ordering variable ${name} is not one value per array element")
    elif isinstance(cp, COption):
        for b in cp.branches:
            _check_construction(b, bound)
    elif isinstance(cp, CFun):
        _check_call(cp.name, len(cp.args))
        for a in cp.args:
            _check_construction(a, bound)


def where_stages(c: Condition) -> Iterator[list[Condition]]:
    """The `with` stages of c in textual order, each as the conditions its
    `par` evaluates independently (c alone if no `with` and no `par`).  Lazy:
    a stage is taken apart only when the stages before it are done."""
    if isinstance(c, CCompound) and c.op == "with":
        yield from where_stages(c.left)
        yield from where_stages(c.right)
    elif isinstance(c, CCompound):  # `par`: one stage of both sides' parts
        left, right = (list(where_stages(side)) for side in (c.left, c.right))
        if len(left) > 1 or len(right) > 1:
            raise InvalidCompositionError("'with' cannot be nested under 'par'")
        yield left[0] + right[0]
    else:
        yield [c]


# ---------------------------------------------------------------------------
# the scope of one condition: what its support tuples bind and range over


def condition_scope(c: Condition, source: Term) -> tuple[dict[Path, list[str]], set[str]]:
    """The arrays c, one `par` part of a `with` stage, counts and quantifies
    over (anchor path -> range variables) and the variables each support
    tuple must bind.  Raises the composition errors no document can repair."""
    paths = _var_paths(source)
    ranges = set()
    for node in cond_nodes(c):
        if isinstance(node, CCompound):
            raise InvalidCompositionError(
                f"'{node.op}' cannot be nested under 'and', 'or', 'not' or a quantifier"
            )
        if isinstance(node, CQuant):
            ranges.add(node.var)
        ranges.update(e.var for e in leaf_exprs(node) if isinstance(e, ECount))
    _check_colocation(c, source, paths, ranges)
    anchor_of = {v: _anchor_path(source, paths, v) for v in ranges}
    anchors: dict[Path, list[str]] = {}
    for v in ranges:
        anchors.setdefault(anchor_of[v], []).append(v)

    def inside(p: Path, anchor: Path) -> bool:
        return len(p) > len(anchor) and p[: len(anchor)] == anchor

    under_anchor = {v for v in paths if any(inside(paths[v], a) for a in anchors)}
    if _read_vars(c, lambda q, v: inside(paths[v], anchor_of[q])) & under_anchor:
        raise InvalidCompositionError(
            "an array cannot be both a count/quantifier range and an elementwise "
            "condition argument in one condition; apply them in turn with 'with'"
        )
    if any(inside(b, a) for a in anchors for b in anchors):
        raise InvalidCompositionError(
            "a count/quantifier range cannot lie inside another in one condition; "
            "apply them in turn with 'with'"
        )
    return anchors, (set(cond_vars(c)) - ranges - under_anchor) & set(paths)


def _read_vars(c: Condition, per_item) -> set[str]:
    """The variables c reads from a support tuple: not count[] arguments, nor
    what a quantifier over $q reads from each item (`per_item(q, v)`)."""
    if isinstance(c, CQuant):
        return {v for v in _read_vars(c.body, per_item) if not per_item(c.var, v)}
    if isinstance(c, CBool):
        return set().union(*(_read_vars(s, per_item) for s in c.subs))
    return {_expr_var(e) for e in leaf_exprs(c) if isinstance(e, (EVar, EField))}


def _var_paths(t: Term) -> dict[str, Path]:
    """Each variable's path; a later occurrence overrides an earlier one."""
    return {n.name: path for path, n in positions(t) if isinstance(n, Var)}


def _anchor_path(source: Term, paths: dict[str, Path], var: str) -> Path:
    """Path of the innermost array on the way to `var`: the array a count or
    quantifier over that variable ranges over."""
    p = paths[var]
    anchor = None
    for cut in range(len(p)):
        if isinstance(subterm(source, p[:cut]), ArrayT):
            anchor = p[:cut]
    if anchor is None:
        raise TypeError_(f"count/quantifier over ${var} needs an array, got a scalar binding")
    return anchor


def _check_colocation(
    c: Condition, source: Term, paths: dict[str, Path], ranges: set[str]
) -> None:
    """and/or/not (and single leaves) need all argument variables reachable in
    one support tuple: no two of them may live in different branches of the
    same option."""
    spots: list[tuple[str, Path]] = []
    for v in dict.fromkeys(cond_vars(c)):
        if v not in paths:
            raise TypeError_(f"${v} is not bound by the extraction pattern")
        spots.append((v, _anchor_path(source, paths, v) if v in ranges else paths[v]))
    for i in range(len(spots)):
        for j in range(i + 1, len(spots)):
            (u, pu), (w, pw) = spots[i], spots[j]
            k = 0
            while k < len(pu) and k < len(pw) and pu[k] == pw[k]:
                k += 1
            if k < len(pu) and k < len(pw) and isinstance(subterm(source, pu[:k]), OptionT):
                raise InvalidCompositionError(
                    f"${u} and ${w} live in different option branches and never "
                    f"occur in one support tuple; combine the conditions with "
                    f"'par' instead"
                )


# ---------------------------------------------------------------------------
# unparsing


def unparse_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return f"${p.name}"
    if isinstance(p, PWild):
        return "*"
    if isinstance(p, PPred):
        pred = p.pred
        if isinstance(pred, StringPredicate):
            return serialize(pred.pattern)
        if pred.op == "=":
            return serialize(pred.literal)
        return f"({pred.op} {serialize(pred.literal)})"
    if isinstance(p, PObject):
        return "{" + ", ".join(unparse_pattern(m) for m in p.members) + "}"
    if isinstance(p, PArray):
        return "[" + unparse_pattern(p.elem) + "]"
    if isinstance(p, PConj):
        return "<" + ", ".join(unparse_pattern(s) for s in p.items) + ">"
    if isinstance(p, POption):
        return "(" + "|".join(unparse_pattern(b) for b in p.branches) + ")"
    if isinstance(p, PChildren):
        return "/" + unparse_pattern(p.member)
    if isinstance(p, PDescend):
        return "//" + unparse_pattern(p.pattern)
    if isinstance(p, KVPattern):
        if p.var and p.key:
            head = f"${p.var}{serialize(p.key.pattern)}"
        elif p.var:
            head = f"${p.var}"
        elif p.key:
            head = serialize(p.key.pattern)
        else:
            head = "*"
        return head + ":" + unparse_pattern(p.value)
    if isinstance(p, KVOption):
        return "|".join(unparse_pattern(b) for b in p.branches)
    raise TypeError(f"not a pattern: {p!r}")


def unparse_expr(e: CondExpr) -> str:
    if isinstance(e, EVar):
        return f"${e.name}"
    if isinstance(e, EField):
        return f"${e.var}" + "".join(f".{serialize(k)}" for k in e.keys)
    if isinstance(e, ELit):
        return serialize(e.value)
    if isinstance(e, ECount):
        return f"count[${e.var}]"
    raise TypeError(f"not an expression: {e!r}")


def unparse_condition(c: Condition) -> str:
    if isinstance(c, CCompare):
        return f"{unparse_expr(c.lhs)} {c.op} {unparse_expr(c.rhs)}"
    if isinstance(c, CCall):
        return f"{c.name}(" + ", ".join(unparse_expr(a) for a in c.args) + ")"
    if isinstance(c, CQuant):
        return f"({c.kind} ${c.var}; {unparse_condition(c.body)})"
    if isinstance(c, CBool):
        if c.op == "not":
            return f"not({unparse_condition(c.subs[0])})"
        return "(" + f" {c.op} ".join(unparse_condition(s) for s in c.subs) + ")"
    if isinstance(c, CCompound):
        return f"({unparse_condition(c.left)} {c.op} {unparse_condition(c.right)})"
    raise TypeError(f"not a condition: {c!r}")


def unparse_construction(cp: ConstructionPattern) -> str:
    if isinstance(cp, CLit):
        return serialize(cp.value)
    if isinstance(cp, CVarRef):
        return f"${cp.name}"
    if isinstance(cp, CObject):
        members = (f"{serialize(k)}:{unparse_construction(v)}" for k, v in cp.members)
        return "{" + ", ".join(members) + "}"
    if isinstance(cp, CArray):
        body = "[" + unparse_construction(cp.elem) + "]"
        if cp.groupby is not None:
            body += f" groupby {render(cp.groupby)}"
        if cp.order is not None:
            body += f" {cp.order}"
        return body
    if isinstance(cp, CFlatArray):
        return "^[" + unparse_construction(cp.elem) + "]"
    if isinstance(cp, COption):
        return "(" + "|".join(unparse_construction(b) for b in cp.branches) + ")"
    if isinstance(cp, CFun):
        return f"{cp.name}(" + ", ".join(unparse_construction(a) for a in cp.args) + ")"
    if isinstance(cp, CDistinctRef):
        return render(cp.term)
    raise TypeError(f"not a construction pattern: {cp!r}")


def unparse_query(q: QueryAst) -> str:
    sources = ", ".join(f'doc({serialize(name)}) {unparse_pattern(p)}' for name, p in q.sources)
    text = f"from {sources} construct {unparse_construction(q.construct)}"
    if q.where is not None:
        text += f" where {unparse_condition(q.where)}"
    return text
