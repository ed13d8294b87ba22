"""The matching-term algebra: the abstract shape of pattern-match results.

A term is a variable, a tuple, an option, an (optionally flattened or folded)
array with an index term, or a distinct term.  The unit tuple `()` stands for
"matched, nothing bound".  Terms are immutable and hashable; route search
memoizes on them directly.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Optional

Path = tuple[int, ...]


class Record:
    """An immutable value.  Its fields are its class annotations, after its
    bases', defaulting to the class attribute of their name; it equals only a
    record of its class with equal fields, and keeps a `__dict__` for
    `cached_property`.  Value classes use it as it compiles no code at
    import."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(own)
        cls._key = attrgetter(*cls._fields) if cls._fields else type  # what equality compares
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]  # to be given by keyword or by default
            if len(args) > len(fields) or not kwargs.keys() <= set(rest) <= {*kwargs, *self._defaults}:
                raise TypeError(f"{type(self).__name__}() takes fields {', '.join(fields)}")
            args += tuple([kwargs[n] if n in kwargs else self._defaults[n] for n in rest])
        self.__dict__.update(dict(zip(fields, args)))  # from a dict, reads stay fast
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other) -> bool:
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable record")

    __delattr__ = __setattr__


class Term(Record):
    def __hash__(self) -> int:
        """Kept once computed; from kind and fields, so equal terms hash alike."""
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((type(self), *self.__dict__.values()))
        return self.__dict__["_hash"]


class Var(Term):
    name: str


class TupleT(Term):
    items: tuple[Term, ...]


class OptionT(Term):
    branches: tuple[Term, ...]


class ArrayT(Term):
    elem: Term
    index: Optional[Term]  # None only in construction backbones: "infer me"
    flat: bool = False
    folded: bool = False
    __hash__ = Term.__hash__  # which defining `__eq__` would hide

    def __eq__(self, other) -> bool:
        """Field by field, but an index that is the element on both sides, as a
        matched array's is, is compared once, with the element: comparing it
        again would double the work at each level of nesting."""
        if type(other) is not ArrayT:
            return NotImplemented
        return (self.elem, self.flat, self.folded) == (other.elem, other.flat, other.folded) and (
            self.index is self.elem and other.index is other.elem or self.index == other.index)

    def __repr__(self) -> str:
        """A self-index printed once, as `render` does, not once per level."""
        index = "elem" if self.index == self.elem else repr(self.index)
        return f"ArrayT(elem={self.elem!r}, index={index}, flat={self.flat}, folded={self.folded})"


class DistinctT(Term):
    inner: Term


UNIT = TupleT(())


def is_unit(t: Term) -> bool:
    return isinstance(t, TupleT) and not t.items


def tuple_of(items: list[Term]) -> Term:
    """Tuple constructor for derivation: splices nested tuples (conjunctive
    association is flat), so a unit slot adds nothing; collapses singletons;
    nothing kept is the unit tuple."""
    kept: list[Term] = []
    for t in items:
        if isinstance(t, TupleT):
            kept.extend(t.items)
        else:
            kept.append(t)
    if len(kept) == 1:
        return kept[0]
    return TupleT(tuple(kept))


DROP, KEEP, SPLICE = 0, 1, 2


def slot_code(t: Term) -> int:
    """What a flat tuple does with a slot of term t, as tuple_of does: DROP a
    unit, SPLICE a tuple's items, KEEP anything else."""
    return DROP if is_unit(t) else SPLICE if isinstance(t, TupleT) else KEEP


def option_of(branches: list[Term]) -> Term:
    """Option constructor; positions are preserved, an all-unit option is unit."""
    if all(is_unit(b) for b in branches):
        return UNIT
    if len(branches) == 1:
        return branches[0]
    return OptionT(tuple(branches))


def var_counts(t: Term) -> Counter:
    c: Counter = Counter()
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Var:  # term classes are final
            c[node.name] += 1
        else:
            stack.extend(children(node))
    return c


def var_set(t: Term) -> set[str]:
    return set(var_counts(t))


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, TupleT):
        return t.items
    if isinstance(t, OptionT):
        return t.branches
    if isinstance(t, ArrayT):
        return (t.elem,)
    if isinstance(t, DistinctT):
        return (t.inner,)
    return ()


def with_children(t: Term, kids: tuple[Term, ...]) -> Term:
    if isinstance(t, (TupleT, OptionT)):
        return type(t)(kids)
    if isinstance(t, ArrayT):
        return ArrayT(kids[0], t.index, t.flat, t.folded)
    if isinstance(t, DistinctT):
        return DistinctT(kids[0])
    raise ValueError(f"term {t!r} has no children")


def subterm(t: Term, path: Path) -> Term:
    for step in path:
        kids = children(t)
        if step >= len(kids):
            raise IndexError(f"path step {step} out of range in {render(t)}")
        t = kids[step]
    return t


def replace(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    return with_children(t, tuple(kids))


def positions(t: Term) -> list[tuple[Path, Term]]:
    """Every node of t with its path, preorder."""
    out: list[tuple[Path, Term]] = []
    stack: list[tuple[Path, Term]] = [((), t)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))
    return out


def optioned(t: Term) -> frozenset:
    """The subterms of t with an option at or below them."""
    out: set[Term] = set()
    for _, node in reversed(positions(t)):  # children first
        if isinstance(node, OptionT) or any(c in out for c in children(node)):
            out.add(node)
    return frozenset(out)


def one_value_paths(t: Term, name: str) -> list[list[tuple[Term, int]]]:
    """For each occurrence of `name` in t outside every non-flattened array,
    preorder, the (node, child index) steps from t down to it: the places
    where one result of t binds `name` to one value, if it binds it at all."""
    walks = [[(subterm(t, p[:j]), i) for j, i in enumerate(p)]
             for p, n in positions(t) if n == Var(name)]
    return [w for w in walks if not any(isinstance(a, ArrayT) and not a.flat for a, _ in w)]


def components(t: Term) -> tuple[Term, ...]:
    """The slots of a flat tuple: none for unit, a tuple's items, else t alone."""
    return t.items if isinstance(t, TupleT) else (t,)


def render(t: Term) -> str:
    """Human notation: ($a,$b), $a|$b, [t]_i, ^[t]_i, t%."""
    if isinstance(t, Var):
        return f"${t.name}"
    if isinstance(t, TupleT):
        return "(" + ",".join(render(s) for s in t.items) + ")"
    if isinstance(t, OptionT):
        return "(" + "|".join(render(s) for s in t.branches) + ")"
    if isinstance(t, ArrayT):
        head = "^[" if t.flat else "["
        body = head + render(t.elem) + "]"
        if t.index is None:
            return body
        if t.index == t.elem:
            return body  # self-indexed; subscript adds nothing
        return body + "_" + render(t.index)
    if isinstance(t, DistinctT):
        return render(t.inner) + "%"
    raise ValueError(f"not a term: {t!r}")


def projection(t: Term, keep: set) -> dict[Term, Optional[Term]]:
    """Each subterm of t mapped to its projection onto `keep`, or to None
    when the projection keeps it whole: it is not unit and neither it nor
    anything below it changes.  The projection, which aligns an extraction
    term with a backbone lacking some of its variables, drops what binds
    none of `keep`: tuples collapse, an option keeps its positions, an array
    whose element binds none disappears, and any other array is indexed by
    its projected element, as every matching term's array is."""
    shown: dict[Term, Optional[Term]] = {}
    for _, node in reversed(positions(t)):  # children first
        kids = [shown[c] or c for c in children(node)]
        kind = type(node)
        if kind is Var:
            p = node if node.name in keep else UNIT
        elif kind is TupleT:
            p = tuple_of(kids)
        elif kind is OptionT:
            p = UNIT if all(map(is_unit, kids)) else OptionT(tuple(kids))
        else:
            p = UNIT if is_unit(kids[0]) else ArrayT(kids[0], kids[0], node.flat, node.folded)
        whole = p == node and not is_unit(node) and all(shown[c] is None for c in children(node))
        shown[node] = None if whole else p
    return shown


def terms_match(state: Term, target: Term) -> bool:
    """Equality modulo target-side conveniences: a None index in the target
    matches any index, and a folded class in the target may omit one copy of
    the grouping key from its member term."""
    if isinstance(target, ArrayT):
        if not isinstance(state, ArrayT):
            return False
        if state.flat != target.flat or state.folded != target.folded:
            return False
        if target.index is not None and not terms_match(state.index, target.index):
            return False
        if state.folded:
            return _folded_elems_match(state.elem, target.elem)
        return terms_match(state.elem, target.elem)
    if type(target) in (TupleT, OptionT, DistinctT):
        kids = children(target)
        return (type(state) is type(target) and len(children(state)) == len(kids)
                and all(map(terms_match, children(state), kids)))
    return state == target


def _folded_elems_match(state_elem: Term, target_elem: Term) -> bool:
    # both should be (class-array, key%)
    if not (
        isinstance(state_elem, TupleT)
        and len(state_elem.items) == 2
        and isinstance(target_elem, TupleT)
        and len(target_elem.items) == 2
    ):
        return terms_match(state_elem, target_elem)
    s_arr, s_key = state_elem.items
    g_arr, g_key = target_elem.items
    if not terms_match(s_key, g_key):
        return False
    if not (isinstance(s_arr, ArrayT) and isinstance(g_arr, ArrayT)):
        return False
    if g_arr.index is not None and not terms_match(s_arr.index, g_arr.index):
        return False
    return class_members(s_arr.elem, s_key, g_arr.elem) is not None


def class_members(member: Term, key: DistinctT, target: Term) -> Optional[tuple[list[bool], Term]]:
    """The mask of a folded class's member components shown for the member
    term `target`, and their `tuple_of`: all of them when `member` matches it,
    else all but the first copy of the key; None when neither fits."""
    comps = components(member)
    kept = [True] * len(comps)
    if terms_match(member, target):
        return kept, tuple_of(comps)
    if key.inner in comps:
        kept[comps.index(key.inner)] = False
    shown = tuple_of([c for c, k in zip(comps, kept) if k])
    return (kept, shown) if terms_match(shown, target) else None
