"""Seeded random generators for documents, patterns, terms and results.

Everything takes an explicit `random.Random` so test runs are reproducible;
property suites iterate with numbered seeds.
"""

from __future__ import annotations

import random
import string
from decimal import Decimal

from jpq import ast as A
from jpq.matching import MArray, MBind, MFailed, MOption, MTuple, MUnit
from jpq.terms import ArrayT, TupleT, Var

KEYS = ["id", "name", "tags", "meta", "size", "note", "kind", "data"]
WORDS = ["alpha", "beta", "gamma", "delta", "x", "", "edu", "a b", 'q"t', "\\n"]


def gen_atom(rng: random.Random):
    pick = rng.randrange(5)
    if pick == 0:
        return rng.choice(WORDS)
    if pick == 1:
        return Decimal(rng.randint(-1000, 1000))
    if pick == 2:
        return Decimal(rng.randint(-9999, 9999)) / Decimal(100)
    if pick == 3:
        return rng.choice([True, False])
    return None


def gen_value(rng: random.Random, depth: int = 3):
    if depth <= 0 or rng.random() < 0.4:
        return gen_atom(rng)
    if rng.random() < 0.5:
        return [gen_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    keys = rng.sample(KEYS, rng.randrange(1, 4))
    return {k: gen_value(rng, depth - 1) for k in keys}


def gen_document(rng: random.Random):
    """A root object, as parse_document requires."""
    keys = rng.sample(KEYS, rng.randrange(1, 5))
    return {k: gen_value(rng, 3) for k in keys}


def _same(a, b) -> bool:
    """JPQ equality on JSON values, type-strict where Python's `==` is not:
    numbers (int, float or Decimal) numerically, no kind equal to another
    (booleans are not numbers), arrays item by item, objects member by
    member in order.  Tuples compare like arrays, so binding pairs can be
    checked too."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    numbers = (int, float, Decimal)
    if isinstance(a, numbers) and isinstance(b, numbers):
        return a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and type(a) is type(b):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


# -- patterns guaranteed to match a given value -------------------------------


class _Vars:
    def __init__(self):
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"v{self.n}"


def gen_matching_pattern(rng: random.Random, value, vars_: _Vars | None = None, depth: int = 3):
    """A value pattern that is certain to match `value`, binding at least
    whatever variables it introduces."""
    vars_ = vars_ or _Vars()
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        return A.PVar(vars_.fresh())
    if pick < 0.4:
        return A.PWild()
    if isinstance(value, dict) and value and pick < 0.8:
        pairs = list(value.items())
        chosen = rng.sample(pairs, rng.randrange(1, min(2, len(pairs)) + 1))
        members = []
        for key, sub in chosen:
            var = vars_.fresh() if rng.random() < 0.3 else None
            members.append(
                A.KVPattern(
                    var,
                    A.StringPredicate(key),
                    gen_matching_pattern(rng, sub, vars_, depth - 1),
                )
            )
        return A.PObject(tuple(members))
    if isinstance(value, list) and pick < 0.8:
        # element pattern built from the first element still matches a subset
        if not value:
            return A.PArray(A.PVar(vars_.fresh()))
        return A.PArray(gen_matching_pattern(rng, value[0], vars_, depth - 1))
    if isinstance(value, str) and pick < 0.7:
        if "?" not in value:
            return A.PPred(A.StringPredicate(value))
        return A.PVar(vars_.fresh())
    if pick < 0.9:
        # matching branch first; the second is a fresh binder and also matches
        return A.POption(
            (
                gen_matching_pattern(rng, value, vars_, depth - 1),
                A.PVar(vars_.fresh()),
            )
        )
    return A.PConj(
        (
            gen_matching_pattern(rng, value, vars_, depth - 1),
            gen_matching_pattern(rng, value, vars_, depth - 1),
        )
    )


# -- terms and conforming results --------------------------------------------


def gen_term(rng: random.Random, names: list[str], depth: int = 3):
    """A matching term over fresh picks from `names`; arrays self-indexed."""
    if depth <= 0 or (rng.random() < 0.35 and names):
        return Var(rng.choice(names))
    pick = rng.randrange(3)
    if pick == 0:
        return TupleT((gen_term(rng, names, depth - 1), gen_term(rng, names, depth - 1)))
    if pick == 1:
        elem = gen_term(rng, names, depth - 1)
        return ArrayT(elem, elem)
    from jpq.terms import OptionT

    return OptionT((gen_term(rng, names, depth - 1), gen_term(rng, names, depth - 1)))


class ResultBuilder:
    """Builds a random MatchResult conforming to a term."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._next = iter(range(1, 10**9))

    def fresh_id(self):
        return next(self._next)

    def build(self, t, max_items: int = 3):
        from jpq.terms import DistinctT, OptionT

        if isinstance(t, Var):
            return MBind(t.name, gen_atom(self.rng))
        if isinstance(t, TupleT):
            if not t.items:
                return MUnit()
            return MTuple([self.build(s, max_items) for s in t.items])
        if isinstance(t, OptionT):
            take = self.rng.randrange(len(t.branches))
            branches = [
                self.build(b, max_items) if i == take else MFailed()
                for i, b in enumerate(t.branches)
            ]
            return MOption(branches, self.fresh_id())
        if isinstance(t, ArrayT):
            items = []
            for _ in range(self.rng.randrange(max_items + 1)):
                item = self.build(t.elem, max_items)
                item.elem_id = self.fresh_id()
                items.append(item)
            return MArray(items, t.folded)
        if isinstance(t, DistinctT):
            return self.build(t.inner, max_items)
        raise TypeError(f"no result builder for {t!r}")


def gen_name(rng: random.Random, n: int = 6) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))
