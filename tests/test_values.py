"""Comparisons and builtins agree wherever a query applies them: a where
clause, a value predicate in a pattern and a call in a construction, each
checked against a plain-Python oracle written from README's rules (`true`
is not `1`, `1` equals `1.0`, NaN equals nothing and has no order, a
predicate tests atoms only, the string builtins hold on strings only, and
an absent member is not `null`)."""

import json
import math
from itertools import product

import pytest

from jpq.engine import Engine
from jpq.model import DocRegistry, parse_document
from jpq.parser import parse_query

from .generators import _same

VALUES = [1, 1.0, True, "1", None, math.nan, "a.edu", [1, "a.edu"], {"k": 1}]
LITERALS = [v for v in VALUES if not isinstance(v, (list, dict)) and v == v]  # NaN has no literal
OPS = ["=", "!=", "<", "<=", ">", ">="]
STRING_BUILTINS = {"endWith": str.endswith, "startWith": str.startswith,
                   "contains": lambda a, b: b in a}

PAIRS = list(product(VALUES, VALUES))
PAIR_PATTERN = 'from doc("pairs") {"xs":[{"i":$i,"a":$a,"b":$b}]} '
ONE_PATTERN = 'from doc("one") {"xs":[{"i":$i,"a":$a}]} '


def compares(op, a, b) -> bool:
    if op == "=":
        return _same(a, b)
    if op == "!=":
        return not _same(a, b)
    numbers = all(type(x) in (int, float) and not math.isnan(x) for x in (a, b))
    if not (numbers or type(a) is type(b) is str):
        return False
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def builtin(name, *args) -> bool:
    if name == "notnull":
        return args[0] is not None
    a, b = args
    return type(a) is type(b) is str and STRING_BUILTINS[name](a, b)


@pytest.fixture(scope="module")
def engine():
    reg = DocRegistry()
    pairs = [{"i": n, "a": a, "b": b} for n, (a, b) in enumerate(PAIRS)]
    # the last item has no "a": `notnull` on an absent member is false
    one = [{"i": n, "a": a} for n, a in enumerate(VALUES)] + [{"i": len(VALUES)}]
    for name, items in (("pairs", pairs), ("one", one)):
        reg.register(name, parse_document(json.dumps({"xs": items})))
    return Engine(reg)


def kept(engine, query) -> list[int]:
    return engine.run(parse_query(query))["r"]


@pytest.mark.parametrize("op", OPS)
def test_a_comparison_agrees_in_a_where_clause_and_a_value_predicate(engine, op):
    got = kept(engine, PAIR_PATTERN + f'construct {{"r":[$i]}} where $a {op} $b')
    assert got == [n for n, (a, b) in enumerate(PAIRS) if compares(op, a, b)]
    for b in LITERALS:
        text = json.dumps(b)
        expected = [n for n, a in enumerate(VALUES) if compares(op, a, b)]
        got = kept(engine, ONE_PATTERN + f'construct {{"r":[$i]}} where $a {op} {text}')
        assert got == expected, b
        atoms = [n for n in expected if not isinstance(VALUES[n], (list, dict))]
        # a bare literal is `(= literal)`, a string one a `?`-free string test
        for pred in [f"({op} {text})"] + ([text] if op == "=" else []):
            query = f'from doc("one") {{"xs":[{{"i":$i,"a":{pred}}}]}} construct {{"r":[$i]}}'
            assert kept(engine, query) == atoms, pred


@pytest.mark.parametrize("name", STRING_BUILTINS)
def test_a_string_builtin_agrees_in_a_where_clause_and_a_construction(engine, name):
    got = kept(engine, PAIR_PATTERN + f'construct {{"r":[$i]}} where {name}($a, $b)')
    assert got == [n for n, (a, b) in enumerate(PAIRS) if builtin(name, a, b)]
    built = kept(engine, PAIR_PATTERN + f'construct {{"r":[{{"i":$i,"t":{name}($a,$b)}}]}}')
    assert built == [{"i": n, "t": builtin(name, a, b)} for n, (a, b) in enumerate(PAIRS)]


def test_notnull_agrees_in_a_where_clause_and_a_construction(engine):
    present = [n for n, a in enumerate(VALUES) if builtin("notnull", a)]
    assert kept(engine, ONE_PATTERN + 'construct {"r":[$i]} where notnull($a)') == present
    fields = 'from doc("one") {"xs":[<{"i":$i},$o>]} construct {"r":[$i]} where notnull($o."a")'
    assert kept(engine, fields) == present  # the member-less last item too
    built = kept(engine, ONE_PATTERN + 'construct {"r":[{"i":$i,"t":notnull($a)}]}')
    assert built == [{"i": n, "t": builtin("notnull", a)} for n, a in enumerate(VALUES)]
