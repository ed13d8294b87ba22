"""Value semantics of every `Record` class: construction by position or
keyword with defaults, equality by exact class and fields, hashing,
`repr` and immutability."""

import pytest

import jpq.cli  # noqa: F401  (imports every module that declares records)
from jpq.ast import PArray, PDescend, PVar, QueryAst
from jpq.parser import parse_query
from jpq.terms import OptionT, Record, Term, TupleT


def concrete(cls: type = Record) -> list[type]:
    """The record classes nothing derives from, found recursively."""
    subs = [s for s in cls.__subclasses__() if s.__module__.startswith("jpq.")]
    return [c for s in subs for c in concrete(s)] if subs else [cls]


RECORDS = sorted(concrete(), key=lambda c: c.__qualname__)

# a query validates on construction, so its fields come from parsed queries
QUERIES = [
    parse_query('from doc("d") {"a":$x} construct [$x] where $x = 1'),
    parse_query('from doc("e") {"b":$x} construct {"r":[$x]} where $x = 2'),
]


def samples(cls: type) -> tuple[tuple, tuple]:
    """Two sets of field values for `cls` that differ in every field; numbers
    print alike with `str` and `repr`, as ArrayT's own `repr` needs."""
    if cls is QueryAst:
        return tuple(tuple(getattr(q, n) for n in cls._fields) for q in QUERIES)
    return tuple(tuple(range(i, i + len(cls._fields))) for i in (100, 200))


def test_the_search_finds_records_of_every_module():
    assert {"QueryAst", "Plan", "CliConfig", "Step", "Constraint", "Var", "ArrayT", "PWild"} <= {
        c.__name__ for c in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_value_semantics(cls):
    values, others = samples(cls)
    names = cls._fields
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b and hash(a) == hash(b)
    assert [getattr(a, n) for n in names] == list(values)
    for i in range(len(values)):
        assert cls(*values[:i], others[i], *values[i + 1:]) != a
    # another class with as many fields is unequal, whichever side asks
    twin = next((c for c in RECORDS if c not in (cls, QueryAst) and len(c._fields) == len(names)), None)
    if twin is not None:
        assert twin(*values) != a and a != twin(*values)
    assert a.__eq__(values) is NotImplemented
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, n) for n in names] == list(values)
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    if not issubclass(cls, Term):
        assert hash(a) == hash(values)
    required = [n for n in names if n not in cls._defaults]
    if cls is not QueryAst and len(required) < len(names):
        short = cls(*values[:len(required)])
        assert [getattr(short, n) for n in names] == [
            *values[:len(required)], *(cls._defaults[n] for n in names[len(required):])]


def test_records_of_different_classes_with_equal_fields_differ():
    p = PVar("x")
    assert PArray(p) != PDescend(p)
    assert TupleT(()) != OptionT(())
    assert PArray(p) == PArray(PVar("x"))


@pytest.mark.parametrize("call", [lambda: PVar(), lambda: PVar("x", "y"), lambda: PVar(nom="x"),
                                  lambda: PVar("x", name="y")])
def test_record_rejects_missing_extra_unknown_and_repeated_fields(call):
    with pytest.raises(TypeError):
        call()
