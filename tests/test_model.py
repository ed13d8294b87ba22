import random
from decimal import Decimal

import pytest

from jpq.errors import DuplicateKeyError, JsonSyntaxError
from jpq.model import (
    Array,
    Atom,
    Object,
    get_field,
    parse_document,
    preorder,
    serialize,
)

from .generators import gen_document


def test_atoms_parse_to_typed_values():
    v = parse_document('{"s":"hi","n":1.5,"b":true,"e":null}')
    assert v == Object(
        [
            ("s", Atom("hi")),
            ("n", Atom(Decimal("1.5"))),
            ("b", Atom(True)),
            ("e", Atom(None)),
        ]
    )


@pytest.mark.parametrize(
    "text, printed",
    [
        ("0.1", "0.1"),
        ("3.50", "3.50"),
        ("-0.0", "-0.0"),
        ("2.5e-3", "0.0025"),
        ("1e5", "1E+5"),
        ("0.0000001", "1E-7"),
    ],
)
def test_numbers_keep_exact_decimal_text(text, printed):
    # digits and trailing zeros survive; exponents print in Decimal form
    v = parse_document(f'{{"n":{text}}}')
    assert get_field(v, "n") == Atom(Decimal(text))
    assert serialize(v) == f'{{"n":{printed}}}'


def test_object_preserves_document_order():
    v = parse_document('{"z":1,"a":2,"m":3}')
    assert v.keys() == ["z", "a", "m"]


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_document('{"a":1,"a":2}')


def test_malformed_document_rejected():
    with pytest.raises(JsonSyntaxError):
        parse_document('{"a":')


def test_serialize_pretty_round_trips():
    v = parse_document('{"a":[1,{"b":"x"}],"c":null}')
    assert parse_document(serialize(v, pretty=True)) == v


def test_get_field_missing_returns_none(univ):
    assert get_field(univ, "no-such-key") is None
    assert get_field(get_field(univ, "president"), "ID") == Atom("0001")


def test_preorder_visits_parent_before_children():
    v = parse_document('{"a":{"b":[1,2]}}')
    seen = list(preorder(v))
    assert seen[0] is v
    assert seen.index(get_field(v, "a")) < seen.index(Atom(Decimal(1)))


def test_string_escapes_round_trip():
    v = Object([("k", Atom('a"b\\c\n\té'))])
    assert parse_document(serialize(v)) == v


def test_generated_documents_round_trip():
    for seed in range(300):
        rng = random.Random(seed)
        doc = gen_document(rng)
        assert parse_document(serialize(doc)) == doc
        assert parse_document(serialize(doc, pretty=True)) == doc
