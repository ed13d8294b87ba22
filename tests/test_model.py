import json
import random
from collections import Counter
from decimal import Decimal

import pytest

from jpq.errors import DuplicateKeyError, JsonSyntaxError
from jpq.model import MISSING, get_field, key, parse_document, preorder, serialize

from .generators import _same, gen_document


def test_atoms_parse_to_typed_values():
    v = parse_document('{"s":"hi","n":1.5,"b":true,"e":null}')
    assert _same(v, {"s": "hi", "n": Decimal("1.5"), "b": True, "e": None})
    assert type(v["n"]) is Decimal


@pytest.mark.parametrize(
    "text, printed",
    [
        ("0.1", "0.1"),
        ("3.50", "3.50"),
        ("-0.0", "-0.0"),
        ("2.5e-3", "0.0025"),
        ("1e5", "1E+5"),
        ("0.0000001", "1E-7"),
        ("Infinity", "Infinity"),
        ("-Infinity", "-Infinity"),
    ],
)
def test_numbers_keep_exact_decimal_text(text, printed):
    # digits and trailing zeros survive; exponents print in Decimal form
    v = parse_document(f'{{"n":{text}}}')
    assert _same(get_field(v, "n"), Decimal(text))
    assert serialize(v) == f'{{"n":{printed}}}'


def test_object_preserves_document_order():
    v = parse_document('{"z":1,"a":2,"m":3}')
    assert list(v) == ["z", "a", "m"]


def test_duplicate_keys_rejected():
    with pytest.raises(DuplicateKeyError):
        parse_document('{"a":1,"a":2}')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a":1,"a":2}', "duplicate key 'a' in object at $"),
        # a key is checked before the member under it, so the inner repeat
        # is reported first
        ('{"a":{"b":[0,{"c":1,"c":2}]},"a":3}', "duplicate key 'c' in object at $.a.b[1]"),
        ('{"x":[{"k":1,"k":1}],"y":{"z":0,"z":0}}', "duplicate key 'k' in object at $.x[0]"),
        ('[{"q":{"w":1,"w":2}}]', "duplicate key 'w' in object at $[0].q"),
    ],
)
def test_duplicate_key_message_names_the_first_repeat_and_its_path(text, message):
    with pytest.raises(DuplicateKeyError) as e:
        parse_document(text)
    assert str(e.value) == message


def test_malformed_document_rejected():
    with pytest.raises(JsonSyntaxError):
        parse_document('{"a":')


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a":', "Expecting value at line 1, column 6"),
        ('{"a":\n [1,\n 2,,]}', "Expecting value at line 3, column 4"),
        # a syntax error anywhere wins over a repeated key before it
        ('{"a":1,"a":2,', "Expecting property name enclosed in double quotes at line 1, column 14"),
    ],
)
def test_syntax_error_message_gives_line_and_column(text, message):
    with pytest.raises(JsonSyntaxError) as e:
        parse_document(text)
    assert str(e.value) == message


def test_serialize_pretty_round_trips():
    v = parse_document('{"a":[1,{"b":"x"}],"c":null}')
    assert _same(parse_document(serialize(v, pretty=True)), v)


def test_get_field_tells_a_missing_member_from_null(univ):
    assert get_field(univ, "no-such-key") is MISSING
    assert get_field(parse_document('{"k":null}'), "k") is None
    assert get_field(MISSING, "k") is MISSING
    assert _same(get_field(get_field(univ, "president"), "ID"), "0001")


def test_preorder_visits_parent_before_children():
    v = parse_document('{"a":{"b":[1,2]}}')
    seen = list(preorder(v))
    assert seen[0] is v
    assert [type(x) for x in seen] == [dict, dict, list, Decimal, Decimal]
    assert seen[1] is get_field(v, "a") and _same(seen[3:], [Decimal(1), Decimal(2)])


def test_string_escapes_round_trip():
    v = {"k": 'a"b\\c\n\té'}
    assert _same(parse_document(serialize(v)), v)


def test_generated_documents_round_trip():
    for seed in range(300):
        rng = random.Random(seed)
        doc = gen_document(rng)
        assert _same(parse_document(serialize(doc)), doc)
        assert _same(parse_document(serialize(doc, pretty=True)), doc)


# characters json escapes (quote, backslash, controls), non-ASCII and astral
ESCAPED = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "€", "\u2028",
           "\U0001F600", "a", " "]
ORACLE_CASES = 400


def oracle_value(rng: random.Random, depth: int = 3):
    """A value, and the same value as json.dumps takes it (integral numbers
    as int): strings of escaped characters, null, booleans, empty and
    nested containers."""
    pick = rng.randrange(6 if depth else 3)
    if pick == 0:
        text = "".join(rng.choice(ESCAPED) for _ in range(rng.randrange(5)))
        return text, text
    if pick == 1:
        n = rng.randint(-10**12, 10**12)
        return Decimal(n), n
    if pick == 2:
        atom = rng.choice([True, False, None])
        return atom, atom
    items = [oracle_value(rng, depth - 1) for _ in range(rng.choice([0, 1, 3]))]
    if pick == 3:
        return [v for v, _ in items], [o for _, o in items]
    keys = ["".join(rng.choice(ESCAPED) for _ in range(3)) + str(i) for i in range(len(items))]
    return {k: v for k, (v, _) in zip(keys, items)}, {k: o for k, (_, o) in zip(keys, items)}


def test_serialize_agrees_with_json_dumps_byte_for_byte():
    tops = Counter()
    for seed in range(ORACLE_CASES):
        v, plain = oracle_value(random.Random(seed))
        assert serialize(v) == json.dumps(plain, separators=(",", ":")), seed
        assert serialize(v, pretty=True) == json.dumps(plain, indent=2), seed
        tops["empty" if isinstance(v, (dict, list)) and not v else type(v)] += 1
    assert min(tops[kind] for kind in (str, Decimal, bool, type(None), list, dict, "empty")) > 10


def test_key_is_jpq_equality():
    one, one_point_0 = Decimal(1), Decimal("1.0")
    assert key(one) == key(one_point_0) and key(True) != key(one) and key(None) != key(False)
    assert key({"p": one, "q": [True]}) == key({"p": one_point_0, "q": [True]})
    assert key({"p": 1, "q": 2}) != key({"q": 2, "p": 1})
    # nesting is part of the key, not only the atoms in preorder
    assert key([[one], one]) != key([[one, one]]) and key([[]]) != key([[], []])
    assert len({key([one, {"a": None}]), key([one_point_0, {"a": None}])}) == 1
    nan = Decimal("NaN")
    assert key(nan) != key(nan) and key(nan, nan_equal=True) == key(Decimal("NaN"), nan_equal=True)
    # booleans are not numbers, in a container too; strings are not numbers
    assert key(True) != key(Decimal(1)) and key(False) != key(Decimal(0))
    assert key([True]) != key([one]) and key({"a": False}) != key({"a": Decimal(0)})
    assert key("1") != key(one) and key("true") != key(True) and key("null") != key(None)
    # with nan_equal a NaN anywhere keys alike, and like nothing else
    assert key([nan, one], nan_equal=True) == key([Decimal("NaN"), one_point_0], nan_equal=True)
    assert key(nan, nan_equal=True) not in {key("NaN"), key(None), key(Decimal(0))}
    assert key([nan]) != key([nan])
