import random
from decimal import Decimal

import pytest

from jpq import ast as A
from jpq.ast import unparse_pattern, unparse_query
from jpq.errors import QueryError, SyntaxError_
from jpq.parser import (
    parse_condition,
    parse_construction,
    parse_pattern,
    parse_query,
    tokenize,
)
from jpq.terms import ArrayT, DistinctT, Var

from .generators import _Vars, _same, gen_document, gen_matching_pattern


def test_object_pattern_with_key_binder():
    p = parse_pattern('{$k "?president?": *}')
    assert isinstance(p, A.PObject)
    member = p.members[0]
    assert member.var == "k"
    assert member.key.matches("executive-vice-president")
    assert not member.key.matches("dean")


def test_wildcard_key_pattern():
    p = parse_pattern('{*: $v}')
    member = p.members[0]
    assert member.var is None and member.key is None
    assert member.value == A.PVar("v")


def test_value_comparison_predicate():
    p = parse_pattern('{"size": (> 10)}')
    pred = p.members[0].value.pred
    assert pred.op == ">" and _same(pred.literal, Decimal(10))


def test_bare_string_is_a_string_predicate():
    p = parse_pattern('{"name": "Li"}')
    pred = p.members[0].value.pred
    assert isinstance(pred, A.StringPredicate) and pred.matches("Li")


def test_bare_number_means_equality():
    p = parse_pattern('{"size": 10}')
    pred = p.members[0].value.pred
    assert pred.op == "=" and _same(pred.literal, Decimal(10))


def test_option_and_conjunction_patterns():
    p = parse_pattern('<$a, {"k":$b}> | [$c]')
    assert isinstance(p, A.POption)
    conj, arr = p.branches
    assert isinstance(conj, A.PConj) and isinstance(arr, A.PArray)


def test_enumeration_patterns():
    children = parse_pattern('/$r "?x?": *')
    assert isinstance(children, A.PChildren)
    descend = parse_pattern("//$v")
    assert isinstance(descend, A.PDescend)
    assert descend.pattern == A.PVar("v")


def _kv(var, key, value):
    return A.KVPattern(var, None if key is None else A.StringPredicate(key), value)


# the key-part forms: text, bound variable, key predicate
KEY_PARTS = {
    "wildcard": ("*", None, None),
    "var-and-predicate": ('$k "?p?"', "k", "?p?"),
    "var": ("$k", "k", None),
    "predicate": ('"p"', None, "p"),
    "parenthesized": ('($k "?p?")', "k", "?p?"),
    "empty-key": ('""', None, ""),  # still a predicate, though the empty string is falsy
}
X, Y = A.PVar("x"), A.PVar("y")
# pattern text -> the pattern it parses to, or the message of its syntax error
KEY_PART_CASES = {
    **{f"{name}-in-object": ("{%s:$x}" % key, A.PObject((_kv(var, pred, X),)))
       for name, (key, var, pred) in KEY_PARTS.items()},
    **{f"{name}-after-slash": (f"/{key}:$x", A.PChildren(_kv(var, pred, X)))
       for name, (key, var, pred) in KEY_PARTS.items()},
    **{f"{name}-standalone": (f"{key}:$x", _kv(var, pred, X))
       for name, (key, var, pred) in KEY_PARTS.items()},
    "parenthesized-predicate-alone": (
        '{("a"):$x}', "expected a key-value pattern, found '(' at line 1, column 2"),
    "parenthesized-var-alone": (
        "{($k):$x}", "expected a key-value pattern, found '(' at line 1, column 2"),
    "parenthesized-key-without-colon": (
        '{($k "a") $x}', "expected a key-value pattern, found '(' at line 1, column 2"),
    "var-and-predicate-without-colon": (
        '{$k "a" $x}', "expected a key-value pattern, found 'k' at line 1, column 2"),
    "key-after-bar-is-a-key-value-option": (
        '{"a":$x|"b":$y}', A.PObject((A.KVOption((_kv(None, "a", X), _kv(None, "b", Y))),))),
    "wildcard-key-after-bar-is-a-key-value-option": (
        '{"a":$x|*:$y}', A.PObject((A.KVOption((_kv(None, "a", X), _kv(None, None, Y))),))),
    "parenthesized-value-after-bar-is-a-value-option": (
        '{"a":$x|($y)}', A.PObject((_kv(None, "a", A.POption((X, Y))),))),
    "literal-after-bar-is-a-value-option": (
        '{"a":1|2}', A.PObject((_kv(None, "a", A.POption((
            A.PPred(A.ComparePredicate("=", Decimal(1))),
            A.PPred(A.ComparePredicate("=", Decimal(2))),
        ))),))),
}


@pytest.mark.parametrize("text, expected", KEY_PART_CASES.values(), ids=KEY_PART_CASES.keys())
def test_key_parts_and_where_a_bar_splits(text, expected):
    if isinstance(expected, str):
        with pytest.raises(SyntaxError_) as e:
            parse_pattern(text)
        assert str(e.value) == expected
    else:
        assert parse_pattern(text) == expected


def test_condition_precedence_with_par_or_and():
    c = parse_condition("$a=$b and not($c=$d) or $e=$f par $g=$h with $i=$j")
    assert isinstance(c, A.CCompound) and c.op == "with"
    assert isinstance(c.left, A.CCompound) and c.left.op == "par"
    assert isinstance(c.left.left, A.CBool) and c.left.left.op == "or"


def test_quantified_condition_forms():
    c = parse_condition('foreach $f; notnull($f."email")')
    assert c == A.CQuant("foreach", "f", A.CCall("notnull", (A.EField("f", ("email",)),)))
    assert parse_condition("forsome $x in [$x]; $x = 1").var == "x"


def test_count_argument_forms():
    assert parse_condition("count[$f] > 100").lhs == A.ECount("f")
    assert parse_condition("count([$m]) >= 2").lhs == A.ECount("m")
    assert parse_condition("count([{$m}]) >= 2").lhs == A.ECount("m")


def test_construction_distinct_reference():
    cp = parse_construction("^[$id]%")
    assert cp == A.CDistinctRef(DistinctT(ArrayT(Var("id"), None, flat=True)))


def test_distinct_references_read_as_the_groupby_terms():
    for text in ["($a)%", "[[$a]]%"]:
        groupby = parse_construction(f"[$a] groupby {text}").groupby
        assert parse_construction(text) == A.CDistinctRef(groupby), text
    with pytest.raises(SyntaxError_) as e:
        parse_construction('[{"a":$x}]%')
    assert "a distinct reference must be built from variables, arrays and tuples" in str(e.value)


def test_construction_groupby_with_order():
    cp = parse_construction('{"faculty":[{"ID":^[$id]%}] groupby ^[$id]% asc}')
    arr = cp.members[0][1]
    assert isinstance(arr, A.CArray)
    assert arr.order == "asc"
    assert arr.groupby == DistinctT(ArrayT(Var("id"), None, flat=True))


def test_query_with_multiple_sources():
    q = parse_query('from doc("a") $x, doc("b") $y construct {"p":$x,"q":$y}')
    assert [name for name, _ in q.sources] == ["a", "b"]
    assert q.where is None


def test_syntax_errors_carry_position():
    with pytest.raises(SyntaxError_) as e:
        parse_query('from doc( {"a":$x} construct $x')
    assert "line 1" in str(e.value)


@pytest.mark.parametrize("number", ["12", "2.5", "1e3", "0.1e1", "-0.50"])
def test_syntax_errors_quote_a_number_like_any_other_token(number):
    # as the query wrote it: `1e3` is not quoted as its Decimal text `1E+3`
    with pytest.raises(SyntaxError_) as e:
        parse_query(f'from doc("d") $x {number} construct $x')
    assert str(e.value) == f"expected 'CONSTRUCT', found '{number}' at line 1, column 18"


LEXED = (
    'from doc("d") {"k\\u0041\\n":$x_1} # note\n'
    ' construct [-1.5e+3, 10, true] where $x_1."k" != 2 and //</>=<=!=%^;.*|'
)
TOKENS = [
    ("FROM", "from", 1, 1), ("DOC", "doc", 1, 6), ("(", "(", 1, 9), ("STRING", "d", 1, 10),
    (")", ")", 1, 13), ("{", "{", 1, 15), ("STRING", "kA\n", 1, 16), (":", ":", 1, 27),
    ("VAR", "x_1", 1, 28), ("}", "}", 1, 32), ("CONSTRUCT", "construct", 2, 2),
    ("[", "[", 2, 12), ("NUMBER", Decimal("-1.5E+3"), 2, 13), (",", ",", 2, 20),
    ("NUMBER", Decimal("10"), 2, 22), (",", ",", 2, 24), ("TRUE", "true", 2, 26),
    ("]", "]", 2, 30), ("WHERE", "where", 2, 32), ("VAR", "x_1", 2, 38), (".", ".", 2, 42),
    ("STRING", "k", 2, 43), ("!=", "!=", 2, 47), ("NUMBER", Decimal("2"), 2, 50),
    ("AND", "and", 2, 52), ("//", "//", 2, 56), ("<", "<", 2, 58), ("/", "/", 2, 59),
    (">=", ">=", 2, 60), ("<=", "<=", 2, 62), ("!=", "!=", 2, 64), ("%", "%", 2, 66),
    ("^", "^", 2, 67), (";", ";", 2, 68), (".", ".", 2, 69), ("*", "*", 2, 70),
    ("|", "|", 2, 71), ("EOF", None, 2, 72),
]


def test_tokens_carry_kind_value_line_and_column():
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(LEXED)] == TOKENS
    # the end of input lies after a trailing comment
    assert tokenize('"ok" # c')[-1].col == 9


LEX_ERRORS = {
    "bad-number": ("$x = 1e", "bad number '1e' at line 1, column 6"),
    "bad-escape": ('\n  "a\\q"', "bad escape \\q at line 2, column 3"),
    "unterminated-string": ('{"abc', "unterminated string at line 1, column 2"),
    "unexpected-character": ("a @", "unexpected character '@' at line 1, column 3"),
    "dollar-without-name": ("$ x", "expected identifier after '$' at line 1, column 1"),
    # \u takes exactly four hex digits
    "bad-unicode-escape": ('"\\uZZZZ"', "bad escape \\u at line 1, column 1"),
    "short-unicode-escape": ('"\\u41"', "bad escape \\u at line 1, column 1"),
}


@pytest.mark.parametrize("text,message", LEX_ERRORS.values(), ids=LEX_ERRORS.keys())
def test_lexer_errors_carry_text_and_position(text, message):
    with pytest.raises(SyntaxError_) as e:
        tokenize(text)
    assert str(e.value) == message


def test_parse_rejects_trailing_input():
    with pytest.raises(SyntaxError_):
        parse_pattern("$x $y")


DEEP = 3000  # far past Python's recursion limit


@pytest.mark.parametrize("parse, text, what", [
    (parse_pattern, "[" * DEEP + "$x" + "]" * DEEP, "pattern"),
    (parse_condition, "(" * DEEP + "$x = 1" + ")" * DEEP, "condition"),
    (parse_construction, "[" * DEEP + "$x" + "]" * DEEP, "construction"),
    (parse_query, 'from doc("d") ' + "[" * DEEP + "$x" + "]" * DEEP + " construct 1", "query"),
])
def test_every_parse_entry_point_reports_deep_nesting_as_a_query_error(parse, text, what):
    for _ in range(2):  # a failed parse is not kept: it fails alike every time
        with pytest.raises(QueryError) as e:
            parse(text)
        assert str(e.value) == f"{what} nests too deeply to parse"


CANONICAL_QUERIES = [
    'from doc("univ") /$r"?president?":(<$po,{"ID":*}>|[$pa]) '
    'construct {"presidents":[{"role":$r,"info":$po}|^[{"role":$r,"info":$pa}]]}',
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
    'construct {"faculty":[{"ID":^[$id]%,"schools":[{"name":$n}]}] groupby ^[$id]% asc}',
    'from doc("univ") {"schools":[<$s,{"faculty":[$f]}>]} construct "result":[$s] '
    'where count[$f]>100 or (foreach $f; notnull($f."email"))',
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
    'construct {"result":[{"school":$n}]} where endWith($m,"edu") with count([$m])>=2',
    'from doc("d") $x construct $x',
]


@pytest.mark.parametrize("text", CANONICAL_QUERIES)
def test_unparse_then_parse_is_identity(text):
    q = parse_query(text)
    assert parse_query(unparse_query(q)) == q


def test_generated_queries_round_trip():
    done = 0
    seed = 0
    while done < 200:
        rng = random.Random(seed)
        seed += 1
        doc = gen_document(rng)
        vars_ = _Vars()
        pattern = gen_matching_pattern(rng, doc, vars_)
        bound = sorted(A.pattern_vars(pattern))
        construct = A.CObject(tuple((f"k{i}", A.CVarRef(v)) for i, v in enumerate(bound)))
        if not bound:
            construct = A.CLit("empty")
        q = A.QueryAst((("d", pattern),), construct, None)
        text = unparse_query(q)
        assert parse_query(text) == q, text
        # AST `==` cannot tell literal true from 1; the text can
        assert unparse_query(parse_query(text)) == text
        # the pattern alone must also survive its own round trip
        assert parse_pattern(unparse_pattern(pattern)) == pattern
        done += 1
