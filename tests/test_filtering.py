import json
import random

import pytest

from jpq.ast import derive_matching_term
from jpq.engine import Engine
from jpq.errors import InvalidCompositionError, ShapeMismatchError, TypeError_
from jpq.filtering import (
    _Enumerator,
    eval_builtin,
    filter_result,
    resolve_options,
)
from jpq.matching import (
    MArray,
    MBind,
    MOption,
    MTuple,
    match_value,
    succeeded,
)
from jpq.model import DocRegistry, get_field, parse_document, serialize
from jpq.parser import parse_condition, parse_pattern, parse_query
from jpq.terms import ArrayT, OptionT, TupleT, Var

from .generators import _same

SCHOOLS = '{"schools":[{"name":$n,"faculty":[{"ID":$id}]}]}'


def filtered(pattern, cond, doc, constraints=None):
    p = parse_pattern(pattern)
    source = derive_matching_term(p)
    r = match_value(p, doc)
    return filter_result(r, source, parse_condition(cond), constraints)


def binds(r):
    out = []

    def walk(x):
        if isinstance(x, MBind):
            out.append((x.name, x.value))
        elif isinstance(x, (MTuple, MArray)):
            for s in x.items:
                walk(s)
        elif isinstance(x, MOption):
            for b in x.branches:
                if succeeded(b):
                    walk(b)

    walk(r)
    return out


def school_view(r):
    """[(name, [ids])] as plain strings, one entry per surviving school."""
    out = []
    for school in r.items:
        name, faculty = school.items
        out.append((name.value, [m.value for m in faculty.items]))
    return out


def test_equality_prunes_members_and_their_schools(univ):
    r = filtered(SCHOOLS, '$id = "0003"', univ)
    assert _same(school_view(r), [("Math School", ["0003"])])


def test_inequality_keeps_every_school(univ):
    r = filtered(SCHOOLS, '$id != "0001"', univ)
    assert _same(school_view(r), [
        ("Computer School", ["0012", "0013"]),
        ("Math School", ["0003", "0014"]),
    ])


def test_condition_on_outer_variable_keeps_members_intact(univ):
    r = filtered(SCHOOLS, '$n = "Math School"', univ)
    assert _same(school_view(r), [("Math School", ["0001", "0003", "0014"])])


def test_field_access_reaches_into_bound_objects(univ):
    p = '{"schools":[{"name":$n,"faculty":[$f]}]}'
    r = filtered(p, 'notnull($f."email")', univ)
    names = [school.items[0].value for school in r.items]
    sizes = [len(school.items[1].items) for school in r.items]
    assert _same(names, ["Computer School", "Math School"])
    assert sizes == [2, 3]  # the member without an email drops out


def test_string_builtins():
    a, b = "xxli@123.edu", "123.edu"
    assert eval_builtin("endWith", [a, b])
    assert not eval_builtin("startWith", [a, b])
    assert eval_builtin("contains", [a, "@"])
    assert eval_builtin("notnull", [a])
    assert not eval_builtin("notnull", [None])
    with pytest.raises(TypeError_):
        eval_builtin("frobnicate", [a])


def test_builtin_condition_filters_elements(univ):
    p = '{"schools":[{"faculty":[{"email":$e}]}]}'
    r = filtered(p, 'endWith($e, "math.123.edu")', univ)
    emails = [b for _, b in binds(r)]
    assert _same(emails, ["xxli@math.123.edu", "cbzhou@math.123.edu", "zhao@math.123.edu"])


def test_count_ranges_over_the_innermost_array(univ):
    p = '{"schools":[{"name":$n,"faculty":[{"ID":$id,"email":*}]}]}'
    r = filtered(p, "count[$id] > 2", univ)
    # only Math School has more than two members with an email
    assert _same(school_view(r), [("Math School", ["0001", "0003", "0014"])])


def test_count_over_outer_array_counts_schools(univ):
    r = filtered(SCHOOLS, "count[$n] = 2", univ)
    assert len(r.items) == 2
    assert not succeeded(filtered(SCHOOLS, "count[$n] > 2", univ))


def test_count_of_scalar_binding_is_an_error(univ):
    with pytest.raises(TypeError_):
        filtered('{"president":{"ID":$i}}', "count[$i] > 0", univ)


def test_unbound_condition_variable_is_an_error(univ):
    with pytest.raises(TypeError_):
        filtered(SCHOOLS, '$ghost = "x"', univ)


def test_foreach_is_vacuously_true_on_empty_ranges():
    doc = parse_document('{"xs":[{"k":"a","ys":[]},{"k":"b","ys":[1,2]}]}')
    p = '{"xs":[{"k":$k,"ys":[$y]}]}'
    r = filtered(p, "foreach $y; $y > 1", doc)
    # "a" has no elements (holds vacuously); "b" has y=1 (fails)
    assert _same([b for n, b in binds(r) if n == "k"], ["a"])


def test_forsome_needs_a_witness():
    doc = parse_document('{"xs":[{"k":"a","ys":[]},{"k":"b","ys":[1,2]}]}')
    p = '{"xs":[{"k":$k,"ys":[$y]}]}'
    r = filtered(p, "forsome $y; $y > 1", doc)
    assert _same([b for n, b in binds(r) if n == "k"], ["b"])


def test_quantifier_range_annotation_must_repeat_the_variable(univ):
    r = filtered(SCHOOLS, 'forsome $id in [$id]; $id = "0012"', univ)
    assert _same(school_view(r), [("Computer School", ["0001", "0012", "0013"])])


def test_par_merges_independent_survivor_sets(univ):
    left, right = '$id = "0012"', '$id = "0014"'
    both = filtered(SCHOOLS, f"{left} par {right}", univ)
    # oracle: each side filtered alone, survivors merged branchwise
    alone_l = {repr(b) for b in binds(filtered(SCHOOLS, left, univ))}
    alone_r = {repr(b) for b in binds(filtered(SCHOOLS, right, univ))}
    assert {repr(b) for b in binds(both)} == alone_l | alone_r
    assert school_view(both) == [
        ("Computer School", ["0012"]),
        ("Math School", ["0014"]),
    ]


def test_par_sides_filter_only_the_arrays_they_mention(univ):
    # the right side never mentions $id, so it rescues the school element but
    # does not endorse any of its members
    both = filtered(SCHOOLS, '$id = "0012" par $n = "Math School"', univ)
    assert school_view(both) == [
        ("Computer School", ["0012"]),
        ("Math School", []),
    ]


def test_par_side_with_no_matches_contributes_nothing(univ):
    r = filtered(SCHOOLS, '$id = "0012" par $id = "9999"', univ)
    assert _same(school_view(r), [("Computer School", ["0012"])])


def test_failing_scalar_condition_fails_the_whole_result(univ):
    r = filtered('{"president":{"ID":$i}}', '$i = "9999"', univ)
    assert not succeeded(r)


def test_with_applies_conditions_in_order(univ):
    first_then_count = filtered(SCHOOLS, '$id != "0001" with count[$id] > 2', univ)
    count_then_first = filtered(SCHOOLS, 'count[$id] > 2 with $id != "0001"', univ)
    assert school_view(first_then_count) == []
    assert school_view(count_then_first) == [
        ("Computer School", ["0012", "0013"]),
        ("Math School", ["0003", "0014"]),
    ]


def test_or_across_option_branches_suggests_par(univ):
    p = '{"president":({"ID":$a}|{"email":$b})}'
    with pytest.raises(InvalidCompositionError) as e:
        filtered(p, '$a = "0001" or $b = "none"', univ)
    assert "par" in str(e.value)


def test_a_range_cannot_also_be_read_elementwise(univ):
    for cond in ('count[$id] > 1 and $id = "0001"', 'count[$id] > 1 and not ($id = "0001")',
                 'count[$n] > 1 and $id = "0001"'):
        with pytest.raises(InvalidCompositionError) as e:
            filtered(SCHOOLS, cond, univ)
        assert "with" in str(e.value), cond
    # what a quantifier reads per item of its range, and what lies outside
    # every range, may sit beside a count
    r = filtered(SCHOOLS, 'forsome $n; $id = "0003"', univ)
    assert _same([name for name, _ in school_view(r)], ["Computer School", "Math School"])
    r = filtered(SCHOOLS, 'count[$id] > 2 or (forsome $id; $id = "0012")', univ)
    assert _same(school_view(r), [("Computer School", ["0001", "0012", "0013"]),
                                  ("Math School", ["0001", "0003", "0014"])])
    r = filtered(SCHOOLS, 'count[$id] > 2 and $n = "Math School"', univ)
    assert _same(school_view(r), [("Math School", ["0001", "0003", "0014"])])


def test_or_within_one_branch_is_fine(univ):
    r = filtered(SCHOOLS, '$id = "0012" or $id = "0013"', univ)
    assert _same(school_view(r), [("Computer School", ["0012", "0013"])])


def test_filter_empties_unsatisfied_option_branch(univ):
    p = '{"president":({"email":$a}|{"ID":$b})}'
    r = filtered(p, '$a = "nope"', univ)
    assert succeeded(r)  # the $b branch is untouched
    resolved = resolve_options(r)
    assert resolved.selected == 1
    assert _same(binds(resolved), [("b", "0001")])


def test_resolve_options_prefers_the_first_surviving_branch(univ):
    p = '{"president":({"email":$a}|{"ID":$b})}'
    r = resolve_options(match_value(parse_pattern(p), univ))
    assert r.selected == 0
    assert _same(binds(r), [("a", "xxli@123.edu")])


# -- oracle: nested-loop evaluation over flat assignments ---------------------


def gen_nested_doc(rng):
    letters = "abc"
    xs = []
    for _ in range(rng.randint(0, 4)):
        k = rng.choice(letters)
        ys = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        xs.append({"k": k, "ys": ys})
    import json

    return parse_document(json.dumps({"xs": xs}))


def oracle_filter(doc, holds):
    """Nested-loop reference: keep each x with some satisfying y, and within
    it each satisfying y."""
    out = []
    for x in get_field(doc, "xs"):
        k = get_field(x, "k")
        ys = [y for y in get_field(x, "ys") if holds(k, y)]
        if ys:
            out.append((k, ys))
    return out


@pytest.mark.parametrize(
    "cond,holds",
    [
        ('$k = $y', lambda k, y: k == y),
        ('$k != $y', lambda k, y: k != y),
        ('$y = "a" or $k = "c"', lambda k, y: y == "a" or k == "c"),
        ('$y = "a" and not $k = "a"', lambda k, y: y == "a" and k != "a"),
    ],
)
def test_filtering_agrees_with_nested_loop_oracle(cond, holds):
    p = '{"xs":[{"k":$k,"ys":[$y]}]}'
    c = parse_condition(cond)
    pattern = parse_pattern(p)
    source = derive_matching_term(pattern)
    for seed in range(150):
        rng = random.Random(seed)
        doc = gen_nested_doc(rng)
        r = filter_result(match_value(pattern, doc), source, c)
        expected = oracle_filter(doc, holds)
        if not expected:
            assert not succeeded(r) or not r.items
            continue
        got = [
            (x.items[0].value, [y.value for y in x.items[1].items])
            for x in r.items
        ]
        assert _same(got, expected), serialize(doc)


@pytest.mark.parametrize(
    "term",
    [
        TupleT((Var("a"), Var("b"))),
        OptionT((Var("a"), Var("b"))),
        ArrayT(Var("a"), Var("a")),
    ],
    ids=["tuple", "option", "array"],
)
def test_enumerator_rejects_a_result_of_the_wrong_shape(term):
    # a checked error, not an assert that python -O would strip
    with pytest.raises(ShapeMismatchError):
        _Enumerator({"a", "b"}, {}, None).run(term, MBind("a", "x"), ())



# -- hash-partitioned joins -------------------------------------------------------

# join keys equal across spellings (1 and 1.0, objects alike), apart across
# kinds ("1", true, 1), null, and NaN, which equals nothing, not even itself
EDGE_KEYS = [1, 1.0, "1", True, None, float("nan"), {"a": 1}, {"a": 1.0}, {"a": "1"}, 1]


def _recorded(monkeypatch, reg, query, partition):
    """The output and the constraints a run records, with the hash partition
    or with every assignment pair formed by the nested loop."""
    import jpq.engine
    import jpq.filtering

    seen = []

    def spy(r, source, c, constraints):
        out = filter_result(r, source, c, constraints)
        seen.extend(constraints)
        return out

    with monkeypatch.context() as m:
        m.setattr(jpq.engine, "filter_result", spy)
        if not partition:
            m.setattr(jpq.filtering, "_equi_joins", lambda c, needed, source: ())
        out = serialize(Engine(reg).run(parse_query(query)))
    return out, seen


XS = [{"n": f"x{i}", "k": k} for i, k in enumerate(EDGE_KEYS)]
YS = [{"n": f"y{i}", "k": k} for i, k in enumerate(EDGE_KEYS)][::-1]
SELF_JOIN = (
    'from doc("d") {"xs":<[{"n":$n1,"k":$k1}],[{"n":$n2,"k":$k2}]>} '
    'construct {"r":[^[{"a":$n1,"b":$n2}]]} where '
)


@pytest.mark.parametrize(
    "docs,query,left,right,residual",
    [
        ({"d": {"xs": XS}}, SELF_JOIN + "$k1 = $k2", XS, XS, lambda a, b: True),
        (
            {"d": {"xs": XS}},
            SELF_JOIN + "not ($n1 = $n2) and $k2 = $k1",
            XS,
            XS,
            lambda a, b: a != b,
        ),
        (
            {"p": {"xs": XS}, "q": {"ys": YS}},
            'from doc("p") {"xs":[{"n":$n1,"k":$k1}]}, doc("q") {"ys":[{"n":$n2,"k":$k2}]} '
            'construct {"r":[^[{"a":$n1,"b":$n2}]]} where $k1 = $k2',
            XS,
            YS,
            lambda a, b: True,
        ),
    ],
    ids=["self-join", "self-join-with-residual", "two-documents"],
)
def test_partitioned_join_records_what_the_nested_loop_records(
    monkeypatch, docs, query, left, right, residual
):
    reg = DocRegistry()
    for name, doc in docs.items():
        reg.register(name, parse_document(json.dumps(doc)))
    out, constraints = _recorded(monkeypatch, reg, query, partition=True)
    # footprints, groups and options equal and in the same order
    assert (out, constraints) == _recorded(monkeypatch, reg, query, partition=False)
    got = sorted((x["a"], x["b"]) for x in json.loads(out)["r"])
    assert got == sorted(
        (a["n"], b["n"])
        for a in left
        for b in right
        if _same(a["k"], b["k"]) and residual(a["n"], b["n"])
    )
    assert not any("5" in a + b for a, b in got)  # NaN pairs with nothing
