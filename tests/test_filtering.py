import io
import json
import random
import sys
from collections import Counter

import pytest

from jpq.ast import derive_matching_term
from jpq.engine import Engine
from jpq.errors import InvalidCompositionError, ShapeMismatchError, TypeError_
from jpq.filtering import (
    _enumerator,
    _predicate,
    compile_where,
    filter_result,
    resolve_options,
)
from jpq.matching import (
    MArray,
    MBind,
    MOption,
    MTuple,
    chosen,
    footprint,
    match_value,
    shaped,
    succeeded,
)
from jpq.model import BUILTINS, COMPARISONS, DocRegistry, get_field, parse_document, serialize
from jpq.parser import parse_condition, parse_pattern, parse_query
from jpq.rewrite import Constraint, Step, Transformer, replay
from jpq.terms import ArrayT, OptionT, TupleT, Var, optioned

from . import stages
from .generators import _same
from .support import DUPLICATED, REPEATED, REPEATED_WHERES, T, gen
from .test_golden import document_sets
from .test_matching import _options

SCHOOLS = '{"schools":[{"name":$n,"faculty":[{"ID":$id}]}]}'


def filtered(pattern, cond, doc, constraints=None):
    p = parse_pattern(pattern)
    source = derive_matching_term(p)
    r = match_value(p, doc)
    return filter_result(r, source, compile_where(parse_condition(cond), source), constraints)


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
    call = {name: fn for name, (_, fn) in BUILTINS.items()}
    assert call["endWith"](a, b)
    assert not call["startWith"](a, b)
    assert call["contains"](a, "@")
    assert call["notnull"](a)
    assert not call["notnull"](None)
    with pytest.raises(TypeError_, match="unknown function 'frobnicate'"):
        parse_query('from doc("d") {"e":$e} construct {"e":$e} where frobnicate($e)')


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


OPTION_AND_Z = 'from doc("d") <{"a":($x|$y)}, {"b":$z}> construct {"z":$z} where '


@pytest.mark.parametrize(
    "where,message",
    [
        ("($x = 1 or $y = 2) with ($z = 1 par ($z = 2 with $z = 3))",
         "$x and $y live in different option branches"),
        ("($z = 1 par ($z = 2 with $z = 3)) with ($x = 1 or $y = 2)",
         "'with' cannot be nested under 'par'"),
        ("not ($z = 1 par $z = 2) with ($z = 1 par ($z = 2 with $z = 3))",
         "'par' cannot be nested under 'and', 'or', 'not' or a quantifier"),
    ],
)
def test_composition_errors_keep_their_stage_order(where, message):
    # the stages are taken apart one by one: a later stage's error never
    # hides an earlier stage's
    with pytest.raises(InvalidCompositionError) as e:
        parse_query(OPTION_AND_Z + where)
    assert message in str(e.value)


def test_or_within_one_branch_is_fine(univ):
    r = filtered(SCHOOLS, '$id = "0012" or $id = "0013"', univ)
    assert _same(school_view(r), [("Computer School", ["0012", "0013"])])


def test_filter_empties_unsatisfied_option_branch(univ):
    p = '{"president":({"email":$a}|{"ID":$b})}'
    r = filtered(p, '$a = "nope"', univ)
    assert succeeded(r)  # the $b branch is untouched
    resolved = resolve_options(r, parse_pattern(p).term, optioned(parse_pattern(p).term))
    assert chosen(resolved) == 1
    assert _same(binds(resolved), [("b", "0001")])


def test_resolve_options_prefers_the_first_surviving_branch(univ):
    p = '{"president":({"email":$a}|{"ID":$b})}'
    pattern = parse_pattern(p)
    r = resolve_options(match_value(pattern, univ), pattern.term, optioned(pattern.term))
    assert chosen(r) == 0
    assert _same(binds(r), [("a", "xxli@123.edu")])


def test_resolved_options_keep_exactly_one_branch():
    # every benchmark template, on the fixture and on seeded documents
    engine = Engine(DocRegistry())
    sets = document_sets()
    for set_name, docs in sets.items():
        for name, text in docs.items():
            engine.registry.register(f"{set_name}/{name}", parse_document(text))
    options = 0
    for template in T.ALL:
        for set_name, docs in sets.items():
            if set(docs) != set(template.docs):
                continue
            q = parse_query(template.query({d: f"{set_name}/{d}" for d in docs}))
            r = next(r for stage, r in engine.stages(q) if stage == "filter")
            for opt in _options(resolve_options(r, q.term, optioned(q.term))):
                options += 1
                assert sum(map(succeeded, opt.branches)) == 1, template.name
                assert succeeded(opt.branches[chosen(opt)])
    assert options


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


def oracle_ranges(doc, holds):
    """Nested-loop reference for conditions over the ys range: keep each x
    whose ys satisfy the condition, with its ys whole."""
    out = []
    for x in get_field(doc, "xs"):
        k, ys = get_field(x, "k"), get_field(x, "ys")
        if holds(k, ys):
            out.append((k, ys))
    return out


def assert_agrees(cond, oracle):
    """On 150 seeded nested documents, the filter keeps the (k, ys) pairs
    `oracle(doc)` keeps."""
    pattern = parse_pattern('{"xs":[{"k":$k,"ys":[$y]}]}')
    source = derive_matching_term(pattern)
    c = compile_where(parse_condition(cond), source)
    for seed in range(150):
        rng = random.Random(seed)
        doc = gen_nested_doc(rng)
        r = filter_result(match_value(pattern, doc), source, c)
        expected = oracle(doc)
        if not expected:
            assert not succeeded(r) or not r.items
            continue
        got = [
            (x.items[0].value, [y.value for y in x.items[1].items])
            for x in r.items
        ]
        assert _same(got, expected), serialize(doc)


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
    assert_agrees(cond, lambda doc: oracle_filter(doc, holds))


@pytest.mark.parametrize(
    "cond,holds",
    [
        ("count[$y] > 1", lambda k, ys: len(ys) > 1),
        ("foreach $y; $y = $k", lambda k, ys: all(y == k for y in ys)),
        ("forsome $y; $y != $k", lambda k, ys: any(y != k for y in ys)),
        ('count[$y] = 0 or (forsome $y; $y = "a")', lambda k, ys: not ys or "a" in ys),
    ],
)
def test_ranges_agree_with_nested_loop_oracle(cond, holds):
    assert_agrees(cond, lambda doc: oracle_ranges(doc, holds))


@pytest.mark.parametrize("template", ["EX3", "EX4", "EX6"])
def test_the_filter_does_no_per_result_term_walk(monkeypatch, template):
    # the where clause is compiled against the matching term once per plan,
    # so no run of the plan, the first or a warm one, walks a term in the filter
    import jpq.engine
    import jpq.terms

    real, calls, per_run = jpq.terms.var_set, [], []

    def counted(t):
        calls.append(t)
        return real(t)

    def spy(r, source, where, constraints):
        before = len(calls)
        out = filter_result(r, source, where, constraints)
        per_run.append(len(calls) - before)
        return out

    for module in [m for name, m in sys.modules.items() if name.startswith("jpq.")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(jpq.engine, "filter_result", spy)
    query = parse_query(getattr(T, template).text)
    reg = DocRegistry()
    reg.register("univ", parse_document(gen.dump(gen.univ(random.Random(7), 20, 20))))
    engine = Engine(reg)
    engine.run(query)
    engine.run(query)
    assert per_run == [0, 0], per_run


def test_a_kept_plan_scopes_each_par_part_once(monkeypatch, tmp_path):
    # `:explain` and two runs of EX5 in one session: parsing the text once
    # validates its where clause, and planning compiles it once more; neither
    # the repeated commands nor the runs do
    import jpq.ast
    from jpq.cli import repl

    real, callers = jpq.ast.condition_scope, Counter()

    def counted(c, source):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(c, source)

    (tmp_path / "univ.json").write_text(gen.dump(gen.univ(random.Random(7), 4, 5)))
    text = T.EX5.query({"univ": "univ"})
    session = f":load univ {tmp_path / 'univ.json'}\n:explain {text}\n:run {text}\n:run {text}\n"
    parts = sum(len(stage) for stage in jpq.ast.where_stages(parse_query(text).where))
    assert parts == 2
    parse_query.cache_clear()  # the session parses the text anew
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(jpq.ast, "condition_scope", counted)
    assert repl(io.StringIO(session), out, err) == 0
    assert err.getvalue() == "" and out.getvalue().count('{"results":') == 2
    assert callers == {"validate_query": parts, "_part": parts}, callers


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
        _enumerator(term, {"a", "b"}, {})[0](MBind("a", "x"), None, None)



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
            # a compile helper: patched before the plan is made, as the plan
            # holds the where clause compiled
            m.setattr(jpq.filtering, "_equi_joins", lambda c, needed, source: ())
        out = serialize(Engine(reg).run(parse_query(query)))
    return out, seen


@pytest.mark.parametrize("template", ["EX3", "EX6"])
def test_a_compiled_where_clause_keeps_nothing_between_runs(monkeypatch, template):
    # one plan run on A, B, then A again records what a fresh engine records
    import jpq.engine

    registries = {}
    for size in ((3, 4), (6, 5)):
        doc = parse_document(gen.dump(gen.univ(random.Random(3), *size)))
        registries[size] = DocRegistry()
        registries[size].register("univ", doc)
    query = parse_query(getattr(T, template).text)
    seen = []

    def spy(r, source, where, constraints):
        out = filter_result(r, source, where, constraints)
        seen.append(list(constraints))
        return out

    monkeypatch.setattr(jpq.engine, "filter_result", spy)
    engine = Engine()
    for size in [(3, 4), (6, 5), (3, 4)]:
        engine.registry = registries[size]
        kept = serialize(engine.run(query)), seen.pop()
        fresh = serialize(Engine(registries[size]).run(query)), seen.pop()
        assert kept == fresh
        assert len(kept[1]) == {"EX3": 1, "EX6": 2}[template]  # a join; two `with` stages
        assert all(c.footprints and c.groups for c in kept[1]), size
    assert len(engine._routes) == 1


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
        ({"d": {"xs": XS}}, SELF_JOIN + "$k1 = $k2 and $k2 = $k1", XS, XS, lambda a, b: True),
        (
            {"d": {"xs": XS}},
            SELF_JOIN + "$k1 = $k2 and not ($n1 = $n2) and $n1 < $n2",
            XS,
            XS,
            lambda a, b: a < b,
        ),
        (
            {"d": {"xs": XS}},
            SELF_JOIN + "(not ($n1 = $n2) and $k2 = $k1) and notnull($n1)",
            XS,
            XS,
            lambda a, b: a != b,
        ),
    ],
    ids=["self-join", "self-join-with-residual", "two-documents", "repeated-join",
         "residual-after-the-join", "parenthesised"],
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


def _filtered(monkeypatch, reg, query):
    """The output, the constraints recorded, the assignment pairs a hash
    partition forms and the comparisons made while filtering: each where-clause
    comparison binds its `COMPARISONS` entry as `jpq.filtering` compiles it,
    so the spy table is patched before the plan is made."""
    import jpq.filtering

    pairs, compares = [], []
    real_pairs = jpq.filtering._pairs

    def counted(compare):
        return lambda *a: compares.append(a) or compare(*a)

    def counted_pairs(combos, subs, join):
        out = real_pairs(combos, subs, join)
        pairs.append(len(out) if join else 0)
        return out

    with monkeypatch.context() as m:
        m.setattr(jpq.filtering, "_pairs", counted_pairs)
        m.setattr(jpq.filtering, "COMPARISONS", {op: counted(f) for op, f in COMPARISONS.items()})
        out, constraints = _recorded(monkeypatch, reg, query, partition=True)
    return out, constraints, sum(pairs), len(compares)


def test_a_parenthesised_and_is_partitioned_like_a_flat_one(monkeypatch):
    # `(a and b) and c` parses as a nested `and`: its join is found all the same
    reg = DocRegistry()
    reg.register("univ", parse_document(gen.dump(gen.univ(random.Random(3), 8, 6))))
    flat, nested = (
        T.EX3.text.replace("not ($n1 = $n2) and $id1 = $id2", where)
        for where in ("not ($n1 = $n2) and $id1 = $id2 and notnull($n1)",
                      "(not ($n1 = $n2) and $id1 = $id2) and notnull($n1)")
    )
    assert T.EX3.text != flat != nested
    got = _filtered(monkeypatch, reg, nested)
    assert got == _filtered(monkeypatch, reg, flat)
    out, _, pairs, _ = got
    assert json.loads(out)["result"] and 0 < pairs < (8 * 6) ** 2


def test_the_partitioned_conjunct_is_not_tested_again(monkeypatch):
    reg = DocRegistry()
    reg.register("d", parse_document(json.dumps({"xs": XS})))
    reg.register("people", parse_document(json.dumps({"ps": PEOPLE})))
    reg.register("jobs", parse_document(json.dumps({"js": JOBS})))
    # `$i = $p` is people-jobs' whole condition: nothing is left to compare
    _, _, pairs, compares = _filtered(monkeypatch, reg, T.PEOPLE_JOBS.text)
    assert (pairs, compares) == (5, 0)
    # only `$n1 = $n2`, once per pair formed
    _, _, pairs, compares = _filtered(monkeypatch, reg, SELF_JOIN + "not ($n1 = $n2) and $k2 = $k1")
    assert 0 < pairs < len(XS) ** 2 and compares == pairs


def test_a_where_clause_that_removes_nothing_leaves_the_match_as_it_was(monkeypatch, univ):
    # EX3 on a generated university removes nothing: each faculty ID sits in
    # two schools, so the filter hands on the match result itself
    import jpq.engine

    seen = []

    def spy(r, source, where, constraints):
        before = _with_ids(r)
        out = filter_result(r, source, where, constraints)
        seen.append((out is r, _with_ids(out) == before))
        return out

    monkeypatch.setattr(jpq.engine, "filter_result", spy)
    reg = DocRegistry()
    reg.register("univ", parse_document(document_sets()["univ-6x5"]["univ"]))
    Engine(reg).run(parse_query(T.EX3.text))
    assert seen == [(True, True)]
    # one that removes items still sweeps them, and shares what it keeps whole
    p = parse_pattern(SCHOOLS)
    source = derive_matching_term(p)
    r = match_value(p, univ)
    before = _with_ids(r)
    kept = filter_result(r, source, compile_where(parse_condition("notnull($id)"), source))
    assert kept is r
    swept = filter_result(r, source, compile_where(parse_condition('$n != "Math School"'), source))
    assert _with_ids(r) == before  # the match result is not written to
    assert school_view(swept) == [("Computer School", ["0001", "0012", "0013"])]
    assert swept.items[0] is r.items[0]
    swept = filter_result(r, source, compile_where(parse_condition('$id = "0001"'), source))
    assert school_view(swept) == [("Computer School", ["0001"]), ("Math School", ["0001"])]


def test_a_partitioned_residual_keeps_its_order_and_its_errors(monkeypatch):
    # the residual runs on each pair the partition forms, in the nested loop's
    # order: the first pair to raise raises as without the partition, and a
    # conjunct after a false one is not evaluated
    import jpq.filtering

    reg = DocRegistry()
    reg.register("d", parse_document(json.dumps({"xs": XS})))
    unequal = COMPARISONS["!="]

    def run(where, partition, raising=False):
        compared = []

        def spy(a, b):
            compared.append((a, b))
            if raising and a != b:
                raise TypeError_(f"{a} against {b}")
            return unequal(a, b)

        with monkeypatch.context() as m:
            m.setattr(jpq.filtering, "COMPARISONS", {**COMPARISONS, "!=": spy})
            out, _ = _recorded(monkeypatch, reg, SELF_JOIN + where, partition)
        return out, compared

    partitioned = run("$k1 = $k2 and $n1 != $n2", partition=True)
    assert partitioned == run("$k1 = $k2 and $n1 != $n2", partition=False)
    assert partitioned[1] and len(partitioned[1]) < len(XS) ** 2
    for partition in (True, False):
        with pytest.raises(TypeError_, match="^x0 against x1$"):
            run("$k1 = $k2 and $n1 != $n2", partition, raising=True)
        out, compared = run('$k1 = $k2 and $n1 = "none" and $n1 != $n2', partition, raising=True)
        assert json.loads(out) == {"r": []} and compared == []
    # a count reading a range the environment does not bind raises
    count = _predicate(parse_condition("count[$x] > 0"), {})
    for env in ({}, {"y": 1}):
        with pytest.raises(TypeError_, match=r"^count\[\$x\] applies to arrays only$"):
            count(env)


def test_satisfied_footprints_per_template_are_pinned(monkeypatch):
    # `filtering.footprints` on the seed-3 150x40 university of
    # `test_match_value_calls_per_template_are_pinned` and a seed-3 200 x 200
    # people/jobs pair: filtering may get cheaper, not keep more or fewer
    # tuples; the items `Transformer.allowed` keeps: distribution keeps the
    # same items, however it finds them; and `rewrite.Constraint.allows.calls`:
    # none where no head picks from a group its items pick from
    reg = DocRegistry()
    reg.register("univ", parse_document(gen.dump(gen.univ(random.Random(3), 150, 40))))
    people, jobs = gen.people_jobs(random.Random(3), 200)
    reg.register("people", parse_document(gen.dump(people)))
    reg.register("jobs", parse_document(gen.dump(jobs)))
    pinned = {T.EX3: [6000], T.EX5: [4, 4], T.EX6: [4200, 150], T.PEOPLE_JOBS: [180]}
    kept = {T.EX3: 5452, T.EX5: 13, T.EX5_DEAN: 2, T.ARRAY_BRANCH: 7, T.PEOPLE_JOBS: 300}
    checks = dict.fromkeys(kept, 0)
    counts, items, calls = {}, Counter(), Counter()
    allowed, allows = Transformer.allowed, Constraint.allows

    def spy_allowed(self, *args):
        out = allowed(self, *args)
        items[template] += len(out)
        return out

    def spy_allows(self, *args):
        calls[template] += 1
        return allows(self, *args)

    monkeypatch.setattr(Transformer, "allowed", spy_allowed)
    monkeypatch.setattr(Constraint, "allows", spy_allows)
    for template in {**pinned, **kept}:
        _, constraints = _recorded(monkeypatch, reg, template.text, partition=True)
        if template in pinned:
            counts[template] = [len(c.footprints) for c in constraints]
    assert counts == pinned
    assert items == Counter(kept)
    assert calls == Counter(checks)


# -- key-directed array distribution -------------------------------------------


def _with_ids(r):
    """A result's shape with every element id and branch token."""
    parts = [_with_ids(p) for p in r.parts()] if hasattr(r, "parts") else getattr(r, "name", None)
    return type(r).__name__, r.elem_id, getattr(r, "branch_ids", None), parts


def _distributed(monkeypatch, reg, query, pruning):
    """The output, the constraints recorded, the transformed result with its
    ids, and the `allows` calls made, with each distributed head paired with
    the items `Transformer.allowed` finds, or with every item checked."""
    transformed, calls = [], []
    transform, allows = Transformer.transform, Constraint.allows

    def spy_transform(self, r, terms, route):
        out = transform(self, r, terms, route)
        transformed.append(_with_ids(out))
        return out

    def spy_allows(self, head, item):
        calls.append(item)
        return allows(self, head, item)

    with monkeypatch.context() as m:
        m.setattr(Transformer, "transform", spy_transform)
        m.setattr(Constraint, "allows", spy_allows)
        if not pruning:
            m.setattr(Transformer, "allowed", _full_scan)
        out, constraints = _recorded(monkeypatch, reg, query, partition=True)
    return out, constraints, transformed, len(calls)


# repeated person ids, jobs naming one person twice, and jobs naming nobody
PEOPLE = [{"id": "p0", "name": "A"}, {"id": "p1", "name": "B"}, {"id": "p2", "name": "C"},
          {"id": "p1", "name": "D"}]
JOBS = [{"pid": "p1", "title": "dean"}, {"pid": "x9", "title": "chair"},
        {"pid": "p1", "title": "clerk"}, {"pid": "p0", "title": "head"}, {"pid": "p7", "title": "x"}]
# a construction that repeats its variables: the copy beside the distributed head
# stands for its element only, so the head picks nothing from its items' group
DUPLICATION = ('from doc("dup") {"xs":[{"a":$a,"bs":[$b]}]} '
               'construct {"p":[^[{"a":$a,"b":$b}]],"q":[{"a":$a,"bs":[$b]}]} where ')


@pytest.mark.parametrize(
    "query,docset",
    [
        (SELF_JOIN + "$k1 = $k2", None),
        (SELF_JOIN + "not ($n1 = $n2) and $k2 = $k1", None),
        ('from doc("p") {"xs":[{"n":$n1,"k":$k1}]}, doc("q") {"ys":[{"n":$n2,"k":$k2}]} '
         'construct {"r":[^[{"a":$n1,"b":$n2}]]} where $k1 = $k2', None),
        (SELF_JOIN + "$k1 = $k2 with not ($n1 = $n2)", None),
        (T.EX3.text, "fixture"),
        (T.EX3.text, "univ-6x5"),
        (T.EX5.text, "fixture"),
        (T.EX5.text, "univ-6x5"),
        (T.PEOPLE_JOBS.text, None),
        (T.PEOPLE_JOBS.text, "people-jobs-30"),
        (DUPLICATION + 'not ($a = "q") and $b != "u"', None),
    ],
    ids=["self-join", "self-join-with-residual", "two-documents", "with", "EX3", "EX3-6x5",
         "EX5-par", "EX5-par-6x5", "people-jobs", "people-jobs-30", "duplication"],
)
def test_key_directed_distribution_records_what_the_full_scan_records(monkeypatch, query, docset):
    docs = {"d": {"xs": XS}, "p": {"xs": XS}, "q": {"ys": YS}, "people": {"ps": PEOPLE},
            "jobs": {"js": JOBS}, "dup": DUPLICATED}
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    texts.update(document_sets()[docset] if docset else {})
    reg = DocRegistry()
    for name, text in texts.items():
        reg.register(name, parse_document(text))
    out, constraints, transformed, calls = _distributed(monkeypatch, reg, query, pruning=True)
    # outputs, element ids and constraints equal, in the same order
    full = _distributed(monkeypatch, reg, query, pruning=False)
    assert (out, constraints, transformed) == full[:3]
    assert calls < full[3]
    if query.startswith(DUPLICATION):
        assert json.loads(out)["p"] == [{"a": "r", "b": "v"}]
        assert json.loads(out)["q"] == [{"a": "r", "bs": ["v"]}]
    if docset is None and query == T.PEOPLE_JOBS.text:
        assert sorted(json.loads(out)["staff"], key=str) == sorted(
            ({"name": p["name"], "title": j["title"]} for p in PEOPLE for j in JOBS
             if p["id"] == j["pid"]),
            key=str,
        )


def test_no_token_set_distribution_reads_picks_two_tokens_from_one_group(monkeypatch):
    # a footprint stops at arrays, so a head, an item or the context beside
    # them picks at most one token from each group, and no pair needs `allows`
    engine = Engine(DocRegistry())  # one engine: a query is planned once for every set
    engine.registry.register("d", parse_document(json.dumps(DUPLICATED)))
    for s, docs in document_sets().items():
        for name, text in docs.items():
            engine.registry.register(f"{s}/{name}", parse_document(text))
    queries = [t.query({d: f"{s}/{d}" for d in t.docs}) for t in (T.EX3, T.EX5, T.EX5_DEAN, T.ARRAY_BRANCH)
               for s in ("fixture", "univ-6x5")]
    queries += [T.PEOPLE_JOBS.query({d: f"people-jobs-30/{d}" for d in T.PEOPLE_JOBS.docs})]
    queries += [REPEATED + where for where in REPEATED_WHERES]
    picks, read, twice, allowed = Constraint.picks, [], [], []

    def spy_picks(self, tokens):
        p = picks(self, tokens)
        read.append(p)
        twice.extend(chosen for chosen in p.groups.values() if len(chosen) > 1)
        return p

    monkeypatch.setattr(Constraint, "picks", spy_picks)
    monkeypatch.setattr(Constraint, "allows", lambda self, *a: allowed.append(a))
    for query in queries:
        engine.run(parse_query(query))
    assert read and twice == [] and allowed == []


def _full_scan(self, head, arr):
    """`Transformer.allowed` as a scan of the whole array: every item is
    checked with `allows`, in array order."""
    heads = [c.picks(head) for c in self.constraints]
    return [item for item in arr.items
            if all(c.allows(h, c.picks(footprint(item))) for c, h in zip(self.constraints, heads))]


@pytest.mark.parametrize("cond", ["$h = $b", "not ($a = $b)", "$a = $b and $h = $a"])
def test_distribution_over_a_flattened_array_visits_every_spliced_item(monkeypatch, cond):
    # flattening the inner array repeats its enclosing tuple once per spliced
    # item, each under the tuple's element id; distributing the head over the
    # enclosing array then sees several items with one id
    pattern = parse_pattern('{"h":$h,"as":[{"a":$a,"bs":[$b]}]}')
    source = derive_matching_term(pattern)
    doc = parse_document(json.dumps({"h": "x", "as": [
        {"a": "x", "bs": ["x", "y", "x", "z"]}, {"a": "y", "bs": ["y", "x", "z"]}, {"a": "z", "bs": []},
    ]}))
    route = (Step("array-flattening", (1, 0, 1)), Step("array-tuple-distribution", ()))
    where = compile_where(parse_condition(cond), source)

    def run(allowed):
        constraints, calls, seen = [], [], []
        r = filter_result(match_value(pattern, doc), source, where, constraints)
        allows, descend = Constraint.allows, Transformer._descend

        def spy_allows(self, head, item):
            calls.append(item)
            return allows(self, head, item)

        def spy_descend(self, step, t, r, path, ctx=frozenset()):
            out = descend(self, step, t, r, path, ctx)
            if step.rule == "array-tuple-distribution" and not path:
                seen.extend(item.elem_id for item in shaped(r, t).items[-1].items)
            return out

        with monkeypatch.context() as m:
            m.setattr(Transformer, "allowed", allowed)
            m.setattr(Transformer, "_descend", spy_descend)
            m.setattr(Constraint, "allows", spy_allows)
            out = Transformer(constraints).transform(r, replay(source, route), route)
        return _with_ids(out), calls, seen

    got, want = run(Transformer.allowed), run(_full_scan)
    assert got[0] == want[0] and got[2] == want[2]  # output and ids
    _, calls, seen = want
    assert calls and len(set(seen)) < len(seen)  # constraints checked, ids repeated


def test_people_jobs_transform_grows_linearly():
    # CPU of the filter and transform stages on n and 4n people x jobs, in
    # turn, best of 5: linear work reads about 4x, and a term that reads the
    # whole people array once per job (or a join by nested loop) about 10x
    runs = {n: (Engine(stages.registry(T.PEOPLE_JOBS, str(n))), T.PEOPLE_JOBS.text)
            for n in (800, 3200)}
    engine, text = runs[800]
    assert stages.stage_times(engine, text)[1] == serialize(engine.run(parse_query(text)))
    best = stages.best_times(runs, repeat=5)
    assert best[3200]["filter"] < 6.5 * best[800]["filter"], best
    assert best[3200]["transform"] < 6.5 * best[800]["transform"], best


@pytest.mark.parametrize("template", [T.EX3, T.EX5], ids=lambda t: t.name)
def test_join_filter_and_transform_grow_linearly(template):
    # CPU of the filter and transform stages on 40x40 and 160x40 universities,
    # in turn, best of 5, where each faculty ID sits in two schools, so the
    # joined pairs grow as the faculty do.  Linear work reads 3.5-6x here;
    # work quadratic in the faculty reads 16x, and EX3's transform read 19x
    # when distribution scanned a dict view for every group
    # one engine, each size's document under its own name: the query plans once
    engine = Engine(DocRegistry())
    runs = {}
    for size in ("40x40", "160x40"):
        engine.registry.register(size, stages.registry(template, size).lookup("univ"))
        runs[size] = (engine, template.text.replace('doc("univ")', f'doc("{size}")'))
    best = stages.best_times(runs, repeat=5)
    for stage in ("filter", "transform"):
        assert best["160x40"][stage] < 10 * best["40x40"][stage], (stage, best)
