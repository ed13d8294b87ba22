import io
import itertools
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
    compile_where,
    eval_builtin,
    filter_result,
    resolve_options,
)
from jpq.matching import (
    MArray,
    MBind,
    MOption,
    MTuple,
    chosen,
    match_value,
    succeeded,
)
from jpq.model import DocRegistry, get_field, parse_document, serialize
from jpq.parser import parse_condition, parse_pattern, parse_query
from jpq.rewrite import Constraint, Transformer
from jpq.terms import ArrayT, OptionT, TupleT, Var, optioned

from .generators import _same
from .test_golden import T, document_sets, gen
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
            r = engine._match(q, itertools.count(1))
            if q.where is not None:
                r = filter_result(r, q.term, compile_where(q.where, q.term))
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
    # `:explain` and two runs of EX5 in one session: parsing validates each
    # command's where clause, and planning compiles it once more, no run does
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
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(jpq.ast, "condition_scope", counted)
    assert repl(io.StringIO(session), out, err) == 0
    assert err.getvalue() == "" and out.getvalue().count('{"results":') == 2
    assert callers == {"validate_query": 3 * parts, "_part": parts}, callers


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
        _enumerator(term, {"a", "b"}, {})(MBind("a", "x"), None, None)



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


# -- key-directed array distribution -------------------------------------------


def _with_ids(r):
    """A result's shape with every element id and branch token."""
    parts = [_with_ids(p) for p in r.parts()] if hasattr(r, "parts") else getattr(r, "name", None)
    return type(r).__name__, r.elem_id, getattr(r, "branch_ids", None), parts


def _distributed(monkeypatch, reg, query, pruning):
    """The output, the constraints recorded, the transformed result with its
    ids, and the `allows` calls made, with each distributed head paired only
    with the candidates the constraints name, or with every item checked."""
    transformed, calls = [], []
    transform, allows = Transformer.transform, Constraint.allows

    def spy_transform(self, r, terms, route):
        out = transform(self, r, terms, route)
        transformed.append(_with_ids(out))
        return out

    def spy_allows(self, tokens):
        calls.append(tokens)
        return allows(self, tokens)

    with monkeypatch.context() as m:
        m.setattr(Transformer, "transform", spy_transform)
        m.setattr(Constraint, "allows", spy_allows)
        if not pruning:
            m.setattr(Constraint, "candidates", lambda self, head, ids, under: ids)
        out, constraints = _recorded(monkeypatch, reg, query, partition=True)
    return out, constraints, transformed, len(calls)


# repeated person ids, jobs naming one person twice, and jobs naming nobody
PEOPLE = [{"id": "p0", "name": "A"}, {"id": "p1", "name": "B"}, {"id": "p2", "name": "C"},
          {"id": "p1", "name": "D"}]
JOBS = [{"pid": "p1", "title": "dean"}, {"pid": "x9", "title": "chair"},
        {"pid": "p1", "title": "clerk"}, {"pid": "p0", "title": "head"}, {"pid": "p7", "title": "x"}]


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
    ],
    ids=["self-join", "self-join-with-residual", "two-documents", "with", "EX3", "EX3-6x5",
         "EX5-par", "EX5-par-6x5", "people-jobs", "people-jobs-30"],
)
def test_key_directed_distribution_records_what_the_full_scan_records(monkeypatch, query, docset):
    docs = {"d": {"xs": XS}, "p": {"xs": XS}, "q": {"ys": YS}, "people": {"ps": PEOPLE},
            "jobs": {"js": JOBS}}
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    texts.update(document_sets()[docset] if docset else {})
    reg = DocRegistry()
    for name, text in texts.items():
        reg.register(name, parse_document(text))
    out, constraints, transformed, calls = _distributed(monkeypatch, reg, query, pruning=True)
    # outputs, element ids and constraints equal, in the same order
    full = _distributed(monkeypatch, reg, query, pruning=False)
    assert (out, constraints, transformed) == full[:3]
    if query == T.EX5.text:  # an option the condition covers: every item gets the full check
        assert calls == full[3] > 0 and any(c.option_universe for c in constraints)
    else:
        assert calls < full[3]
    if docset is None and query == T.PEOPLE_JOBS.text:
        assert sorted(json.loads(out)["staff"], key=str) == sorted(
            ({"name": p["name"], "title": j["title"]} for p in PEOPLE for j in JOBS
             if p["id"] == j["pid"]),
            key=str,
        )
