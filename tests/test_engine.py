import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from jpq import Engine, DocRegistry, parse_document, parse_query, serialize
from jpq.construct import build_empty
from jpq.errors import (
    InvalidCompositionError,
    InvalidConstructionError,
    UnknownDocumentError,
)

from .generators import _same

EX1 = (
    'from doc("univ") /$r"?president?":(<$po,{"ID":*}>|[$pa]) '
    'construct {"presidents":[{"role":$r,"info":$po}|^[{"role":$r,"info":$pa}]]}'
)
EX2 = (
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
    'construct {"faculty":[{"ID":^[$id]%,"schools":[{"name":$n}]}] groupby ^[$id]% asc}'
)
EX3 = (
    'from doc("univ") {"schools":<[{"name":$n1,"faculty":[{"ID":$id1}]}],'
    '[{"name":$n2,"faculty":[{"ID":$id2}]}]>} '
    'construct {"result":[(^[{"school1":$n1,"school2":$n2}])]} '
    "where not ($n1 = $n2) and $id1 = $id2"
)
EX4 = (
    'from doc("univ") {"schools":[<$s,{"faculty":[$f]}>]} '
    'construct "result":[$s] '
    'where count[$f] > 100 or (foreach $f; notnull($f."email"))'
)
EX5 = (
    'from doc("univ") </"?president?":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>]), '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[^[{"president":$p1,"school":$n}]|'
    '^[^[{"president":$p2,"school":$n}]]]} '
    "where $id1 = $id3 par $id2 = $id3"
)
EX6 = (
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
    'construct {"result":[{"school":$n}]} '
    'where endWith($m, "edu") with count([{$m}]) >= 3'
)


def run(engine, text):
    return serialize(engine.run(parse_query(text)))


EVERY_STAGE = ("match", "filter", "project", "transform", "build")


def staged(engine, q):
    """The stage names `Engine.stages` yields for q, and the last value,
    which `run` returns."""
    names, values = zip(*engine.stages(q))
    assert serialize(engine.run(q)) == serialize(values[-1])
    return names, values[-1]


def test_roles_merge_objects_and_array_members_into_one_array(engine):
    assert run(engine, EX1) == (
        '{"presidents":['
        '{"role":"president","info":{"ID":"0001","last name":"Li",'
        '"first name":"XH","email":"xxli@123.edu"}},'
        '{"role":"executive-vice-president","info":{"ID":"0002","last name":"Feng",'
        '"firstname":"YM","email":"xxfeng@123.edu"}},'
        '{"role":"vice-presidents","info":{"ID":"0003","surname":"Zhou",'
        '"givenname":"CB","email":"cbzhou@123.edu"}}]}'
    )
    assert staged(engine, parse_query(EX1))[0] == EVERY_STAGE  # no where clause


def test_grouping_faculty_by_id_ascending(engine):
    assert run(engine, EX2) == (
        '{"faculty":['
        '{"ID":"0001","schools":[{"name":"Computer School"},{"name":"Math School"}]},'
        '{"ID":"0003","schools":[{"name":"Math School"}]},'
        '{"ID":"0012","schools":[{"name":"Computer School"}]},'
        '{"ID":"0013","schools":[{"name":"Computer School"}]},'
        '{"ID":"0014","schools":[{"name":"Math School"}]}]}'
    )


def test_self_join_finds_school_pairs_sharing_a_member(engine):
    assert run(engine, EX3) == (
        '{"result":['
        '{"school1":"Computer School","school2":"Math School"},'
        '{"school1":"Math School","school2":"Computer School"}]}'
    )


def test_self_join_at_scale_equals_a_nested_loop_over_the_raw_json():
    rng = random.Random(20)
    raw = {
        "schools": [
            {
                "name": f"School {s}",
                "faculty": [{"ID": f"{rng.randrange(600):04d}"} for _ in range(20)],
            }
            for s in range(20)
        ]
    }
    reg = DocRegistry()
    reg.register("univ", parse_document(json.dumps(raw)))
    got = Counter(
        (x["school1"], x["school2"]) for x in json.loads(run(Engine(reg), EX3))["result"]
    )
    oracle = Counter(
        (s1["name"], s2["name"])
        for s1 in raw["schools"]
        for s2 in raw["schools"]
        if s1["name"] != s2["name"]
        and any(m1["ID"] == m2["ID"] for m1 in s1["faculty"] for m2 in s2["faculty"])
    )
    assert got == oracle
    assert 0 < len(oracle) < 20 * 19


def test_quantified_disjunction_keeps_fully_emailed_school(engine):
    out = run(engine, EX4)
    assert out.startswith('{"result":[{"name":"Math School"')
    assert "Computer School" not in out


def test_parallel_branch_conditions_join_presidents_with_schools(engine):
    assert run(engine, EX5) == (
        '{"results":['
        '{"president":{"ID":"0001","last name":"Li","first name":"XH",'
        '"email":"xxli@123.edu"},"school":"Computer School"},'
        '{"president":{"ID":"0001","last name":"Li","first name":"XH",'
        '"email":"xxli@123.edu"},"school":"Math School"},'
        '{"president":{"ID":"0003","surname":"Zhou","givenname":"CB",'
        '"email":"cbzhou@123.edu"},"school":"Math School"}]}'
    )


def test_or_across_option_branches_is_rejected_with_par_hint(engine):
    bad = EX5.replace("par $id2", "or $id2")
    with pytest.raises(InvalidCompositionError) as e:
        engine.run(parse_query(bad))
    assert "par" in str(e.value)


def test_sequential_filtering_counts_only_surviving_members(engine):
    assert run(engine, EX6) == '{"result":[{"school":"Math School"}]}'
    assert staged(engine, parse_query(EX6))[0] == EVERY_STAGE


def test_filtered_out_everything_builds_the_empty_shape(engine):
    q = parse_query(
        'from doc("univ") {"schools":[{"name":$n}]} '
        'construct {"result":[{"school":$n}],"tag":"x"} where $n = "nope"'
    )
    assert serialize(engine.run(q)) == '{"result":[],"tag":"x"}'
    assert staged(engine, q)[0] == EVERY_STAGE  # the array is left empty, not failed
    # a filter that fails the whole match leaves nothing to project or transform
    q = parse_query('from doc("univ") {"president":{"ID":$i}} construct {"who":$i} where $i = "nope"')
    names, value = staged(engine, q)
    assert names == ("match", "filter", "build")
    assert serialize(value) == serialize(build_empty(q.construct)) == '{"who":null}'


def test_unmatched_pattern_builds_the_empty_shape(engine):
    q = parse_query('from doc("univ") {"provost":$p} construct {"who":$p}')
    assert serialize(engine.run(q)) == '{"who":null}'
    assert staged(engine, q)[0] == ("match", "filter", "build")


def engine_on(**docs):
    reg = DocRegistry()
    for name, text in docs.items():
        reg.register(name, parse_document(text))
    return Engine(reg)


def test_enumeration_over_a_key_value_option_binds_each_branch():
    engine = engine_on(d='{"a":1,"b":2,"c":3}')
    assert run(engine, 'from doc("d") /"a":$x|"b":$y construct [$x|$y]') == "[1,2]"


def test_a_where_clause_that_reads_no_variable_keeps_or_fails_the_whole_match():
    engine = engine_on(d='{"x":1}')
    base = 'from doc("d") {"x":$x} construct {"x":$x} where '
    assert run(engine, base + "1 = 1") == '{"x":1}'
    assert run(engine, base + "1 = 2") == '{"x":null}'


GROUPED = 'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} construct '
GROUPED_ELEMENTS = {
    "flat-class-content": (
        '{"faculty":[{"ID":^[$id]%,"schools":^[{"name":$n}]}] groupby ^[$id]%}',
        '{"faculty":[{"ID":"0001","schools":[{"name":"Computer School"},{"name":"Math School"}]},'
        '{"ID":"0012","schools":[{"name":"Computer School"}]},'
        '{"ID":"0013","schools":[{"name":"Computer School"}]},'
        '{"ID":"0003","schools":[{"name":"Math School"}]},'
        '{"ID":"0014","schools":[{"name":"Math School"}]}]}',
    ),
    "key-repeated-in-inner-object": (
        '{"faculty":[{"ID":^[$id]%,"o":{"again":^[$id]%,"schools":[{"name":$n}]}}] '
        "groupby ^[$id]% desc}",
        '{"faculty":[{"ID":"0014","o":{"again":"0014","schools":[{"name":"Math School"}]}},'
        '{"ID":"0013","o":{"again":"0013","schools":[{"name":"Computer School"}]}},'
        '{"ID":"0012","o":{"again":"0012","schools":[{"name":"Computer School"}]}},'
        '{"ID":"0003","o":{"again":"0003","schools":[{"name":"Math School"}]}},'
        '{"ID":"0001","o":{"again":"0001","schools":[{"name":"Computer School"},'
        '{"name":"Math School"}]}}]}',
    ),
    "count-beside-constant": (
        '{"faculty":[{"ID":^[$id]%,"kind":"member","n":count([$n])}] groupby ^[$id]% asc}',
        '{"faculty":[{"ID":"0001","kind":"member","n":2},{"ID":"0003","kind":"member","n":1},'
        '{"ID":"0012","kind":"member","n":1},{"ID":"0013","kind":"member","n":1},'
        '{"ID":"0014","kind":"member","n":1}]}',
    ),
    "hidden-key": (
        '{"f":[[$n]] groupby ^[$id]%}',
        '{"f":[["Computer School","Math School"],["Computer School"],["Computer School"],'
        '["Math School"],["Math School"]]}',
    ),
}


@pytest.mark.parametrize(
    "construct, expected", GROUPED_ELEMENTS.values(), ids=GROUPED_ELEMENTS.keys()
)
def test_grouped_array_elements(engine, construct, expected):
    assert run(engine, GROUPED + construct) == expected


def test_multi_document_join():
    reg = DocRegistry()
    reg.register("people", parse_document('{"ps":[{"id":"1","name":"A"},{"id":"2","name":"B"}]}'))
    reg.register("jobs", parse_document('{"js":[{"pid":"2","title":"dean"}]}'))
    e = Engine(reg)
    q = parse_query(
        'from doc("people") {"ps":[{"id":$i,"name":$n}]}, '
        'doc("jobs") {"js":[{"pid":$p,"title":$t}]} '
        'construct {"staff":[(^[{"name":$n,"title":$t}])]} where $i = $p'
    )
    assert serialize(e.run(q)) == '{"staff":[{"name":"B","title":"dean"}]}'


def test_unknown_document_is_reported(engine):
    q = parse_query('from doc("nosuch") $x construct $x')
    with pytest.raises(UnknownDocumentError):
        engine.run(q)


def test_explain_shows_term_backbone_and_route(engine):
    text = engine.explain(parse_query(EX2))
    assert "matching term: [($n,[$id])]" in text
    assert "backbone:" in text
    assert "array-flattening @ 0/1" in text
    assert "array-tpl-folding @ root #1" in text


def test_explain_without_restructuring(engine):
    text = engine.explain(parse_query('from doc("univ") {"president":$p} construct {"p":$p}'))
    assert "(no restructuring needed)" in text


EMAILS = (
    'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
    'construct {"emails":[{"email":^[$m]%,"schools":[{"name":$n}]}] groupby ^[$m]% desc}'
)


@pytest.mark.parametrize(
    "query, array", [(EX2, "faculty"), (EMAILS, "emails")], ids=["EX2", "emails"]
)
def test_a_grouped_build_works_per_class_not_per_member(monkeypatch, query, array):
    # each class's element is built from its key and member list as they
    # are: no member is recombined into a flat tuple, and the shape checks
    # count classes, not members
    import jpq.engine
    import jpq.matching

    calls, building = Counter(), []

    def counted(real):
        def call(*args):
            calls[real.__name__] += bool(building)
            return real(*args)
        return call

    reals = (jpq.matching.shaped, jpq.matching._combine)
    for module in [m for name, m in sys.modules.items() if name.startswith("jpq.")]:
        for real in reals:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted(real))
    real_build = jpq.engine.build

    def build(*args):
        building.append(True)
        try:
            return real_build(*args)
        finally:
            building.pop()

    monkeypatch.setattr(jpq.engine, "build", build)
    seen = []
    for schools in (3, 12):  # the same 5 classes, of 3 and of 12 members
        calls.clear()
        faculty = [{"ID": f"{i:04d}", "email": f"m{i}@s.edu"} for i in range(5)]
        raw = {"schools": [{"name": f"School {s}", "faculty": faculty} for s in range(schools)]}
        registry = DocRegistry()
        registry.register("univ", parse_document(json.dumps(raw)))
        classes = json.loads(run(Engine(registry), query))[array]
        assert [len(c["schools"]) for c in classes] == [schools] * 5
        seen.append(calls.copy())
    assert seen[0] == seen[1] and not seen[0]["_combine"] and seen[0]["shaped"] <= 3 * 5


# -- plan cache -----------------------------------------------------------------


@pytest.fixture
def searches(monkeypatch):
    """Counts route searches the engine starts."""
    import jpq.engine

    calls = []
    real = jpq.engine.infer_route

    def counted(source, target):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(jpq.engine, "infer_route", counted)
    return calls


def test_explain_then_run_plans_once(engine, searches):
    q = parse_query(EX5)
    engine.explain(q)
    first = run(engine, EX5)
    assert len(searches) == 1
    assert run(engine, EX5) == first
    assert len(searches) == 1


def test_a_planned_shape_is_not_replayed_again(engine, monkeypatch):
    import jpq.engine

    calls = []
    real = jpq.engine.replay

    def counted(source, route):
        calls.append(route)
        return real(source, route)

    monkeypatch.setattr(jpq.engine, "replay", counted)
    first = run(engine, EX5)
    assert len(calls) == 1
    assert run(engine, EX5) == first
    assert len(calls) == 1


def test_a_warm_run_applies_no_rule(engine, monkeypatch):
    # the plan carries the terms its route passes through; only data moves
    import jpq.rewrite

    queries = [EX1, EX2, EX3, EX4, EX5, EX6]
    first = [run(engine, text) for text in queries]
    calls = []
    real = jpq.rewrite.apply_rule

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(jpq.rewrite, "apply_rule", counted)
    assert [run(engine, text) for text in queries] == first
    assert calls == []


def test_a_warm_run_rederives_nothing(engine, monkeypatch):
    # the plan carries the compiled construction and the projection of the
    # source's subterms; a second run only moves data
    import jpq.construct
    import jpq.terms

    queries = [EX1, EX2, EX3, EX4, EX5, EX6]
    first = [run(engine, text) for text in queries]
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    reals = (jpq.construct.compile_construction, jpq.terms.projection)
    for module in [m for name, m in sys.modules.items() if name.startswith("jpq.")]:
        for real in reals:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted(real))
    assert [run(engine, text) for text in queries] == first
    assert calls == []


def test_a_warm_run_compiles_no_where_clause(engine, monkeypatch):
    # the plan carries the compiled where clause; a second run only evaluates it
    import jpq.ast
    import jpq.engine
    import jpq.filtering

    queries = [EX3, EX4, EX5, EX6]
    first = [run(engine, text) for text in queries]
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    monkeypatch.setattr(jpq.ast, "condition_scope", counted(jpq.ast.condition_scope))
    for name in ("compile_where", "_part", "_equi_joins", "_enumerator", "_predicate"):
        monkeypatch.setattr(jpq.filtering, name, counted(getattr(jpq.filtering, name)))
    monkeypatch.setattr(jpq.engine, "compile_where", jpq.filtering.compile_where)
    queries = [parse_query(text) for text in queries]  # validated before counting
    calls.clear()
    assert [serialize(engine.run(q)) for q in queries] == first
    assert calls == []


# right-hand literals whose conditions compare equal as records (`1`, `1.0`
# and `true`: `Decimal(1) == True`), and two more; on ITEMS each selects other
# items, but `1` and `1.0` the same
LITERALS = ["1", "1.0", "true", '"1"', "null"]
ITEMS = [{"n": "a", "v": 1}, {"n": "b", "v": 1.0}, {"n": "c", "v": True},
         {"n": "d", "v": "1"}, {"n": "e", "v": None}, {"n": "f", "v": 0}, {"n": "g"}]


def test_plans_differing_only_in_the_where_clause_are_kept_apart():
    reg = DocRegistry()
    reg.register("d", parse_document(json.dumps({"xs": ITEMS})))
    query = 'from doc("d") {"xs":[{"n":$n,"v":$v}]} construct {"r":[$n]} where $v = '
    engine, outputs = Engine(reg), []
    for literal in LITERALS * 2:
        got = run(engine, query + literal)
        assert got == run(Engine(reg), query + literal)
        oracle = [x["n"] for x in ITEMS if "v" in x and _same(x["v"], json.loads(literal))]
        assert json.loads(got) == {"r": oracle}, literal
        outputs.append(got)
    assert len(set(outputs)) == len(LITERALS) - 1
    assert len(engine._routes) == len(LITERALS)


SHARED_BACKBONES = [
    ('{"a":[$n]}', '{"b":[$n]}'),
    ('{"k":1,"v":[$n]}', '{"k":2,"v":[$n]}'),
]


@pytest.mark.parametrize("one, other", SHARED_BACKBONES)
def test_constructions_sharing_a_backbone_get_their_own_builders(engine, searches, one, other):
    source = 'from doc("univ") {"schools":[{"name":$n}]} construct '
    names = json.dumps(["Computer School", "Math School"], separators=(",", ":"))
    want = {c: c.replace("[$n]", names) for c in (one, other)}
    for order in ((one, other), (other, one)):
        fresh = Engine(engine.registry)
        for c in order * 2:
            assert run(fresh, source + c) == want[c]
    assert len(searches) == 2  # one search per engine: the shape is shared


def test_a_shape_is_planned_per_projected_source_and_backbone(engine, searches):
    # the second query binds $m too; projected onto the backbone it is EX2's
    with_email = EX2.replace('{"ID":$id}', '{"ID":$id,"email":$m}')
    plain, wider = engine.explain(parse_query(EX2)), engine.explain(parse_query(with_email))
    assert len(searches) == 1
    assert "matching term: [($n,[$id])]" in plain
    assert "matching term: [($n,[($id,$m)])]" in wider
    assert plain.split("\n")[1:] == wider.split("\n")[1:]


def test_a_failing_construction_fails_alike_every_time(engine, searches):
    q = parse_query('from doc("univ") {"schools":[{"name":$n}]} construct {"x":$n}')
    errors = []
    for _ in range(2):
        with pytest.raises(InvalidConstructionError) as e:
            engine.run(q)
        errors.append(str(e.value))
    assert errors[0] == errors[1] == "invalid construction: no rule sequence turns [$n] into $n"


def test_the_route_cache_keeps_at_most_its_bound(engine, searches, monkeypatch):
    import jpq.engine

    monkeypatch.setattr(jpq.engine, "ROUTE_CACHE_SIZE", 2)
    shapes = [EX1, EX2, EX6]
    for text in shapes:
        run(engine, text)
    assert len(engine._routes) == 2
    run(engine, EX6)
    assert len(searches) == 3
    run(engine, EX1)  # the least recently used shape was dropped
    assert len(searches) == 4
    assert len(engine._routes) == 2


def test_reimporting_the_package_frees_the_old_one():
    # a reloaded package must not stay pinned by caches outside it, such as
    # typing's cache of Union aliases
    script = (
        "import gc, sys, weakref\n"
        "import jpq\n"
        "old = weakref.ref(sys.modules['jpq.ast'].StringPredicate)\n"
        "for name in [n for n in sys.modules if n == 'jpq' or n.startswith('jpq.')]:\n"
        "    del sys.modules[name]\n"
        "import jpq\n"
        "gc.collect()\n"
        "sys.exit(0 if old() is None else 1)\n"
    )
    src = pathlib.Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert proc.returncode == 0


# -- identities -------------------------------------------------------------------


def test_restructuring_never_mints_a_matched_id(engine, monkeypatch):
    # a run that has matched about a million elements: a fold class minted
    # with a matched element's id would stand for that element in the join
    # constraints array distribution checks
    import jpq.engine
    from jpq.matching import Matcher
    from jpq.rewrite import Transformer

    matched, minted = [], []

    class LargeRunMatcher(Matcher):
        def __init__(self, *args):
            super().__init__(*args)
            for _ in range(999_995):
                super().fresh_id()

        def fresh_id(self):
            matched.append(super().fresh_id())
            return matched[-1]

    real_mint = Transformer.fresh_id

    def mint(self):
        minted.append(real_mint(self))
        return minted[-1]

    expected = run(engine, EX2)
    monkeypatch.setattr(jpq.engine, "Matcher", LargeRunMatcher)
    monkeypatch.setattr(Transformer, "fresh_id", mint)
    assert run(engine, EX2) == expected
    assert matched and minted
    assert not set(matched) & set(minted)


# -- the front end: one validation per query, only typed failures ----------------


def test_a_query_is_validated_once_however_often_it_is_planned(engine, monkeypatch):
    from jpq import ast as A

    calls, unparsed = [], []
    validate, unparse = A.validate_query, A.unparse_construction
    monkeypatch.setattr(A, "validate_query", lambda q: calls.append(q) or validate(q))
    parse_query.cache_clear()  # an earlier test may have parsed EX2
    q = parse_query(EX2)
    assert parse_query(EX2) is q  # a repeated text is parsed once
    engine.explain(q)
    monkeypatch.setattr(A, "unparse_construction", lambda c: unparsed.append(c) or unparse(c))
    engine.plan(q)  # a warm plan lookup reads the texts the query keeps
    engine.run(q)
    assert calls == [q]
    assert unparsed == []


def mutate(rng, text, alphabet):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.random()
        if edit < 0.5:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif edit < 0.75:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
    return text


def mutated_queries():
    """Seeded random edits of the worked examples, without end."""
    rng = random.Random(2015)
    alphabet = ["\\u", "\\u00", "\\u0041", "\\", "$", "#", '"', "0", "7", "-", ".", "e",
                "\n", " ", "{", "}", "[", "]", "(", ")", "<", ">", ":", ",", "|", "%",
                "^", "*", "/", "=", "!", ";", "x", "²"]
    examples = [EX1, EX2, EX3, EX4, EX5, EX6]
    while True:
        yield mutate(rng, rng.choice(examples), alphabet)


def test_mutated_queries_fail_only_with_typed_errors(engine):
    from jpq.ast import QueryAst
    from jpq.errors import JpqError

    def outcome(text):
        try:
            return parse_query(text)
        except JpqError as e:
            return type(e), str(e)

    parsed = 0
    for text in itertools.islice(mutated_queries(), 1500):
        first = outcome(text)
        again = outcome(text)  # a kept parse is the same object; an error is raised anew
        assert again is first if isinstance(first, QueryAst) else again == first, text
        if isinstance(first, QueryAst):
            parsed += 1
            try:
                engine.explain(first)
                engine.run(first)
            except JpqError:
                pass
    assert parsed > 100  # the edits reach planning and running, not only the lexer


def test_the_parse_cache_keeps_only_the_most_recent_texts(monkeypatch):
    from jpq import ast as A
    from jpq.parser import PARSE_CACHE_SIZE

    calls = []
    validate = A.validate_query
    monkeypatch.setattr(A, "validate_query", lambda q: calls.append(q) or validate(q))
    parse_query.cache_clear()
    texts = [f'from doc("d") $x construct {{"r{i}":$x}}' for i in range(PARSE_CACHE_SIZE + 1)]
    for text in texts:
        parse_query(text)
    assert len(calls) == PARSE_CACHE_SIZE + 1
    parse_query(texts[-1])  # kept: nothing is validated
    assert len(calls) == PARSE_CACHE_SIZE + 1
    again = parse_query(texts[0])  # the least recently used text was dropped: parsed anew
    assert len(calls) == PARSE_CACHE_SIZE + 2 and calls[-1] is again
    assert again == calls[0] and again is not calls[0]


def test_a_deeply_nested_array_pattern_costs_linear_time():
    depth = 40  # each level used to double the work: 2**40 steps
    reg = DocRegistry()
    reg.register("d", parse_document("[" * depth + "1" + "]" * depth))
    pattern = "[" * depth + "$x" + "]" * depth
    q = f'from doc("d") {pattern} construct {{"r":{pattern}}}'
    assert run(Engine(reg), q) == '{"r":' + "[" * depth + "1" + "]" * depth + "}"


def test_an_option_branch_binding_nothing_builds_its_constant():
    reg = DocRegistry()
    reg.register("d", parse_document('{"l":[[1,2],[3],{"x":7}]}'))
    q = 'from doc("d") {"l":[([*]|{"x":$x})]} construct {"r":[("array"|{"x":$x})]}'
    assert run(Engine(reg), q) == '{"r":["array","array",{"x":7}]}'


def test_a_deeply_nested_array_query_costs_linear_time_when_run_again():
    depth = 40  # the route-cache lookup used to double its work at each level
    reg = DocRegistry()
    reg.register("d", parse_document("[" * depth + "1" + "]" * depth))
    pattern = "[" * depth + "$x" + "]" * depth
    q = f'from doc("d") {pattern} construct {{"r":{pattern}}}'
    engine = Engine(reg)
    assert run(engine, q) == run(engine, q) == '{"r":' + "[" * depth + "1" + "]" * depth + "}"
