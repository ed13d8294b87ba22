"""End-to-end checks, one per release criterion.

Each test pairs the implementation with an independent oracle: hand-built
structures, plain-Python nested loops over the raw JSON, a blind
breadth-first search over the rewrite rules, or reference implementations of
the semantics.  The session summary printed after a run lists one PASS/FAIL
line per criterion.
"""

import json
import random

import pytest

from jpq import Engine, DocRegistry, parse_document, parse_query, serialize
from jpq.ast import derive_matching_term, pattern_vars, unparse_query
from jpq.errors import InvalidCompositionError
from jpq.matching import (
    MArray,
    MBind,
    MOption,
    MTuple,
    match_value,
    succeeded,
)
from jpq.model import get_field, preorder
from jpq.parser import parse_pattern
from jpq.rewrite import RULES, Step, Transformer, apply_rule, projected_source, replay
from jpq.terms import ArrayT, TupleT, Var, terms_match, var_set

from .conftest import FIXTURES, load_fixture
from .generators import ResultBuilder, _Vars, _same, gen_document, gen_matching_pattern
from .oracles import instantiates, render_result
from .test_engine import EX1, EX2, EX3, EX5, EX6, run
from .test_rewrite import bfs_reaches, small_search_bounds, term_universe

# the worked extraction joining president roles with school rosters
ROLES_AND_SCHOOLS = (
    '</$r"?president?":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>]), '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}>'
)


def simplify(r):
    """Collapse a match result to plain tuples/lists, keeping the first
    surviving option branch, mirroring the worked result notation."""
    if isinstance(r, MBind):
        return (r.name, r.value)
    if isinstance(r, MTuple):
        return tuple(simplify(s) for s in r.items)
    if isinstance(r, MArray):
        return [simplify(s) for s in r.items]
    if isinstance(r, MOption):
        return simplify(next(b for b in r.branches if succeeded(b)))
    raise AssertionError(f"unexpected result {r!r}")


def test_01_joint_extraction_reproduces_worked_result_structure(univ):
    result = match_value(parse_pattern(ROLES_AND_SCHOOLS), univ)

    def person(key):
        return get_field(univ, key)

    def ids(school):
        return [
            ("id3", get_field(m, "ID")) for m in get_field(school, "faculty")
        ]

    schools = get_field(univ, "schools")
    expected = (
        [
            (("r", "president"), (("p1", person("president")), ("id1", "0001"))),
            (
                ("r", "executive-vice-president"),
                (("p1", person("executive-vice-president")), ("id1", "0002")),
            ),
            (
                ("r", "vice-presidents"),
                [
                    (
                        ("p2", get_field(univ, "vice-presidents")[0]),
                        ("id2", "0003"),
                    )
                ],
            ),
        ],
        [(("n", get_field(s, "name")), ids(s)) for s in schools],
    )
    assert _same(simplify(result), expected)
    rendered = render_result(result)
    assert rendered.startswith("(")
    assert '$r -> "president"' in rendered
    assert '$n -> "Computer School"' in rendered


def test_02_enumeration_and_descent_follow_document_order(univ):
    r = match_value(parse_pattern('/$r"?president?":*'), univ)
    assert _same(
        [item.value for item in r.items],
        ["president", "executive-vice-president", "vice-presidents"],
    )
    descend = parse_pattern("//$v")
    for seed in range(100):
        doc = gen_document(random.Random(seed))
        got = [item.value for item in match_value(descend, doc).items]
        assert _same(got, list(preorder(doc)))


def test_03_presidents_array_equals_handwritten_oracle(engine):
    got = json.loads(run(engine, EX1))["presidents"]
    raw = json.loads((FIXTURES / "univ.json").read_text())
    expected = []
    for key, value in raw.items():
        if "president" not in key:
            continue
        members = value if isinstance(value, list) else [value]
        expected.extend({"role": key, "info": m} for m in members)
    assert len(expected) == 3
    assert got == expected


@pytest.mark.slow
def test_04_inferred_routes_match_worked_routes_and_blind_search(engine, monkeypatch):
    merge = [s.describe() for s in engine.plan(parse_query(EX1)).route]
    assert merge == [
        "option-tuple-distribution @ 0",
        "array-tuple-distribution @ 0/1",
        "array-flattening @ 0/1",
    ]
    group = [s.describe() for s in engine.plan(parse_query(EX2)).route]
    assert group == ["array-flattening @ 0/1", "array-tpl-folding @ root #1"]

    # oracle: a blind breadth-first search over the same rules agrees with
    # the planner on reachability for every bounded term pair
    from jpq.errors import InvalidConstructionError, SearchBoundExceededError
    from jpq.rewrite import infer_route

    small_search_bounds(monkeypatch)
    disagreements = []
    for source in term_universe():
        for target in term_universe():
            if var_set(target) - var_set(source):
                continue
            reachable = bfs_reaches(projected_source(source, target), target, depth=3)
            try:
                route = infer_route(source, target)
            except (InvalidConstructionError, SearchBoundExceededError):
                if reachable:
                    disagreements.append((source, target))
                continue
            got = replay(projected_source(source, target), route)[-1]
            if not terms_match(got, target):
                disagreements.append((source, target))
    assert disagreements == []


def test_05_restructuring_conserves_elements_on_1000_triples():
    a, b = Var("a"), Var("b")
    distribute = TupleT((a, ArrayT(b, b)))
    flatten = ArrayT(TupleT((a, ArrayT(b, b))), TupleT((a, ArrayT(b, b))))
    fold = ArrayT(TupleT((a, b)), TupleT((a, b)))
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            r = ResultBuilder(rng).build(distribute, max_items=5)
            out = Transformer().transform(
                r, (distribute,), (Step("array-tuple-distribution", ()),)
            )
            if len(out.items) != len(r.items[1].items):
                violations += 1
        elif kind == 1:
            r = ResultBuilder(rng).build(flatten, max_items=4)
            out = Transformer().transform(r, (flatten,), (Step("array-flattening", (0, 1)),))
            if len(out.items) != sum(len(x.items[1].items) for x in r.items):
                violations += 1
        else:
            r = ResultBuilder(rng).build(fold, max_items=6)
            out = Transformer().transform(r, (fold,), (Step("array-tpl-folding", (), 1),))
            members = sum(len(cls.items[0].items) for cls in out.items)
            keys = [repr(cls.items[1].value) for cls in out.items]
            homogeneous = all(
                repr(m.items[1].value) == repr(cls.items[1].value)
                for cls in out.items
                for m in cls.items[0].items
            )
            if members != len(r.items) or len(keys) != len(set(keys)) or not homogeneous:
                violations += 1
    assert violations == 0


def test_06_self_join_equals_nested_loop_oracle_and_never_pairs_a_school_with_itself():
    raw = {
        "schools": [
            {"name": "A", "faculty": [{"ID": "0001"}, {"ID": "0002"}]},
            {"name": "B", "faculty": [{"ID": "0001"}]},
            {"name": "C", "faculty": [{"ID": "0009"}]},
        ]
    }
    reg = DocRegistry()
    reg.register("univ", parse_document(json.dumps(raw)))
    got = json.loads(run(Engine(reg), EX3))["result"]
    pairs = {(x["school1"], x["school2"]) for x in got}
    oracle = {
        (s1["name"], s2["name"])
        for s1 in raw["schools"]
        for s2 in raw["schools"]
        if s1["name"] != s2["name"]
        and {m["ID"] for m in s1["faculty"]} & {m["ID"] for m in s2["faculty"]}
    }
    assert pairs == oracle == {("A", "B"), ("B", "A")}
    assert len(got) == len(pairs)
    assert all(x["school1"] != x["school2"] for x in got)


def test_07_par_equals_merging_the_branch_queries_and_or_is_rejected(engine):
    got = json.loads(run(engine, EX5))["results"]
    object_branch = (
        'from doc("univ") </"?president?":<$p1,{"ID":$id1}>, '
        '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
        'construct {"results":[^[{"president":$p1,"school":$n}]]} '
        "where $id1 = $id3"
    )
    array_branch = (
        'from doc("univ") </"?president?":[<$p2,{"ID":$id2}>], '
        '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
        'construct {"results":[^[^[{"president":$p2,"school":$n}]]]} '
        "where $id2 = $id3"
    )
    merged = (
        json.loads(run(engine, object_branch))["results"]
        + json.loads(run(engine, array_branch))["results"]
    )
    key = lambda e: (e["president"]["ID"], e["school"])
    assert sorted(got, key=key) == sorted(merged, key=key)
    with pytest.raises(InvalidCompositionError) as e:
        engine.run(parse_query(EX5.replace("par $id2", "or $id2")))
    assert "par" in str(e.value)


def test_08_sequential_filtering_agrees_with_a_two_pass_oracle_and_is_order_sensitive():
    # schools straddling the >=2 threshold once non-edu addresses are dropped
    raw = {
        "schools": [
            {"name": "Keep", "faculty": [{"email": "a@x.edu"}, {"email": "b@x.edu"}]},
            {"name": "Straddle", "faculty": [{"email": "c@x.edu"}, {"email": "d@x.com"}]},
            {"name": "Drop", "faculty": [{"email": "e@x.com"}]},
        ]
    }
    reg = DocRegistry()
    reg.register("univ", parse_document(json.dumps(raw)))
    q = (
        'from doc("univ") {"schools":[{"name":$n,"faculty":[{"email":$m}]}]} '
        'construct {"result":[{"school":$n}]} '
        'where endWith($m, "edu") with count([{$m}]) >= 2'
    )
    got = [x["school"] for x in json.loads(run(Engine(reg), q))["result"]]
    oracle = [
        s["name"]
        for s in raw["schools"]
        if len([m for m in s["faculty"] if m["email"].endswith("edu")]) >= 2
    ]
    assert got == oracle == ["Keep"]

    # the same two conditions applied in the opposite order behave differently
    engine = Engine(DocRegistry())
    engine.registry.register("univ", load_fixture("univ.json"))
    base = (
        'from doc("univ") {"schools":[{"name":$n,"faculty":[{"ID":$id}]}]} '
        'construct {"result":[{"school":$n}]} where '
    )
    filter_then_count = run(engine, base + '$id != "0001" with count[$id] > 2')
    count_then_filter = run(engine, base + 'count[$id] > 2 with $id != "0001"')
    assert filter_then_count == '{"result":[]}'
    assert json.loads(count_then_filter)["result"] == [
        {"school": "Computer School"},
        {"school": "Math School"},
    ]


def test_09_serialization_and_unparsing_round_trip():
    for seed in range(1000):
        doc = gen_document(random.Random(seed))
        assert _same(parse_document(serialize(doc)), doc)
        assert _same(parse_document(serialize(doc, pretty=True)), doc)
    done, seed = 0, 0
    while done < 200:
        rng = random.Random(seed)
        seed += 1
        pattern = gen_matching_pattern(rng, gen_document(rng), _Vars())
        from jpq import ast as A
        bound = sorted(pattern_vars(pattern))
        construct = (
            A.CObject(tuple((f"k{i}", A.CVarRef(v)) for i, v in enumerate(bound)))
            if bound
            else A.CLit("empty")
        )
        q = A.QueryAst((("d", pattern),), construct, None)
        text = unparse_query(q)
        assert parse_query(text) == q
        # AST `==` cannot tell literal true from 1; the text can
        assert unparse_query(parse_query(text)) == text
        done += 1


def test_10_successful_matches_instantiate_their_derived_terms():
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        doc = gen_document(rng)
        pattern = gen_matching_pattern(rng, doc, _Vars())
        r = match_value(pattern, doc)
        if not succeeded(r):
            violations += 1
            continue
        if not instantiates(r, derive_matching_term(pattern)):
            violations += 1
    assert violations == 0
