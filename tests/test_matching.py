import random
from decimal import Decimal

import pytest

from jpq import ast as A
from jpq.ast import derive_matching_term
from jpq.matching import (
    _combine,
    MArray,
    MBind,
    MFailed,
    MOption,
    MTuple,
    Matcher,
    footprint,
    match_value,
    succeeded,
)
from jpq.model import COMPARISONS, parse_document, preorder
from jpq.parser import parse_pattern, parse_query
from jpq.rewrite import compile_projection, project_result
from jpq.terms import UNIT, ArrayT, OptionT, TupleT, Var, projection, tuple_of

from .generators import (
    ResultBuilder, _Vars, _same, gen_document, gen_matching_pattern, gen_term, projected,
)
from .oracles import instantiates, render_result
from .support import T, gen


def bind_values(r):
    """All bound (name, value) pairs, document order, skipping failed branches."""
    out = []

    def walk(x):
        if isinstance(x, MBind):
            out.append((x.name, x.value))
        elif isinstance(x, MTuple):
            for s in x.items:
                walk(s)
        elif isinstance(x, MArray):
            for s in x.items:
                walk(s)
        elif isinstance(x, MOption):
            for b in x.branches:
                if succeeded(b):
                    walk(b)

    walk(r)
    return out


def test_variable_binds_whole_value(univ):
    r = match_value(parse_pattern("$x"), univ)
    assert isinstance(r, MBind) and r.value is univ


def test_object_member_takes_first_matching_pair(univ):
    r = match_value(parse_pattern('{"president":{"ID":$i}}'), univ)
    assert _same(bind_values(r), [("i", "0001")])


def test_missing_required_key_fails(univ):
    assert not succeeded(match_value(parse_pattern('{"provost":$x}'), univ))


def test_key_predicate_substring(univ):
    r = match_value(parse_pattern('{$k "?vice?": *}'), univ)
    assert _same(bind_values(r), [("k", "executive-vice-president")])


def test_enumeration_collects_in_document_order(univ):
    r = match_value(parse_pattern('/$r "?president?": *'), univ)
    assert isinstance(r, MArray)
    assert _same(
        [v for _, v in bind_values(r)],
        ["president", "executive-vice-president", "vice-presidents"],
    )


def test_enumeration_skips_non_matching_pairs(univ):
    r = match_value(parse_pattern('/$r "schools": *'), univ)
    assert _same([v for _, v in bind_values(r)], ["schools"])


def test_array_pattern_keeps_matching_elements_only(univ):
    r = match_value(parse_pattern('{"schools":[{"name":$n,"dean":{"ID":"0011"}}]}'), univ)
    assert _same(bind_values(r), [("n", "Computer School")])


def test_option_records_each_branch(univ):
    p = parse_pattern('{"president": ({"ID":$a} | [$b])}')
    r = match_value(p, univ)
    assert isinstance(r, MOption)
    assert succeeded(r.branches[0]) and not succeeded(r.branches[1])


def test_conjunction_requires_all_parts(univ):
    assert succeeded(match_value(parse_pattern('<$x, {"president":*}>'), univ))
    assert not succeeded(match_value(parse_pattern('<$x, {"provost":*}>'), univ))


def test_comparison_predicates_on_numbers():
    v = parse_document('{"sizes":[1,5,12]}')
    r = match_value(parse_pattern('{"sizes":[<$x, (> 4)>]}'), v)
    assert _same([b for _, b in bind_values(r)], [Decimal(5), Decimal(12)])


def test_compare_atoms_orders_numbers_and_strings():
    assert COMPARISONS["<"](Decimal(2), Decimal(10))
    assert COMPARISONS["<"]("abc", "abd")
    assert COMPARISONS["!="](True, False)
    assert not COMPARISONS["="]("1", Decimal(1))


def test_descendant_matching_follows_preorder():
    for seed in range(100):
        rng = random.Random(seed)
        doc = gen_document(rng)
        r = match_value(A.PDescend(A.PVar("x")), doc)
        got = [v for _, v in bind_values(r)]
        assert _same(got, list(preorder(doc)))


def test_descendant_ids_found_everywhere(univ):
    r = match_value(parse_pattern('//{"ID":$i, "email":*}'), univ)
    ids = [b for _, b in bind_values(r)]
    assert _same(ids[0], "0001") and any(_same(i, "0014") for i in ids)


def test_match_result_instantiates_derived_term(univ):
    p = parse_pattern('{"schools":[{"name":$n,"faculty":[{"ID":$id}]}]}')
    t = derive_matching_term(p)
    inner = ArrayT(Var("id"), Var("id"))
    assert t == ArrayT(TupleT((Var("n"), inner)), TupleT((Var("n"), inner)))
    assert instantiates(match_value(p, univ), t)


def test_an_option_with_every_branch_failed_instantiates_nothing():
    t = OptionT((Var("a"), Var("b")))
    assert instantiates(MOption([MFailed(), MBind("b", "1")], option_id=0), t)
    assert not instantiates(MOption([MFailed(), MFailed()], option_id=0), t)


def test_generated_matches_instantiate_their_terms():
    for seed in range(300):
        rng = random.Random(seed)
        doc = gen_document(rng)
        p = gen_matching_pattern(rng, doc, _Vars())
        r = match_value(p, doc)
        assert succeeded(r)
        assert instantiates(r, derive_matching_term(p))


def test_a_branch_binding_nothing_matches_as_the_empty_tuple():
    # the `[*]` and `//*` branches walk the document, yet bind nothing
    for text in ["([*]|$x)", "(//*|$x)", "((*|[*])|$x)", '{"a":[*]|"b":$x}']:
        p = parse_pattern(text)
        r = match_value(p, parse_document('{"a":[1,2],"b":3}' if "{" in text else "[1,2]"))
        assert instantiates(r, p.term), text
        assert isinstance(r.branches[0], MTuple) and r.branches[0].items == [], text


def test_flat_tuples_of_results_mirror_flat_tuples_of_terms():
    names = ["a", "b", "c", "d"]
    for seed in range(400):
        rng = random.Random(seed)
        build = ResultBuilder(rng)
        # a term with unit option branches, from a projection
        t = projected(gen_term(rng, names, depth=4), set(rng.sample(names, 3)))
        r = build.build(t)
        keep = set(rng.sample(names, rng.randrange(len(names) + 1)))
        project = compile_projection(t, projection(t, keep))
        assert instantiates(project_result(r, project), projected(t, keep)), seed
        slots = []
        for _ in range(rng.randrange(5)):
            pick = rng.random()
            if pick < 0.2:
                slots.append((UNIT, MTuple([])))
            elif pick < 0.4:  # a `[*]` slot holds the array it walked
                slots.append((UNIT, MArray([build.build(UNIT) for _ in range(rng.randrange(3))])))
            else:
                st = gen_term(rng, names, depth=3)
                slots.append((st, build.build(st)))
        assert instantiates(_combine(slots), tuple_of([st for st, _ in slots])), seed


def _options(r):
    """Every option under r, preorder."""
    return [node for node in _composites(r) if isinstance(node, MOption)]


def test_no_option_result_has_only_failed_branches(univ):
    # an array of documents, each matched against an option whose first branch
    # fits it and whose nested option is built for documents picked at random
    docs = [univ] + [gen_document(random.Random(seed)) for seed in range(30)]
    for seed in range(100):
        rng = random.Random(seed)
        vars_ = _Vars()
        branches = [gen_matching_pattern(rng, rng.choice(docs), vars_) for _ in range(3)]
        p = A.PArray(A.POption((branches[0], A.POption(tuple(branches[1:])))))
        r = match_value(p, docs)
        assert r.items
        assert [o for o in _options(r) if not any(map(succeeded, o.branches))] == []


def test_footprint_collects_element_and_branch_tokens():
    # a footprint holds the ids and taken branches outside the arrays under a
    # result: an array stands for its own element, not for its items
    item, arr = MBind("x", "v"), MArray([])
    item.elem_id, arr.elem_id = 7, 5
    arr.items.append(item)
    taken = MTuple([MBind("y", "w")])
    taken.elem_id = 9
    opt = MOption([taken, MFailed()], option_id=3)
    assert footprint(MTuple([arr, opt])) == {5, ("b", (3, 0)), 9}


def _composites(r):
    """r and every tuple, array and option under it, preorder."""
    if isinstance(r, (MTuple, MArray, MOption)):
        yield r
        for s in r.parts():
            yield from _composites(s)


def _identity(r):
    return (
        type(r),
        r.elem_id,
        getattr(r, "folded", None),
        getattr(r, "branch_ids", None),
    )


def test_with_parts_keeps_a_result_nodes_identity():
    for seed in range(100):
        rng = random.Random(seed)
        r = ResultBuilder(rng).build(gen_term(rng, ["a", "b", "c"], depth=4))
        for node in _composites(r):
            # vary what the builder leaves at its default
            node.elem_id = rng.choice([None, rng.randrange(1000)])
            if isinstance(node, MArray):
                node.folded = rng.random() < 0.5
            if isinstance(node, MOption):
                rng.shuffle(node.branch_ids)
        for node in _composites(r):
            before, parts = _identity(node), node.parts()
            copy = node.with_parts(parts)
            assert _identity(copy) == before
            assert copy.parts() == parts
            parts.append(MTuple([]))
            parts[0] = MFailed()
            assert _identity(node) == before and node.parts() == copy.parts()


def test_render_result_uses_worked_notation():
    r = MTuple([MBind("r", "president"), MArray([MBind("p", "x")])])
    assert render_result(r) == '($r -> "president", [$p -> "x"])'


def test_matcher_assigns_distinct_element_ids():
    v = parse_document('{"xs":[1,2,3]}')
    r = Matcher().match_value(parse_pattern('{"xs":[$x]}'), v)
    ids = [item.elem_id for item in r.items]
    assert len(set(ids)) == 3 and None not in ids


def test_an_element_takes_its_id_after_the_ids_drawn_inside_it():
    # arrays, enumerations and descendants alike: each element is matched,
    # then numbered, before the next element is matched
    def drawn(r):
        kids = r.items if isinstance(r, (MArray, MTuple)) else []
        own = [] if r.elem_id is None else [r.elem_id]
        return [i for k in kids for i in drawn(k)] + own

    for pattern, doc in [("[[$x]]", "[[1,2],[3]]"), ('/$k:[$x]', '{"a":[1],"b":[2,3]}'),
                         ("//[$x]", "[[1],[2,3]]")]:
        ids = drawn(Matcher().match_value(parse_pattern(pattern), parse_document(doc)))
        assert ids == list(range(1, len(ids) + 1)), pattern


# -- literal keys are looked up, `?` keys scanned -----------------------------


def test_a_literal_key_matches_only_that_key():
    # regex metacharacters and spaces are literal; a near miss comes first
    doc = parse_document('{"axb":1,"a.b":2,"aab":3,"a*b":4,"first  name":5,"first name":6}')
    for key, want in [("a.b", 2), ("a*b", 4), ("first name", 6)]:
        r = match_value(parse_pattern('{"%s":$v}' % key), doc)
        assert _same(bind_values(r), [("v", Decimal(want))]), key
    assert not succeeded(match_value(parse_pattern('{"a.c":$v}'), doc))


def test_a_question_mark_key_takes_the_first_fitting_pair_in_document_order():
    doc = parse_document('{"b":0,"ab":1,"acb":2,"ab2":3,"adb":4}')
    r = match_value(parse_pattern('{$k "a?b":$v}'), doc)
    assert _same(bind_values(r), [("k", "ab"), ("v", Decimal(1))])
    # a pair whose value fails passes the member on to the next fitting pair
    r = match_value(parse_pattern('{$k "a?b":<$v, (> 1)>}'), doc)
    assert _same(bind_values(r), [("k", "acb"), ("v", Decimal(2))])


def test_a_literal_key_whose_value_fails_fails_the_member(monkeypatch):
    values = []
    real = Matcher.match_value
    monkeypatch.setattr(Matcher, "match_value", lambda m, p, v: values.append(v) or real(m, p, v))
    doc = parse_document('{"a":"x","b":1,"c":2}')
    assert not succeeded(match_value(parse_pattern('{"a":(> 0)}'), doc))
    assert values == [doc, "x"]  # no other pair is tried
    r = match_value(parse_pattern('{$k "a":$v}'), doc)
    assert _same(bind_values(r), [("k", "a"), ("v", "x")])


def test_a_missing_literal_key_fails_the_object():
    doc = parse_document('{"a":1,"b":2}')
    assert succeeded(match_value(parse_pattern('{"a":$x,"b":$y}'), doc))
    assert not succeeded(match_value(parse_pattern('{"a":$x,"c":$y}'), doc))
    assert not succeeded(match_value(parse_pattern('{"c":*}'), doc))


def test_a_literal_member_tests_no_key_predicate(monkeypatch):
    calls = []
    real = A.StringPredicate.matches

    def counted(pred, name):
        calls.append(name)
        return real(pred, name)

    monkeypatch.setattr(A.StringPredicate, "matches", counted)
    doc = parse_document("{%s}" % ",".join(f'"k{i}":{i}' for i in range(50)))
    r = match_value(parse_pattern('{"k49":$v,"k0":$w}'), doc)
    assert _same(bind_values(r), [("v", Decimal(49)), ("w", Decimal(0))])
    r = match_value(parse_pattern('{"k48":$v|"k7":$w}'), doc)  # an option's branches too
    assert _same(bind_values(r), [("v", Decimal(48)), ("w", Decimal(7))])
    assert calls == []
    match_value(parse_pattern('{"k?9":$v}'), doc)
    assert calls == [f"k{i}" for i in range(10)]  # a `?` key is still scanned


# -- the shared failure and the counter the benchmark reads -----------------------


def test_every_failure_is_one_shared_result_without_an_id():
    assert MFailed() is MFailed()
    assert MFailed().elem_id is None
    with pytest.raises(AttributeError):
        MFailed().elem_id = 1
    assert match_value(parse_pattern('{"a":$x}'), parse_document("[]")) is MFailed()


def test_match_value_calls_per_template_are_pinned(monkeypatch):
    # `matching.match_value.calls` on a seed-3 150x40 university: matching
    # may get cheaper per call, but not make more or fewer calls
    doc = parse_document(gen.dump(gen.univ(random.Random(3), 150, 40)))
    pinned = {T.EX1: 20, T.EX2: 12_452, T.EMAILS_DESC: 11_852, T.ROSTER: 18_452,
              T.DESCENDANTS: 41_882, T.EX4: 6_602, T.EX6: 11_852, T.EX3: 24_904}
    calls = []
    real = Matcher.match_value
    monkeypatch.setattr(Matcher, "match_value", lambda m, p, v: calls.append(None) or real(m, p, v))
    counts = {}
    for template in pinned:
        calls.clear()
        for _, pattern in parse_query(template.query({"univ": "univ"})).sources:
            Matcher().match_value(pattern, doc)
        counts[template] = len(calls)
    assert counts == pinned
