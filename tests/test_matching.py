import random
from decimal import Decimal

from jpq import ast as A
from jpq.ast import derive_matching_term
from jpq.matching import (
    MArray,
    MBind,
    MFailed,
    MOption,
    MTuple,
    MUnit,
    Matcher,
    compare_atoms,
    footprint,
    instantiates,
    match_value,
    render_result,
    succeeded,
)
from jpq.model import parse_document, preorder
from jpq.parser import parse_pattern
from jpq.terms import ArrayT, TupleT, Var

from .generators import ResultBuilder, _Vars, _same, gen_document, gen_matching_pattern, gen_term


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
    assert compare_atoms("<", Decimal(2), Decimal(10))
    assert compare_atoms("<", "abc", "abd")
    assert compare_atoms("!=", True, False)
    assert not compare_atoms("=", "1", Decimal(1))


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


def test_generated_matches_instantiate_their_terms():
    for seed in range(300):
        rng = random.Random(seed)
        doc = gen_document(rng)
        p = gen_matching_pattern(rng, doc, _Vars())
        r = match_value(p, doc)
        assert succeeded(r)
        assert instantiates(r, derive_matching_term(p))


def test_footprint_collects_element_and_branch_tokens():
    item = MBind("x", "v")
    item.elem_id = 7
    opt = MOption([MUnit(), MFailed()], option_id=3, selected=0)
    tokens = footprint(MTuple([MArray([item]), opt]))
    assert 7 in tokens
    assert ("b", (3, 0)) in tokens


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
        getattr(r, "selected", None),
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
                node.selected = rng.choice([None, rng.randrange(len(node.branches))])
        for node in _composites(r):
            before, parts = _identity(node), node.parts()
            copy = node.with_parts(parts)
            assert _identity(copy) == before
            assert copy.parts() == parts
            parts.append(MUnit())
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
