import random
from collections import deque

import pytest

from jpq.errors import (
    InvalidConstructionError,
    RuleInapplicableError,
    SearchBoundExceededError,
    ShapeMismatchError,
)
from jpq.filtering import resolve_options
from jpq.matching import MArray, MBind, MTuple, instantiates
from jpq.rewrite import (
    RULES,
    Constraint,
    Step,
    Transformer,
    _Room,
    _successors,
    _TABLE,
    apply_rule,
    infer_route,
    projected_source,
    replay,
)
from jpq.terms import (
    ArrayT,
    DistinctT,
    OptionT,
    TupleT,
    Var,
    positions,
    render,
    terms_match,
    var_counts,
    var_set,
)

from .generators import ResultBuilder, _same, gen_term

A, B, C = Var("a"), Var("b"), Var("c")


def arr(elem):
    return ArrayT(elem, elem)


# -- individual rules ---------------------------------------------------------


def test_tuple_commutation_swaps_adjacent():
    t = TupleT((A, B, C))
    assert apply_rule("tuple-commutation", t, (), 1) == TupleT((A, C, B))


def test_tuple_association_groups_and_ungroups():
    t = TupleT((A, B, C))
    grouped = apply_rule("tuple-association", t, (), 1)
    assert grouped == TupleT((A, TupleT((B, C))))
    assert apply_rule("tuple-association", grouped, (), -1) == t


def test_option_commutation_and_association():
    t = OptionT((A, B, C))
    assert apply_rule("option-commutation", t, (), 0) == OptionT((B, A, C))
    grouped = apply_rule("option-association", t, (), 1)
    assert grouped == OptionT((A, OptionT((B, C))))
    assert apply_rule("option-association", grouped, (), -1) == t


def test_tuple_duplication():
    assert apply_rule("tuple-duplication", A, ()) == TupleT((A, A))


def test_flattening_marks_an_inner_array():
    t = arr(TupleT((A, arr(B))))
    out = apply_rule("array-flattening", t, (0, 1))
    assert out.elem == TupleT((A, ArrayT(B, B, flat=True)))


def test_flattening_requires_an_enclosing_array():
    with pytest.raises(RuleInapplicableError):
        apply_rule("array-flattening", arr(A), ())
    with pytest.raises(RuleInapplicableError):
        apply_rule("array-flattening", TupleT((A, arr(B))), (1,))


def test_option_tuple_distribution_pushes_head_into_branches():
    t = TupleT((A, OptionT((B, C))))
    assert apply_rule("option-tuple-distribution", t, ()) == OptionT(
        (TupleT((A, B)), TupleT((A, C)))
    )


def test_array_tuple_distribution_pairs_head_with_elements():
    t = TupleT((A, arr(B)))
    assert apply_rule("array-tuple-distribution", t, ()) == ArrayT(TupleT((A, B)), B)


def test_array_tuple_distribution_rejects_shared_variables():
    with pytest.raises(RuleInapplicableError):
        apply_rule("array-tuple-distribution", TupleT((A, arr(A))), ())


def test_distribution_accepts_wider_tuples():
    t = TupleT((A, B, OptionT((C, C))))
    out = apply_rule("option-tuple-distribution", t, ())
    assert out == OptionT((TupleT((A, B, C)), TupleT((A, B, C))))


def test_folding_builds_classes_keyed_by_component():
    t = arr(TupleT((A, B)))
    out = apply_rule("array-tpl-folding", t, (), 1)
    key = DistinctT(B)
    assert out == ArrayT(
        TupleT((ArrayT(TupleT((A, B)), t.index), key)), key, folded=True
    )


def test_folding_rejects_flat_and_non_tuple_elements():
    with pytest.raises(RuleInapplicableError):
        apply_rule("array-tpl-folding", ArrayT(TupleT((A, B)), None, flat=True), ())
    with pytest.raises(RuleInapplicableError):
        apply_rule("array-tpl-folding", arr(A), ())


# -- route inference ----------------------------------------------------------


def test_route_for_merging_option_into_one_array():
    # ($r, $po|[$pa]) reshaped so both branches contribute array elements
    source = ArrayT(
        TupleT((Var("r"), OptionT((Var("po"), arr(Var("pa")))))),
        TupleT((Var("r"), OptionT((Var("po"), arr(Var("pa")))))),
    )
    target = ArrayT(
        OptionT(
            (
                TupleT((Var("r"), Var("po"))),
                ArrayT(TupleT((Var("r"), Var("pa"))), None, flat=True),
            )
        ),
        None,
    )
    route = infer_route(source, target)
    assert [s.describe() for s in route] == [
        "option-tuple-distribution @ 0",
        "array-tuple-distribution @ 0/1",
        "array-flattening @ 0/1",
    ]
    assert terms_match(replay(projected_source(source, target), route)[-1], target)


def test_route_for_grouping_by_distinct_key():
    inner = ArrayT(Var("id"), Var("id"))
    source = ArrayT(TupleT((Var("n"), inner)), TupleT((Var("n"), inner)))
    key = DistinctT(ArrayT(Var("id"), None, flat=True))
    target = ArrayT(
        TupleT((ArrayT(Var("n"), None), key)), key, folded=True
    )
    route = infer_route(source, target)
    assert [s.describe() for s in route] == [
        "array-flattening @ 0/1",
        "array-tpl-folding @ root #1",
    ]
    assert terms_match(replay(source, route)[-1], target)


def test_unbound_target_variable_is_invalid():
    with pytest.raises(InvalidConstructionError) as e:
        infer_route(A, TupleT((A, B)))
    assert "$b" in str(e.value)


def test_unreachable_shape_is_invalid():
    # a flattened source can never lose its flattening
    source = ArrayT(ArrayT(A, A, flat=True), None)
    target = arr(arr(A))
    with pytest.raises(InvalidConstructionError):
        infer_route(source, target)


# -- oracle: blind breadth-first search over the same rule set ---------------


def blind_successors(t):
    for path, _ in positions(t):
        for rule in RULES:
            for param in range(-1, 4):
                try:
                    yield apply_rule(rule, t, path, param)
                except (RuleInapplicableError, IndexError, ValueError):
                    continue


def bfs_reaches(source, target, depth, size_cap=24):
    def size(t):
        return len(positions(t))

    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        t, d = frontier.popleft()
        if terms_match(t, target):
            return True
        if d == depth:
            continue
        for succ in blind_successors(t):
            if succ in seen or size(succ) > size_cap:
                continue
            seen.add(succ)
            frontier.append((succ, d + 1))
    return False


def term_universe():
    base = [A, B]
    two = [
        TupleT((A, B)),
        TupleT((A, A)),
        OptionT((A, B)),
        arr(A),
        arr(B),
    ]
    three = [
        arr(TupleT((A, B))),
        arr(OptionT((A, B))),
        TupleT((A, arr(B))),
        TupleT((A, OptionT((A, B)))),
        OptionT((TupleT((A, B)), arr(B))),
        arr(TupleT((A, arr(B)))),
        ArrayT(TupleT((A, B)), None, flat=False),
    ]
    return base + two + three


def test_route_search_agrees_with_blind_search():
    terms = term_universe()
    checked = 0
    for source in terms:
        for target in terms:
            if var_set(target) - var_set(source):
                continue
            checked += 1
            reachable = bfs_reaches(projected_source(source, target), target, depth=3)
            try:
                route = infer_route(source, target, max_depth=6, max_states=50_000)
            except (InvalidConstructionError, SearchBoundExceededError):
                assert not reachable, (render(source), render(target))
                continue
            got = replay(projected_source(source, target), route)[-1]
            assert terms_match(got, target), (render(source), render(target))
    assert checked > 100


# -- transformation conservation ---------------------------------------------


def leaf_count(r):
    if isinstance(r, MArray):
        return sum(leaf_count(s) for s in r.items)
    return 1


def test_distribution_preserves_element_count():
    for seed in range(350):
        rng = random.Random(seed)
        t = TupleT((A, arr(B)))
        r = ResultBuilder(rng).build(t, max_items=5)
        out = Transformer().transform(r, (t,), (Step("array-tuple-distribution", ()),))
        assert isinstance(out, MArray)
        assert len(out.items) == len(r.items[1].items)
        assert instantiates(out, apply_rule("array-tuple-distribution", t, ()))


def test_flattening_preserves_total_elements():
    t = arr(TupleT((A, arr(B))))
    for seed in range(350):
        rng = random.Random(seed)
        r = ResultBuilder(rng).build(t, max_items=4)
        expected = sum(len(item.items[1].items) for item in r.items)
        out = Transformer().transform(r, (t,), (Step("array-flattening", (0, 1)),))
        assert len(out.items) == expected
        assert instantiates(out, apply_rule("array-flattening", t, (0, 1)))


def test_folding_partitions_with_homogeneous_keys():
    t = arr(TupleT((A, B)))
    for seed in range(350):
        rng = random.Random(seed)
        r = ResultBuilder(rng).build(t, max_items=6)
        out = Transformer().transform(r, (t,), (Step("array-tpl-folding", (), 1),))
        assert out.folded
        members = 0
        seen_keys = []
        for cls in out.items:
            class_arr, key = cls.items
            members += len(class_arr.items)
            seen_keys.append(key.value)
            for member in class_arr.items:
                assert _same(member.items[1].value, key.value)
        assert members == len(r.items)
        assert len(seen_keys) == len({repr(k) for k in seen_keys})
        assert instantiates(out, apply_rule("array-tpl-folding", t, (), 1))


def test_random_steps_keep_results_conforming():
    for seed in range(200):
        rng = random.Random(seed)
        t = gen_term(rng, ["a", "b", "c"], depth=3)
        steps = []
        for path, _ in positions(t):
            for rule in RULES:
                if rule == "tuple-duplication":
                    continue
                for param in range(-1, 3):
                    try:
                        apply_rule(rule, t, path, param)
                    except (RuleInapplicableError, IndexError):
                        continue
                    steps.append(Step(rule, path, param))
        if not steps:
            continue
        step = rng.choice(steps)
        r = ResultBuilder(rng).build(t)
        out = Transformer().transform(r, (t,), (step,))
        after = apply_rule(step.rule, t, step.path, step.param)
        assert instantiates(out, after), (render(t), step)


def test_distribution_splices_a_nested_tuple_in_the_head():
    # tuple_of splices the head's nested tuple into each pair; so must the data
    for last in (OptionT((C, C)), arr(C)):
        t = TupleT((A, TupleT((B, Var("d"))), last))
        rule = "option-tuple-distribution" if isinstance(last, OptionT) else "array-tuple-distribution"
        for seed in range(20):
            r = ResultBuilder(random.Random(seed)).build(t)
            out = Transformer().transform(r, (t,), (Step(rule, ()),))
            assert instantiates(out, apply_rule(rule, t, ())), (rule, seed)


D, E = Var("d"), Var("e")
ASSOCIATIONS = {
    f"{render(t)} #{j}": (f"{name}-association", t, j)
    for name, kind in (("tuple", TupleT), ("option", OptionT))
    for t, j in [
        (kind((A, B, kind((C, D)))), -1),
        (kind((A, B, C, kind((D, E)))), -1),
        (kind((A, B, C)), 1),
        (kind((A, B, C, D)), 1),
        (kind((A, B, C, D)), 2),
    ]
}


@pytest.mark.parametrize("rule, t, j", ASSOCIATIONS.values(), ids=ASSOCIATIONS.keys())
def test_association_keeps_results_conforming(rule, t, j):
    # an option's taken branch may lie on either side of the split, and
    # routes run on resolved results as well as on raw ones
    after = apply_rule(rule, t, (), j)
    for seed in range(60):
        raw = ResultBuilder(random.Random(seed)).build(t)
        for r in (raw, resolve_options(raw)):
            out = Transformer().transform(r, (t,), (Step(rule, (), j),))
            assert instantiates(out, after), (seed, r)


def test_splice_outside_the_element_term_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Transformer()._splice(arr(A), MArray([]), (1,))


# -- the rule table agrees with itself ---------------------------------------


def test_search_candidates_are_exactly_the_steps_apply_rule_accepts():
    """Route search and apply_rule read the same side conditions: with the
    search budgets wide open and duplication left out, the steps
    `_successors` yields, and the states they lead to, are exactly those
    apply_rule accepts, in canonical order."""
    wide_open = _Room(frozenset(), flat=True, fold=True)
    rng_terms = [gen_term(random.Random(seed), ["a", "b", "c"]) for seed in range(200)]
    for t in term_universe() + rng_terms:
        accepted = {}
        for path, _ in positions(t):
            for rule in RULES:
                if rule == "tuple-duplication":
                    continue
                for param in range(-1, 4) if _TABLE[rule].numbered else (0,):
                    try:
                        accepted[(rule, path, param)] = apply_rule(rule, t, path, param)
                    except RuleInapplicableError:
                        continue
        yielded = {
            (step.rule, step.path, step.param): succ
            for step, succ in _successors(t, wide_open)
        }
        assert yielded == accepted, render(t)
        order = [(RULES.index(rule), path, param) for rule, path, param in yielded]
        assert order == sorted(order), render(t)


# -- constraints: indexed footprints agree with a linear scan ------------------


def linear_allows(c: Constraint, tokens: frozenset) -> bool:
    """Reference: the required tokens held together by some footprint,
    found by scanning every footprint."""
    for covered, universe in c.option_universe:
        chosen = tokens & universe
        if chosen and not chosen <= covered:
            return True
    required = set()
    for group in c.groups:
        chosen = tokens & group
        if len(chosen) == 1:
            required |= chosen
    return not required or any(required <= fp for fp in c.footprints)


def test_indexed_allows_agrees_with_a_linear_footprint_scan():
    rng = random.Random(4)
    for _ in range(300):
        elems = list(range(rng.randint(1, 12)))
        branches = [("b", (99, i)) for i in range(rng.randint(0, 3))]
        universe = elems + branches

        def some(pool, most):
            return frozenset(rng.sample(pool, rng.randint(0, min(most, len(pool)))))

        groups = tuple(some(elems, 5) for _ in range(rng.randint(0, 3)))
        options = (
            ((some(branches, 2), frozenset(branches)),) if branches and rng.random() < 0.5 else ()
        )
        c = Constraint(tuple(some(universe, 4) for _ in range(rng.randint(0, 8))), groups, options)
        for _ in range(20):
            tokens = some(universe + [1000], 6)  # 1000 lies in no footprint
            assert c.allows(tokens) == linear_allows(c, tokens), (c, tokens)
        assert c == Constraint(c.footprints, c.groups, c.option_universe)
