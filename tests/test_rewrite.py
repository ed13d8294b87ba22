import random
from collections import deque
from decimal import Decimal

import pytest

from jpq.ast import condition_scope
from jpq.errors import (
    InvalidConstructionError,
    QueryError,
    RuleInapplicableError,
    SearchBoundExceededError,
    ShapeMismatchError,
)
from jpq.filtering import compile_where, filter_result, resolve_options
from jpq.matching import MArray, MBind, MTuple, footprint, succeeded
from jpq.model import key
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
    project_result,
    projection,
    projected_source,
    replay,
)
from jpq.parser import parse_condition
from jpq.terms import (
    ArrayT,
    DistinctT,
    OptionT,
    TupleT,
    Var,
    children,
    optioned,
    positions,
    render,
    replace,
    subterm,
    terms_match,
    var_counts,
    var_set,
)

from .generators import ResultBuilder, _same, gen_term
from .oracles import instantiates

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


@pytest.mark.slow
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


def reach(t, r, path):
    """The results at `path` under `r`: each element of an array on the way,
    the spliced element in place of a flat array, none past a failed branch."""
    if not path:
        return [r]
    step, rest = path[0], path[1:]
    if isinstance(t, (TupleT, OptionT)):
        sub = r.parts()[step]
        return reach(children(t)[step], sub, rest) if succeeded(sub) else []
    if isinstance(t, ArrayT) and not t.flat:
        return [x for item in r.items for x in reach(t.elem, item, rest)]
    return reach(children(t)[0], r, rest)


def flattenable(t):
    """The paths where apply_rule flattens an array of t."""
    paths = []
    for path, _ in positions(t):
        try:
            apply_rule("array-flattening", t, path)
        except RuleInapplicableError:
            continue
        paths.append(path)
    return paths


def flattening_cases(seeds):
    """(term, result, path, builder) for every path where flattening applies
    in seeded `gen_term` terms, and again once one array was flattened."""
    for seed in range(seeds):
        rng = random.Random(seed)
        t = gen_term(rng, ["a", "b", "c"], depth=4)
        for path in flattenable(t):
            builder = ResultBuilder(rng)
            yield t, builder.build(t), path, builder
            once = apply_rule("array-flattening", t, path)
            for inner in flattenable(once):
                builder = ResultBuilder(rng)
                first = Step("array-flattening", path)
                yield once, Transformer().transform(builder.build(t), (t,), (first,)), inner, builder


def test_flattening_splices_each_element_along_any_path():
    """Flattening multiplies each element of the nearest non-flat enclosing
    array by the size of the array its path reaches (once, through an option
    whose taken branch lies elsewhere); the spliced items keep their ids, and
    one with none gets a fresh id no other result holds."""
    cases = crossed_option = under_flat = 0
    for n, (t, r, path, builder) in enumerate(flattening_cases(1000)):
        arrays_at = [i for i in range(len(path)) if isinstance(subterm(t, path[:i]), ArrayT)]
        outer = max(i for i in arrays_at if not subterm(t, path[:i]).flat)
        under_flat += outer != arrays_at[-1]
        rel, elem_t = path[outer + 1:], subterm(t, path[: outer + 1])
        expected = []
        for enclosing in reach(t, r, path[:outer]):
            reached = [reach(elem_t, item, rel) for item in enclosing.items]
            crossed_option += [] in reached
            expected.append(sum(len(a[0].items) if a else 1 for a in reached))
        arrays = reach(t, r, path)
        if n % 2:  # spliced items without an id get a fresh one
            for a in arrays:
                for item in a.items:
                    item.elem_id = None
        old, taken = [item.elem_id for a in arrays for item in a.items], footprint(r)
        after = apply_rule("array-flattening", t, path)
        step = Step("array-flattening", path)
        out = Transformer(ids=iter(builder.fresh_id, None)).transform(r, (t,), (step,))
        assert instantiates(out, after), (render(t), path)
        assert [len(e.items) for e in reach(t, out, path[:outer])] == expected
        spliced = reach(after, out, path)
        ids = [item.elem_id for item in spliced]
        assert len(ids) == len(old)
        assert all(new == was for new, was in zip(ids, old) if was is not None)
        # an item shared by several elements is numbered once
        fresh = {id(item): item.elem_id for item, was in zip(spliced, old) if was is None}
        assert None not in fresh.values() and len(set(fresh.values())) == len(fresh)
        assert taken.isdisjoint(fresh.values()), (render(t), path)
        cases += 1
    assert cases > 300 and crossed_option and under_flat


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


def _reference_value_key(r):
    """A structural grouping key, kept as the reference for the classes that
    folding forms: a binding by its name and JPQ value (one NaN class), a
    composite by its kind and parts."""
    if isinstance(r, MBind):
        return ("b", r.name, key(r.value, nan_equal=True))
    if isinstance(r, MTuple):
        return ("t",) + tuple(_reference_value_key(s) for s in r.items)
    if isinstance(r, MArray):
        return ("a",) + tuple(_reference_value_key(s) for s in r.items)
    raise TypeError(f"no reference key for {r!r}")


KEY_VALUES = [Decimal("NaN"), Decimal(1), Decimal("1.0"), True, False, None, "1",
              {"x": Decimal(1)}, {"x": True}, [Decimal(1)], [Decimal(1), Decimal(2)], [], {}]


def _key_result(rng, t):
    if isinstance(t, Var):
        return MBind(t.name, rng.choice(KEY_VALUES))
    if isinstance(t, TupleT):
        return MTuple([_key_result(rng, s) for s in t.items])
    return MArray([_key_result(rng, t.elem) for _ in range(rng.randrange(3))])


def test_folding_classes_agree_with_the_structural_key():
    shapes = [A, TupleT((A, B)), arr(A), TupleT((A, arr(B)))]
    for seed in range(900):
        rng = random.Random(seed)
        key_t = shapes[seed % len(shapes)]
        t = arr(TupleT((C, key_t)))
        items = [MTuple([MBind("c", i), _key_result(rng, key_t)]) for i in range(rng.randrange(1, 8))]
        out = Transformer().transform(MArray(items), (t,), (Step("array-tpl-folding", (), 1),))
        expected: dict = {}
        for item in items:
            expected.setdefault(_reference_value_key(item.items[1]), []).append(item.items[0].value)
        got = [[m.items[0].value for m in cls.items[0].items] for cls in out.items]
        assert got == list(expected.values()), seed


def _steps_at(t):
    """Every step apply_rule accepts on t, duplication left out."""
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
    return steps


def test_random_steps_keep_results_conforming():
    for seed in range(200):
        rng = random.Random(seed)
        t = gen_term(rng, ["a", "b", "c"], depth=3)
        steps = _steps_at(t)
        if not steps:
            continue
        step = rng.choice(steps)
        r = ResultBuilder(rng).build(t)
        out = Transformer().transform(r, (t,), (step,))
        after = apply_rule(step.rule, t, step.path, step.param)
        assert instantiates(out, after), (render(t), step)


def _wide_term(rng, depth):
    """A gen_term term with one subterm replaced by a tuple or option of three."""
    t = gen_term(rng, ["a", "b", "c"], depth)
    path, _ = rng.choice(positions(t))
    kind = rng.choice([TupleT, OptionT])
    return replace(t, path, kind(tuple(gen_term(rng, ["a", "b", "c"], 1) for _ in range(3))))


def test_a_result_of_another_term_passes_or_is_a_shape_mismatch():
    """Every walk after matching reads a result beside its term: handed a
    result built for another term (the term with one subterm replaced),
    projection, each route step and the filter succeed or raise
    ShapeMismatchError, never another exception."""
    conditions = [parse_condition(c) for c in ("notnull($a)", "$a = $b", "count[$c] > 1")]
    outcomes = {True: 0, False: 0}

    def attempt(call):
        try:
            call()
        except ShapeMismatchError:
            outcomes[False] += 1
        else:
            outcomes[True] += 1

    for seed in range(1000):
        rng = random.Random(seed)
        t = _wide_term(rng, 3)
        path, _ = rng.choice(positions(t))
        other = replace(t, path, _wide_term(rng, 2))

        def result():
            return ResultBuilder(random.Random(seed)).build(other)

        attempt(lambda: project_result(result(), t, projection(t, {"a", "b"})))
        for step in _steps_at(t):
            attempt(lambda: Transformer().transform(result(), (t,), (step,)))
        for c in conditions:
            try:
                condition_scope(c, t)
            except QueryError:
                continue
            if c is conditions[-1] and var_counts(t)["c"] > 1:
                continue  # which $c the count reads is then not settled
            attempt(lambda: filter_result(result(), t, compile_where(c, t)))
    assert outcomes[True] > 5000 and outcomes[False] > 1000, outcomes


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
        for r in (raw, resolve_options(raw, t, optioned(t))):
            out = Transformer().transform(r, (t,), (Step(rule, (), j),))
            assert instantiates(out, after), (seed, r)


def bs(n):
    return MArray([MBind("b", i) for i in range(n)])


def test_splice_outside_the_element_term_is_a_shape_mismatch():
    # apply_rule refuses this step; a route that holds it anyway fails typed
    step = Step("array-flattening", (1,))
    for n in (0, 2):
        with pytest.raises(ShapeMismatchError):
            Transformer().transform(MTuple([MBind("a", 0), bs(n)]), (TupleT((A, arr(B))),), (step,))


def test_flattening_the_root_array_is_a_shape_mismatch():
    for n in (0, 2):
        with pytest.raises(ShapeMismatchError):
            Transformer().transform(bs(n), (arr(B),), (Step("array-flattening", ()),))


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


def test_candidates_hold_every_item_allows_beside_the_head():
    rng = random.Random(5)
    pruned = 0
    for _ in range(400):
        tokens = list(range(24))
        rng.shuffle(tokens)
        # one group per array instance, as filtering records them
        groups = tuple(frozenset(tokens[6 * i : 6 * i + 6]) for i in range(rng.randint(1, 4)))
        if rng.random() < 0.3:  # and, defensively, groups that overlap
            groups += (frozenset(rng.sample(tokens, 6)),)
        branches = [("b", (99, 0)), ("b", (99, 1))]
        options = ((frozenset(branches[:1]), frozenset(branches)),) if rng.random() < 0.2 else ()
        # a satisfied assignment picks one element per group, at times a branch
        footprints = tuple(
            frozenset(rng.choice(sorted(g)) for g in groups)
            | set(rng.sample(branches, rng.randint(0, 1)))
            for _ in range(rng.randint(0, 10))
        )
        c = Constraint(footprints, groups, options)
        pool = sorted(rng.choice(groups)) if rng.random() < 0.8 else tokens + [100]
        items = []
        for _ in range(rng.randint(1, 6)):
            inner = rng.sample(tokens + branches, rng.randint(0, 2)) if rng.random() < 0.2 else []
            x = rng.choice(pool)
            items.append((x, frozenset([x, *inner])))
        head = frozenset(rng.sample(tokens + branches + [101], rng.randint(0, 3)))
        ids = {x for x, _ in items}
        under = set().union(*(fp - {x} for x, fp in items))
        named = c.candidates(head, ids, under)
        for x, fp in items:
            if c.allows(head | fp):
                assert x in named, (c, head, items)
        pruned += named < ids
    assert pruned > 30  # not every draw falls back to the full scan
