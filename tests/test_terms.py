from jpq.terms import (
    UNIT,
    ArrayT,
    DistinctT,
    OptionT,
    TupleT,
    Var,
    class_members,
    is_unit,
    option_of,
    positions,
    render,
    replace,
    subterm,
    terms_match,
    tuple_of,
    var_counts,
)

from .generators import projected

A, B, C = Var("a"), Var("b"), Var("c")


def arr(elem):
    return ArrayT(elem, elem)


def test_tuple_of_splices_and_collapses():
    assert tuple_of([A, UNIT, B]) == TupleT((A, B))
    assert tuple_of([TupleT((A, B)), C]) == TupleT((A, B, C))
    assert tuple_of([UNIT, A]) == A
    assert is_unit(tuple_of([UNIT, UNIT]))


def test_option_of_keeps_positions():
    assert option_of([A, B]) == OptionT((A, B))
    assert option_of([A]) == A
    assert is_unit(option_of([UNIT, UNIT]))


def test_var_counts_sees_array_and_distinct_interiors():
    t = TupleT((A, arr(TupleT((A, B))), DistinctT(C)))
    assert var_counts(t) == {"a": 2, "b": 1, "c": 1}


def test_render_notation():
    assert render(TupleT((A, OptionT((B, C))))) == "($a,($b|$c))"
    assert render(ArrayT(A, A, flat=True)) == "^[$a]"
    assert render(ArrayT(A, B)) == "[$a]_$b"
    assert render(DistinctT(arr(A))) == "[$a]%"


def test_subterm_and_replace_are_inverse():
    t = TupleT((A, arr(TupleT((B, C)))))
    assert subterm(t, (1, 0, 1)) == C
    # replace rewrites the element only; the index keeps its original form
    assert replace(t, (1, 0, 1), A) == TupleT(
        (A, ArrayT(TupleT((B, A)), TupleT((B, C))))
    )
    paths = [path for path, _ in positions(t)]
    assert () in paths and (1, 0, 0) in paths
    assert paths == sorted(paths)  # preorder
    assert all(subterm(t, path) == node for path, node in positions(t))


def test_project_drops_unused_structure():
    t = TupleT((A, arr(TupleT((B, C)))))
    assert projected(t, {"a"}) == A
    assert projected(t, {"b"}) == arr_with_self(B)
    assert is_unit(projected(t, set()))


def arr_with_self(elem):
    # projection re-anchors a now-variable-free index on the element
    return ArrayT(elem, elem)


def test_project_keeps_option_positions():
    t = OptionT((A, B))
    assert projected(t, {"a"}) == OptionT((A, UNIT))


def test_class_members_hides_one_copy_of_the_key():
    key = DistinctT(A)
    assert class_members(TupleT((A, B)), key, TupleT((A, B))) == ([True, True], TupleT((A, B)))
    assert class_members(TupleT((A, B)), key, B) == ([False, True], B)
    assert class_members(TupleT((A, B, A)), key, TupleT((B, A))) == ([False, True, True], TupleT((B, A)))
    assert class_members(TupleT((A, A)), key, A) == ([False, True], A)
    # nested tuples among the kept components are spliced
    assert class_members(TupleT((TupleT((B, C)), A)), key, TupleT((B, C))) == ([True, False], TupleT((B, C)))
    assert class_members(TupleT((TupleT((A, A)), B)), key, TupleT((A, A, B))) == (
        [True, True], TupleT((A, A, B)))
    # a key copy among the components is hidden before the rest is spliced
    assert class_members(TupleT((A, TupleT((B, B)))), key, TupleT((A, B, B))) is None
    # neither the member term nor it less one key copy fits
    assert class_members(TupleT((A, A, B)), key, B) is None
    assert class_members(TupleT((B, C)), key, B) is None


def test_terms_match_ignores_target_index():
    state = arr(TupleT((A, B)))
    target = ArrayT(TupleT((A, B)), None)
    assert terms_match(state, target)
    assert not terms_match(state, ArrayT(TupleT((B, A)), None))


def test_terms_match_flags_must_agree():
    state = ArrayT(A, A, flat=True)
    assert terms_match(state, ArrayT(A, None, flat=True))
    assert not terms_match(state, ArrayT(A, None))


def test_terms_match_folded_class_may_hide_key():
    key = DistinctT(ArrayT(B, None, flat=True))
    state_key = DistinctT(ArrayT(B, B, flat=True))
    class_arr = arr(TupleT((A, ArrayT(B, B, flat=True))))
    state = ArrayT(TupleT((class_arr, state_key)), state_key, folded=True)
    hidden = ArrayT(TupleT((ArrayT(A, None), key)), key, folded=True)
    assert terms_match(state, hidden)


def test_equal_terms_built_apart_hash_alike():
    def build():
        # fresh nodes throughout, no subterm shared between the two builds
        a = ArrayT(TupleT((Var("a"), OptionT((Var("b"), TupleT(()))))), TupleT((Var("a"),)))
        return DistinctT(ArrayT(TupleT((a, Var("c"))), None, flat=True))

    s, t = build(), build()
    assert s is not t and s == t and hash(s) == hash(t)
    assert hash(s) == hash(t)  # again, from the kept values


def test_equal_self_indexed_terms_built_apart_compare_in_linear_time():
    t, u = A, Var("a")
    for _ in range(60):  # each level used to double the comparison: 2**60 steps
        t, u = arr(t), arr(u)  # new nodes throughout
    assert u is not t and u == t and t == u
    # an index equal to the element but not the element itself still compares
    assert ArrayT(A, A) == ArrayT(A, Var("a")) == ArrayT(Var("a"), A)
    assert ArrayT(A, A) != ArrayT(A, B) and ArrayT(A, B) != ArrayT(A, A)


def test_projecting_a_self_indexed_array_keeps_one_shared_element():
    t, kept = A, A
    for _ in range(60):  # each level loses $b, so each is rebuilt
        t, kept = arr(TupleT((t, B))), arr(kept)
    p = projected(t, {"a"})
    assert p == kept and render(p) == render(kept)
    for _ in range(60):
        assert p.index is p.elem
        p = p.elem
    assert p == A


def test_the_repr_of_a_self_indexed_nest_grows_linearly():
    assert repr(arr(A)) == "ArrayT(elem=Var(name='a'), index=elem, flat=False, folded=False)"
    assert repr(ArrayT(A, B, flat=True)) == (
        "ArrayT(elem=Var(name='a'), index=Var(name='b'), flat=True, folded=False)")
    t = A
    for _ in range(60):  # index and element printed apart: 2**60 characters
        t = arr(t)
    assert len(repr(t)) < 60 * len(repr(arr(A)))
