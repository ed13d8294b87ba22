from decimal import Decimal

import pytest

from jpq import construct
from jpq.construct import backbone, build_empty
from jpq.errors import ConstructionError, InvalidConstructionError, ShapeMismatchError, TypeError_
from jpq.matching import MArray, MBind, MFailed, MOption, MTuple, value_of
from jpq.model import serialize
from jpq.parser import parse_construction
from jpq.terms import UNIT, ArrayT, DistinctT, OptionT, TupleT, Var, is_unit

from .generators import _same

X, Y, Z, N, K = Var("x"), Var("y"), Var("z"), Var("n"), Var("k")


def build(cp, t, r):
    return construct.build(cp, construct.compile_construction(cp, t), r)


def marr(items, folded=False):
    return MArray(list(items), folded)


# -- backbone derivation ------------------------------------------------------


def test_backbone_of_objects_is_the_member_tuple():
    assert backbone(parse_construction('{"a":$x,"b":$y}')) == TupleT((X, Y))
    assert backbone(parse_construction('{"a":$x}')) == X


def test_backbone_erases_constants():
    assert is_unit(backbone(parse_construction('{"a":"t","b":1}')))
    assert backbone(parse_construction('{"a":"t","b":$x}')) == X


def test_backbone_of_arrays_and_options():
    assert backbone(parse_construction('[{"v":$x}]')) == ArrayT(X, None)
    assert backbone(parse_construction("^[$x]")) == ArrayT(X, None, flat=True)
    assert backbone(parse_construction('($x | {"v":$y})')) == OptionT((X, Y))


def test_backbone_of_grouped_array_is_folded():
    cp = parse_construction('[{"k":$k%,"vs":[$v]}] groupby $k%')
    key = DistinctT(K)
    assert backbone(cp) == ArrayT(
        TupleT((ArrayT(Var("v"), None), key)), key, folded=True
    )


def test_grouped_array_key_must_match_groupby():
    cp = parse_construction('[{"k":$k%,"vs":[$v]}] groupby $other%')
    with pytest.raises(InvalidConstructionError):
        backbone(cp)


def test_grouped_array_needs_a_class_content_array():
    cp = parse_construction('[{"k":$k%}] groupby $k%')
    with pytest.raises(InvalidConstructionError):
        backbone(cp)


# -- building -----------------------------------------------------------------


def test_build_variable_reference():
    assert _same(build(parse_construction("$x"), X, MBind("x", "v")), "v")


def test_build_object_aligns_members_with_tuple_slots():
    cp = parse_construction('{"a":$x,"b":$y}')
    out = build(cp, TupleT((X, Y)), MTuple([MBind("x", "1"), MBind("y", "2")]))
    assert _same(out, {"a": "1", "b": "2"})


def test_build_nested_object_consumes_its_share_of_slots():
    cp = parse_construction('{"p":{"a":$x,"b":$y},"c":$z}')
    r = MTuple([MBind("x", "1"), MBind("y", "2"), MBind("z", "3")])
    out = build(cp, TupleT((X, Y, Z)), r)
    assert serialize(out) == '{"p":{"a":"1","b":"2"},"c":"3"}'


def test_build_interleaves_constants():
    cp = parse_construction('{"kind":"person","name":$x}')
    out = build(cp, X, MBind("x", "Li"))
    assert serialize(out) == '{"kind":"person","name":"Li"}'


def test_build_array_of_objects():
    cp = parse_construction('[{"v":$x}]')
    r = marr([MBind("x", "a"), MBind("x", "b")])
    out = build(cp, ArrayT(X, X), r)
    assert serialize(out) == '[{"v":"a"},{"v":"b"}]'


def test_build_orders_ascending_and_descending():
    cp_asc = parse_construction("[$x] groupby $x asc")
    cp_desc = parse_construction("[$x] groupby $x desc")
    r = marr([MBind("x", Decimal(3)), MBind("x", Decimal(1)), MBind("x", Decimal(2))])
    t = ArrayT(X, X)
    assert serialize(build(cp_asc, t, r)) == "[1,2,3]"
    assert serialize(build(cp_desc, t, r)) == "[3,2,1]"


def test_ordering_is_stable_for_equal_keys():
    cp = parse_construction('[{"k":$x,"v":$y}] groupby $x asc')
    t = ArrayT(TupleT((X, Y)), TupleT((X, Y)))
    r = marr(
        [
            MTuple([MBind("x", "b"), MBind("y", "1")]),
            MTuple([MBind("x", "a"), MBind("y", "2")]),
            MTuple([MBind("x", "b"), MBind("y", "3")]),
        ]
    )
    assert serialize(build(cp, t, r)) == (
        '[{"k":"a","v":"2"},{"k":"b","v":"1"},{"k":"b","v":"3"}]'
    )


def test_ordering_rejects_mixed_key_types():
    cp = parse_construction("[$x] groupby $x asc")
    r = marr([MBind("x", "a"), MBind("x", Decimal(1))])
    with pytest.raises(TypeError_):
        build(cp, ArrayT(X, X), r)


def test_build_count_of_an_array():
    cp = parse_construction("count([$x])")
    r = marr([MBind("x", "a"), MBind("x", "b"), MBind("x", "c")])
    assert _same(build(cp, ArrayT(X, None), r), Decimal(3))


def test_build_selected_option_branch():
    cp = parse_construction('({"a":$x} | {"b":$y})')
    t = OptionT((X, Y))
    r = MOption([MFailed(), MBind("y", "v")], option_id=1)
    assert serialize(build(cp, t, r)) == '{"b":"v"}'


def test_build_grouped_array_classes():
    cp = parse_construction('[{"k":$k%,"vs":[$n]}] groupby $k%')
    t = backbone(cp)
    classes = marr(
        [
            MTuple([marr([MBind("n", "a"), MBind("n", "b")]), MBind("k", "1")]),
            MTuple([marr([MBind("n", "c")]), MBind("k", "2")]),
        ],
        folded=True,
    )
    out = build(cp, t, classes)
    assert serialize(out) == (
        '[{"k":"1","vs":["a","b"]},{"k":"2","vs":["c"]}]'
    )


def test_build_grouped_array_orders_by_key():
    cp = parse_construction('[{"k":$k%,"vs":[$n]}] groupby $k% desc')
    t = backbone(cp)
    classes = marr(
        [
            MTuple([marr([MBind("n", "a")]), MBind("k", "1")]),
            MTuple([marr([MBind("n", "c")]), MBind("k", "2")]),
        ],
        folded=True,
    )
    assert serialize(build(cp, t, classes)) == (
        '[{"k":"2","vs":["c"]},{"k":"1","vs":["a"]}]'
    )


def test_build_of_failed_result_yields_the_empty_shape():
    cp = parse_construction('{"names":[$x],"head":$y}')
    assert serialize(build(cp, TupleT((ArrayT(X, X), Y)), MFailed())) == (
        '{"names":[],"head":null}'
    )


def test_build_empty_keeps_constants_and_structure():
    cp = parse_construction('{"kind":"report","items":[{"v":$x}],"flat":^[$y],"who":$z}')
    out = build_empty(cp)
    assert serialize(out) == '{"kind":"report","items":[],"flat":[],"who":null}'


def test_value_of_resolved_options_and_bindings():
    assert _same(value_of(MBind("x", "v")), "v")
    opt = MOption([MFailed(), MBind("y", "w")], option_id=0)
    assert _same(value_of(opt), "w")
    with pytest.raises(ShapeMismatchError):
        value_of(MOption([MBind("y", "v"), MBind("y", "w")], option_id=0))
    assert _same(value_of(MTuple([MBind("a", "1"), MBind("b", "2")])), ["1", "2"])
    with pytest.raises(ShapeMismatchError):
        value_of(MFailed())


def test_pattern_wider_than_result_is_rejected():
    cp = parse_construction('{"a":$x,"b":$y}')
    with pytest.raises(ShapeMismatchError):
        build(cp, X, MBind("x", "1"))


GROUPED = '[{"k":$k%,"vs":[$n]}] groupby $k%'
FOLDED = ArrayT(TupleT((ArrayT(N, N), DistinctT(K))), DistinctT(K), folded=True)
UNFITTING = {
    "tuple-for-a-binding": ('{"a":$x,"b":$y}', TupleT((X, Y)), MBind("x", "1")),
    "tuple-of-another-arity": ('{"a":$x,"b":$y}', TupleT((X, Y)), MTuple([MBind("x", "1")])),
    "binding-for-a-tuple": ("$x", X, MTuple([MBind("x", "1"), MBind("y", "2")])),
    "option-for-a-binding": ('($x | {"v":$y})', OptionT((X, Y)), MBind("x", "1")),
    "option-of-another-arity": (
        '($x | {"v":$y})', OptionT((X, Y)), MOption([MBind("x", "1"), MFailed(), MFailed()], 0)),
    "array-for-a-binding": ("[$x]", ArrayT(X, X), MBind("x", "1")),
    "unfolded-term": (
        GROUPED, ArrayT(FOLDED.elem, FOLDED.index),
        marr([MTuple([marr([MBind("n", "a")]), MBind("k", "1")])], folded=True)),
    "class-of-one-part": (GROUPED, FOLDED, marr([MTuple([marr([MBind("n", "a")])])], folded=True)),
    "class-members-not-an-array": (
        GROUPED, FOLDED, marr([MTuple([MBind("n", "a"), MBind("k", "1")])], folded=True)),
}


@pytest.mark.parametrize("construction, t, r", UNFITTING.values(), ids=UNFITTING.keys())
def test_a_result_that_does_not_fit_its_term_is_a_shape_mismatch(construction, t, r):
    with pytest.raises(ShapeMismatchError):
        build(parse_construction(construction), t, r)
