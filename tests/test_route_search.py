"""Route search against a reference: the iterative-deepening search the
planner used before its breadth-first pass, kept here as a test-only oracle.

The reference re-runs a depth-first search once per depth limit, with a
transposition table reset for each limit and a state budget reset with it.
Whenever it finds a route, the planner must find the same route step for
step; where it gives up on its budget, the planner may instead prove the
pair unreachable, which the blind search of test_rewrite must confirm.
"""

from collections import Counter

import pytest

import jpq.rewrite as rewrite
from jpq import ast as A
from jpq import parse_query
from jpq.construct import backbone
from jpq.errors import (
    InvalidConstructionError,
    RuleInapplicableError,
    SearchBoundExceededError,
)
from jpq.rewrite import (
    RULES,
    Step,
    _budget,
    _census,
    _enclosing_array,
    apply_rule,
    infer_route,
    projected_source,
)
from jpq.terms import (
    ArrayT,
    OptionT,
    TupleT,
    children,
    is_unit,
    render,
    terms_match,
    var_counts,
    var_set,
)

from .test_engine import EX1, EX2, EX3, EX4, EX5, EX6
from .test_rewrite import bfs_reaches, small_search_bounds, term_universe

_PRESIDENTS = '/"?president?":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>])'
EX5_DEAN = (
    f'from doc("univ") <{_PRESIDENTS}, '
    '{"schools":[{"name":$n,"dean":{"ID":$id3}}]}> '
    'construct {"results":[^[{"president":$p1,"school":$n}]|'
    '^[^[{"president":$p2,"school":$n}]]]} '
    "where $id1 = $id3 par $id2 = $id3"
)
EX5_NESTED = (
    f'from doc("univ") <{_PRESIDENTS}, '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[{"president":$p1,"schools":[$n]}|'
    '^[{"president":$p2,"schools":[$n]}]]}'
)
ARRAY_BRANCH = (
    'from doc("univ") </"?president?":[<$p2,{"ID":$id2}>], '
    '{"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]}> '
    'construct {"results":[^[^[{"president":$p2,"school":$n}]]]} '
    "where $id2 = $id3"
)
# grouping by a doubly flattened key: no route exists
DOUBLY_FLATTENED_GROUPBY = (
    'from doc("d") {"a":[{"x":$a,"ys":[{"z":$b,"ws":[$c]}]}]} '
    'construct [{"c":^[^[$c]]%,"v":[{"a":$a,"b":$b}]}] groupby ^[^[$c]]%'
)


# -- the reference: iterative deepening ----------------------------------------

_RULE_ORDER = {name: i for i, name in enumerate(RULES)}


def _preorder(t, path=()):
    yield path, t
    for i, kid in enumerate(children(t)):
        yield from _preorder(kid, path + (i,))


def _reference_successors(t, target_counts, target_flats, target_folds):
    counts = var_counts(t)
    census = _census(t)
    flats, folds = census["^"], census["%"]
    need_dup = any(counts[v] < target_counts[v] for v in target_counts)
    steps = []
    for path, node in _preorder(t):
        if isinstance(node, TupleT) and len(node.items) >= 2:
            for i in range(len(node.items) - 1):
                steps.append(Step("tuple-commutation", path, i))
            for j in range(1, len(node.items) - 1):
                steps.append(Step("tuple-association", path, j))
            if isinstance(node.items[-1], TupleT) and len(node.items[-1].items) >= 2:
                steps.append(Step("tuple-association", path, -1))
            if isinstance(node.items[-1], OptionT):
                steps.append(Step("option-tuple-distribution", path))
            last = node.items[-1]
            if (
                isinstance(last, ArrayT)
                and not last.folded
                and not last.flat
                and not (var_set(TupleT(node.items[:-1])) & var_set(last.elem))
            ):
                steps.append(Step("array-tuple-distribution", path))
        if isinstance(node, OptionT) and len(node.branches) >= 2:
            for i in range(len(node.branches) - 1):
                steps.append(Step("option-commutation", path, i))
            for j in range(1, len(node.branches) - 1):
                steps.append(Step("option-association", path, j))
            if isinstance(node.branches[-1], OptionT):
                steps.append(Step("option-association", path, -1))
        if need_dup and not is_unit(node):
            if any(counts[v] < target_counts[v] for v in var_set(node)):
                steps.append(Step("tuple-duplication", path))
        if isinstance(node, ArrayT) and not node.flat and not node.folded:
            if flats < target_flats and path and _enclosing_array(t, path) is not None:
                steps.append(Step("array-flattening", path))
            if (
                folds < target_folds
                and isinstance(node.elem, TupleT)
                and len(node.elem.items) >= 2
            ):
                for k in range(len(node.elem.items)):
                    steps.append(Step("array-tpl-folding", path, k))
    steps.sort(key=lambda s: (_RULE_ORDER[s.rule], s.path, s.param))
    for step in steps:
        try:
            yield step, apply_rule(step.rule, t, step.path, step.param)
        except RuleInapplicableError:
            continue


def _reference_viable(t, budget: Counter, target_flats, target_folds):
    counts = var_counts(t)
    if any(counts[v] > budget[v] for v in counts):
        return False
    census = _census(t)
    return census["^"] <= target_flats and census["%"] <= target_folds


def _has_option(t):
    return isinstance(t, OptionT) or any(_has_option(k) for k in children(t))


def deepening_route(source, target, max_depth=14, max_states=200_000):
    """The planner's former search, errors reduced to their types."""
    if var_set(target) - var_set(source):
        raise InvalidConstructionError("unbound target variable")
    source = projected_source(source, target)
    if terms_match(source, target):
        return ()
    if _has_option(target) and not _has_option(source):
        raise InvalidConstructionError("option structure")
    target_counts = var_counts(target)
    budget = _budget(target)
    tflats, tfolds = budget["^"], budget["%"]
    if not _reference_viable(source, budget, tflats, tfolds):
        raise InvalidConstructionError("source not viable")
    states_left = [max_states]
    depth_hit = [False]

    def dfs(t, depth, limit, seen, trail):
        for step, succ in _reference_successors(t, target_counts, tflats, tfolds):
            if terms_match(succ, target):
                return tuple(trail) + (step,)
            if not _reference_viable(succ, budget, tflats, tfolds):
                continue
            if depth + 1 == limit:
                depth_hit[0] = True
                continue
            prev = seen.get(succ)
            if prev is not None and prev <= depth + 1:
                continue
            if states_left[0] <= 0:
                depth_hit[0] = True
                return None
            states_left[0] -= 1
            seen[succ] = depth + 1
            trail.append(step)
            found = dfs(succ, depth + 1, limit, seen, trail)
            if found is not None:
                return found
            trail.pop()
        return None

    for limit in range(1, max_depth + 1):
        depth_hit[0] = False
        states_left[0] = max_states
        found = dfs(source, 0, limit, {source: 0}, [])
        if found is not None:
            return found
        if not depth_hit[0]:
            raise InvalidConstructionError("space exhausted")
        if states_left[0] <= 0:
            break
    raise SearchBoundExceededError("budget exhausted")


def outcome(search, source, target, **bounds):
    try:
        return search(source, target, **bounds)
    except (InvalidConstructionError, SearchBoundExceededError) as e:
        return type(e)


def shape(text):
    q = parse_query(text)
    return A.query_matching_term(q), backbone(q.construct)


# -- agreement -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [EX1, EX2, EX3, EX4, EX5, EX6, EX5_DEAN, EX5_NESTED, ARRAY_BRANCH],
    ids=["EX1", "EX2", "EX3", "EX4", "EX5", "EX6", "EX5-dean", "EX5-nested", "array-branch"],
)
def test_query_routes_equal_the_deepening_routes(text):
    source, target = shape(text)
    expected = deepening_route(source, target)
    assert infer_route(source, target) == expected


def test_universe_routes_equal_the_deepening_routes_or_are_proved_unreachable(monkeypatch):
    small_search_bounds(monkeypatch)
    terms = term_universe()
    routed = proved = 0
    for source in terms:
        for target in terms:
            if var_set(target) - var_set(source):
                continue
            pair = (render(source), render(target))
            expected = outcome(deepening_route, source, target, max_depth=6, max_states=50_000)
            got = outcome(infer_route, source, target)
            if expected is SearchBoundExceededError and got is InvalidConstructionError:
                assert not bfs_reaches(projected_source(source, target), target, depth=4), pair
                proved += 1
            else:
                assert got == expected, pair
                routed += isinstance(got, tuple)
    assert routed > 20
    assert proved >= 1  # e.g. ($a|$b) -> ($a,$a): no longer left undecided


def test_doubly_flattened_groupby_gets_a_verdict_within_20000_rule_applications(monkeypatch):
    calls = Counter()

    def counted(*args):
        calls["apply_rule"] += 1
        return apply_rule(*args)

    monkeypatch.setattr(rewrite, "apply_rule", counted)
    source, target = shape(DOUBLY_FLATTENED_GROUPBY)
    with pytest.raises(InvalidConstructionError):
        infer_route(source, target)
    assert 0 < calls["apply_rule"] < 20_000


def test_budget_message_reports_states_admitted_and_depth_reached(monkeypatch):
    source, target = shape(EX5)
    with monkeypatch.context() as m:
        m.setattr(rewrite, "MAX_STATES", 10)
        with pytest.raises(SearchBoundExceededError) as e:
            infer_route(source, target)
    assert "10 states admitted (max_states 10), depth 2 reached" in str(e.value)
    with monkeypatch.context() as m:
        m.setattr(rewrite, "MAX_DEPTH", 3)
        with pytest.raises(SearchBoundExceededError) as e:
            infer_route(source, target)
    assert "depth 3 reached (max_depth 3)" in str(e.value)
