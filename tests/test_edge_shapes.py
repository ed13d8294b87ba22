"""The one-document templates on edge-shaped universities: every run gives a
result that serializes, or fails in a documented way, a `QueryError` (exit
1) or a `DataError` (exit 2), never a `ShapeMismatchError` (an internal
error) or an exception that is no `JpqError`.  Where a template has an
oracle over the raw JSON (`tests/oracles.py`), its result equals the
oracle's."""

from collections import Counter

from jpq import parse_query, serialize
from jpq.errors import DataError, QueryError

from .generators import EDGE_IDS
from .oracles import ex3_school_pairs
from .support import MUTATIONS, ONE_DOC, T, mutations


def on(t, i: int):
    return parse_query(t.text.replace('doc("univ")', f'doc("m{i}")'))


def test_edge_shaped_universities_fail_only_in_documented_ways():
    _, edits, engine = mutations()
    assert edits == {"empty faculty", "non-object item", "missing emails", "president array",
                     "no president", *(f"ID {edge!r}" for edge in EDGE_IDS)}
    outcomes, wrong = Counter(), []
    for t in ONE_DOC:
        for i in range(MUTATIONS):
            try:
                serialize(engine.run(on(t, i)))
                outcomes["ran"] += 1
            except (QueryError, DataError) as e:
                outcomes[type(e).__name__] += 1
            except Exception as e:  # any other failure is a defect
                wrong.append((t.name, i, repr(e)))
    assert wrong == []
    assert len(ONE_DOC) == 12 and sum(outcomes.values()) == 12 * MUTATIONS
    assert outcomes["ran"] > 0, outcomes


def test_ex3_on_edge_shaped_universities_agrees_with_its_oracle():
    # a multiset: EX3's pairs come in no order its oracle states
    docs, _, engine = mutations()
    pairs = 0
    for i, doc in enumerate(docs):
        got = Counter(serialize(pair) for pair in engine.run(on(T.EX3, i))["result"])
        want = Counter(serialize(pair) for pair in ex3_school_pairs(doc))
        assert got == want, i
        pairs += len(want)
    assert pairs > MUTATIONS  # the mutations leave pairs to compare
