"""The one-document templates on edge-shaped universities: every run gives a
result that serializes, or fails in a documented way, a `QueryError` (exit
1) or a `DataError` (exit 2), never a `ShapeMismatchError` (an internal
error) or an exception that is no `JpqError`.  Where a template has an
oracle over the raw JSON (`tests/oracles.py`), its result equals the
oracle's."""

import random
from collections import Counter

from jpq import DocRegistry, Engine, parse_document, parse_query, serialize
from jpq.errors import DataError, QueryError

from .generators import EDGE_IDS, mutate_univ
from .oracles import ex3_school_pairs
from .test_golden import T, gen

MUTATIONS = 40
ONE_DOC = [t for t in T.ALL if t.docs == ("univ",)]


def mutations() -> tuple[list[dict], set[str], Engine]:
    """The edge-shaped universities, the labels of their edits, and one engine
    holding each as `m<i>`, so that a template plans once."""
    base, rng = gen.univ(random.Random(3), 6, 5), random.Random(5)
    docs, edits, engine = [], set(), Engine(DocRegistry())
    for i in range(MUTATIONS):
        doc, labels = mutate_univ(rng, base)
        engine.registry.register(f"m{i}", parse_document(serialize(doc)))
        docs.append(doc)
        edits.update(labels)
    return docs, edits, engine


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
