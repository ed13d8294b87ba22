"""The one-document templates on edge-shaped universities: every run gives a
result that serializes, or fails in a documented way, a `QueryError` (exit
1) or a `DataError` (exit 2), never a `ShapeMismatchError` (an internal
error) or an exception that is no `JpqError`."""

import random
from collections import Counter

from jpq import DocRegistry, Engine, parse_document, parse_query, serialize
from jpq.errors import DataError, QueryError

from .generators import EDGE_IDS, mutate_univ
from .test_golden import T, gen

MUTATIONS = 40
ONE_DOC = [t for t in T.ALL if t.docs == ("univ",)]


def test_edge_shaped_universities_fail_only_in_documented_ways():
    # one engine, each mutation under its own name: a template plans once
    engine = Engine(DocRegistry())
    base, rng, edits = gen.univ(random.Random(3), 6, 5), random.Random(5), set()
    for i in range(MUTATIONS):
        doc, labels = mutate_univ(rng, base)
        engine.registry.register(f"m{i}", parse_document(serialize(doc)))
        edits.update(labels)
    assert edits == {"empty faculty", "non-object item", "missing emails", "president array",
                     "no president", *(f"ID {edge!r}" for edge in EDGE_IDS)}
    outcomes, wrong = Counter(), []
    for t in ONE_DOC:
        for i in range(MUTATIONS):
            query = parse_query(t.text.replace('doc("univ")', f'doc("m{i}")'))
            try:
                serialize(engine.run(query))
                outcomes["ran"] += 1
            except (QueryError, DataError) as e:
                outcomes[type(e).__name__] += 1
            except Exception as e:  # any other failure is a defect
                wrong.append((t.name, i, repr(e)))
    assert wrong == []
    assert len(ONE_DOC) == 12 and sum(outcomes.values()) == 12 * MUTATIONS
    assert outcomes["ran"] > 0, outcomes
