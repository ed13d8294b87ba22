"""A digest of each of a fixed set of query runs, checked against the
committed `tests/digests.txt` to show which runs a change alters.

A run's digest is the SHA-1 of its `--explain` text and serialized output,
or of its error's type and message.  The runs are:
- the benchmark templates, plus EX5-nested under a `par` where clause, on
  seeded universities (seeds 1, 3 and 7 at 6x5, 20x12 and 50x40) and
  people/jobs pairs (24, 80 and 200);
- the one-document templates on the edge-shaped universities of
  `tests/test_edge_shapes.py`;
- the queries `tests/test_cli.py` checks against raw-JSON oracles over a
  construction that repeats its variables and over a sibling option.

`tests/digests.txt` holds the digests of the current engine, and
`tests/test_digests.py` fails, naming the runs that differ, when a change
alters one.  From the repository root,

    PYTHONPATH=src python3 -m tests.digests | diff tests/digests.txt -

prints one `label<TAB>sha1` line per run, sorted by label, and lists the
runs that differ from the file.  A change meant to alter outputs writes
the file anew (`> tests/digests.txt`), so that its diff shows exactly
which runs moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

from jpq.engine import Engine
from jpq.errors import JpqError
from jpq.model import parse_document, serialize
from jpq.parser import parse_query

from . import stages
from .test_cli import DUPLICATED, REPEATED, REPEATED_WHERES, SIBLING_DOCS, SIBLING_OPTION
from .test_edge_shapes import MUTATIONS, ONE_DOC, mutations
from .test_golden import T

SEEDS = (1, 3, 7)
SIZES = {("univ",): ("6x5", "20x12", "50x40"), ("people", "jobs"): ("24", "80", "200")}
EX5_NESTED_PAR = dataclasses.replace(
    T.EX5_NESTED, name="EX5-nested-par", text=T.EX5_NESTED.text + " where $id1 = $id3 par $id2 = $id3")


def runs():
    """(label, engine, query text) for every run.  One engine holds every
    document under a name of its own, so that a query plans once."""
    _, _, engine = mutations()  # the edge-shaped universities, as m<i>
    for t in ONE_DOC:
        for i in range(MUTATIONS):
            yield f"{t.name}@m{i}", engine, t.query({"univ": f"m{i}"})
    templates = (*T.ALL, EX5_NESTED_PAR)
    for docs, sizes in SIZES.items():
        fits = [t for t in templates if t.docs == docs]
        for size, seed in itertools.product(sizes, SEEDS):
            at = f"{size}-s{seed}"
            reg = stages.registry(fits[0], size, seed)
            for d in docs:
                engine.registry.register(f"{at}/{d}", reg.lookup(d))
            for t in fits:
                yield f"{t.name}@{at}", engine, t.query({d: f"{at}/{d}" for d in docs})
    engine.registry.register("d", parse_document(json.dumps(DUPLICATED)))
    for where in REPEATED_WHERES:
        yield f"duplication@{where}", engine, REPEATED + where
    for label, doc in SIBLING_DOCS.items():
        engine.registry.register(f"sibling-{label}", parse_document(json.dumps(doc)))
        yield f"sibling-option@{label}", engine, SIBLING_OPTION.replace('doc("d")', f'doc("sibling-{label}")')


def digest(engine: Engine, text: str) -> str:
    """The SHA-1 of the query's explain text and output, or of its error."""
    try:
        q = parse_query(text)
        shown = f"{engine.explain(q)}\n{serialize(engine.run(q))}"
    except JpqError as e:
        shown = f"{type(e).__name__}: {e}"
    return hashlib.sha1(shown.encode()).hexdigest()


def main() -> None:
    for line in sorted(f"{label}\t{digest(engine, text)}" for label, engine, text in runs()):
        print(line)


if __name__ == "__main__":
    main()
