"""What the test modules and the scripts `tests.digests` and `tests.stages`
share, kept apart from pytest so the scripts run on an interpreter without
it: `bench/`'s document generator and query templates, and the query texts
and documents the scripts run besides the templates.

`bench/` is only read: its modules are loaded without writing bytecode.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

from jpq import DocRegistry, Engine, parse_document, serialize

from .generators import mutate_univ

ROOT = pathlib.Path(__file__).parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_tests_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


gen, T = _load("gen"), _load("templates")


# -- a construction that repeats its variables ------------------------------------------

DUPLICATED = {"xs": [{"a": "p", "bs": ["u"]}, {"a": "q", "bs": ["v", "w"]}, {"a": "r", "bs": ["u", "v"]}]}
REPEATED = ('from doc("d") {"xs":[{"a":$a,"bs":[$b]}]} '
            'construct {"p":[^[{"a":$a,"b":$b}]],"q":[{"a":$a,"bs":[$b]}]} where ')


# where clause -> what it asks of one (a, b) pair of the raw JSON
REPEATED_WHERES = {
    '$b != "w"': lambda a, b: b != "w",
    '$b = "u"': lambda a, b: b == "u",
    '$b = "v"': lambda a, b: b == "v",
    '$a = "r"': lambda a, b: a == "r",
    'not ($a = "q") and $b != "u"': lambda a, b: a != "q" and b != "u",
}


# -- a sibling option restricts distribution ---------------------------------------------

SIBLING_OPTION = ('from doc("d") {"president":(<$p1,{"ID":$id1}>|[<$p2,{"ID":$id2}>]),'
                  '"schools":[{"name":$n,"faculty":[{"ID":$id3}]}]} '
                  'construct {"p":($p1|[$p2]),"pairs":[^[{"n":$n,"id":$id3}]]} '
                  'where $id1 = $id3 par $id2 = $id3')
_SCHOOLS = [{"name": "S", "faculty": [{"ID": "1"}, {"ID": "2"}]}, {"name": "T", "faculty": [{"ID": "3"}]}]
# one document per branch of the president option
SIBLING_DOCS = {"one": {"president": {"ID": "1"}, "schools": _SCHOOLS},
                "array": {"president": [{"ID": "2"}, {"ID": "3"}], "schools": _SCHOOLS}}


# -- edge-shaped universities -------------------------------------------------------------

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
