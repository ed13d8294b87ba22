"""Byte-identity of explain text and output for every benchmark template.

`tests/golden.json` records, for each template in `bench/templates.py` and
each document set below, the `--explain` text and the compact output the
CLI prints.  A change meant to keep behaviour (a refactor, a speed-up) must
leave them byte-identical; a change meant to alter them records the file
again and says why:

    PYTHONPATH=src python3 -m tests.test_golden

`tests/golden_rules.json` does the same on `fixtures/univ.json` for a few
queries outside the benchmark, chosen so that the routes of the two files
together use every rewrite rule; the same command records it.

`tests/golden_parse.txt` records, one line each, what `parse_query` gives
for the first seeded mutations of the worked examples
(`tests/test_engine.py`): the `unparse_query` text of a mutation that
parses, or the class and message of the error it raises.  It pins
syntax-error text; the same command records it.

`tests/golden_ids.json` records, for the same `<template>@<document set>`
keys as `tests/golden.json`, a digest of the result tree the transform stage
hands to the build, element ids and option branch tokens included: ids are
drawn in one order, whatever the stages before the build skip or compile.
The same command records it.

`bench/` is only read: its modules are loaded without writing bytecode.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import pathlib
import random
import re
import sys

from jpq import DocRegistry, Engine, parse_document, parse_query, serialize, unparse_query
from jpq.errors import JpqError
from jpq.matching import MArray, MBind, MOption, MTuple
from jpq.rewrite import RULES, Transformer

from .test_engine import mutated_queries

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden.json"
GOLDEN_RULES = pathlib.Path(__file__).parent / "golden_rules.json"
GOLDEN_PARSE = pathlib.Path(__file__).parent / "golden_parse.txt"
GOLDEN_IDS = pathlib.Path(__file__).parent / "golden_ids.json"
SEED = 2015


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_golden_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


gen, T = _load("gen"), _load("templates")


def document_sets() -> dict[str, dict[str, str]]:
    """Document set name -> {document name: JSON text}."""
    rng = random.Random(SEED)
    people, jobs = gen.people_jobs(rng, 30)
    return {
        "fixture": {"univ": (ROOT / "fixtures" / "univ.json").read_text(encoding="utf-8")},
        "univ-6x5": {"univ": gen.dump(gen.univ(rng, 6, 5))},
        "univ-12x12": {"univ": gen.dump(gen.univ(rng, 12, 12))},
        "people-jobs-30": {"people": gen.dump(people), "jobs": gen.dump(jobs)},
    }


def _runs():
    """(`<template>@<document set>`, engine, query) for every template and
    document set it fits.  One engine holds every set, each document renamed
    `<set>/<name>`."""
    engine = Engine(DocRegistry())
    sets = document_sets()
    for set_name, docs in sets.items():
        for name, text in docs.items():
            engine.registry.register(f"{set_name}/{name}", parse_document(text))
    for template in T.ALL:
        for set_name, docs in sets.items():
            if set(docs) == set(template.docs):
                q = parse_query(template.query({d: f"{set_name}/{d}" for d in docs}))
                yield f"{template.name}@{set_name}", engine, q


def record() -> dict[str, str]:
    """`<template>@<document set>` -> what `jpq --explain` prints."""
    return {key: f"{engine.explain(q)}\n{serialize(engine.run(q))}\n" for key, engine, q in _runs()}


def _tree(r) -> list:
    """A result tree as nested lists: kind, element id, and what the kind
    holds; option branch tokens included."""
    if isinstance(r, MBind):
        return ["B", r.elem_id, r.name, serialize(r.value)]
    if isinstance(r, MTuple):
        return ["T", r.elem_id, [_tree(s) for s in r.items]]
    if isinstance(r, MArray):
        return ["A", r.elem_id, r.folded, [_tree(s) for s in r.items]]
    if isinstance(r, MOption):
        return ["O", r.elem_id, [list(b) for b in r.branch_ids], [_tree(b) for b in r.branches]]
    return ["F"]


def record_ids() -> dict[str, str]:
    """`<template>@<document set>` -> a digest of the trees `Transformer.transform`
    returned during the run, in call order (of no tree when none was built)."""
    trees: list = []
    real = Transformer.transform

    def kept(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        trees.append(_tree(out))
        return out

    Transformer.transform = kept
    try:
        out = {}
        for key, engine, q in _runs():
            trees.clear()
            engine.run(q)
            text = json.dumps(trees, separators=(",", ":")) if trees else ""
            out[key] = hashlib.sha256(text.encode()).hexdigest()
        return out
    finally:
        Transformer.transform = real


def test_transformed_trees_keep_their_element_ids():
    got = record_ids()
    want = json.loads(GOLDEN_IDS.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(json.loads(GOLDEN.read_text(encoding="utf-8")))
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_explain_text_and_output_are_byte_identical():
    got = record()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {key.split("@")[0] for key in got} == {t.name for t in T.ALL}
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


# query -> the rules its route is meant to exercise
RULE_QUERIES = {
    'from doc("univ") /$r"?president?":(<$po,{"ID":*}>|[$pa]) '
    'construct {"p":[^[{"role":$r,"info":$pa}]|{"role":$r,"info":$po}]}': {"option-commutation"},
    'from doc("univ") /$k:({"ID":$a}|[{"ID":$b}]|[{"name":$c}]) '
    'construct {"r":[{"k":$k,"v":($a|(^[$b]|^[$c]))}]}': {"option-association", "array-flattening"},
    'from doc("univ") /$k:({"ID":$a}|[{"ID":$b}]|[{"name":$c}]) '
    'construct {"r":[{"k":$k,"v":($a|(^[$b]|^[$c]))}]} '
    'where $b != "0003" par $a = "0001"': {"option-association", "array-flattening"},
    'from doc("univ") {"president":{"ID":$i}} construct {"a":$i,"b":$i}': {"tuple-duplication"},
    'from doc("univ") {"schools":[{"name":$n,"dean":{"ID":$d}}]} '
    'construct {"s":[{"d":$d,"pair":{"n":$n,"n2":$n}}]}': {"tuple-association"},
}


def record_rules() -> dict[str, str]:
    """Query -> what `jpq --explain` prints for it on `fixtures/univ.json`."""
    engine = Engine(DocRegistry())
    engine.registry.register("univ", parse_document(document_sets()["fixture"]["univ"]))
    out = {}
    for query in RULE_QUERIES:
        q = parse_query(query)
        out[query] = f"{engine.explain(q)}\n{serialize(engine.run(q))}\n"
    return out


def _route_rules(text: str) -> set[str]:
    """The rule names in the route of an explain text."""
    return set(re.findall(r"^  \d+\. (\S+) @", text, re.MULTILINE))


def test_every_rewrite_rule_has_golden_coverage():
    got = record_rules()
    want = json.loads(GOLDEN_RULES.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    assert [query for query in want if got[query] != want[query]] == []
    for query, rules in RULE_QUERIES.items():
        assert rules <= _route_rules(got[query]), query
    texts = list(want.values()) + list(json.loads(GOLDEN.read_text(encoding="utf-8")).values())
    assert set().union(*map(_route_rules, texts)) == set(RULES)


def record_parses() -> str:
    """What `parse_query` gives for each of the first 500 mutated queries,
    one line each."""
    out = []
    for text in itertools.islice(mutated_queries(), 500):
        try:
            out.append(unparse_query(parse_query(text)))
        except JpqError as e:
            out.append(f"{type(e).__name__}: {e}")
    return "\n".join(out) + "\n"


def test_parse_outcomes_are_byte_identical():
    assert record_parses() == GOLDEN_PARSE.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    GOLDEN_RULES.write_text(
        json.dumps(record_rules(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    GOLDEN_PARSE.write_text(record_parses(), encoding="utf-8")
    GOLDEN_IDS.write_text(json.dumps(record_ids(), indent=1) + "\n", encoding="utf-8")
