"""CPU time per pipeline stage of one query, in process.

`stage_times` runs a query as `Engine.run` does, stage by stage, and times
each stage with `time.process_time`; `best_times` keeps each stage's best
over repeated runs with the garbage collector off, the sizes taken in turn
so that a slow spell of the machine falls on all of them alike.  The
documents are `bench/gen.py`'s seeded ones.  From the repository root:

    PYTHONPATH=src python3 -m tests.stages EX3-self-join 16x16 50x40 150x40
    PYTHONPATH=src python3 -m tests.stages people-jobs 200 800 3200 --repeat 5

prints one row of milliseconds per size.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import random
import time

from jpq.construct import build, build_empty
from jpq.engine import Engine
from jpq.filtering import filter_result, resolve_options
from jpq.matching import succeeded
from jpq.model import DocRegistry, parse_document, serialize
from jpq.parser import parse_query
from jpq.rewrite import Transformer, project_result

from .test_golden import T, gen

STAGES = ("match", "filter", "project", "transform", "build", "serialize")
TEMPLATES = {t.name: t for t in T.ALL}


def registry(template, size: str, seed: int = 3) -> DocRegistry:
    """The template's documents at `size`: `SxF` schools by faculty for a
    university, `N` people and as many jobs for people/jobs."""
    reg = DocRegistry()
    if template.docs == ("univ",):
        schools, faculty = (int(n) for n in size.split("x"))
        docs = {"univ": gen.univ(random.Random(seed), schools, faculty)}
    else:
        docs = dict(zip(template.docs, gen.people_jobs(random.Random(seed), int(size))))
    for name, doc in docs.items():
        reg.register(name, parse_document(gen.dump(doc)))
    return reg


def stage_times(engine: Engine, text: str) -> tuple[dict[str, float], str]:
    """Seconds of CPU per stage of one run of the query, and its output."""
    q = parse_query(text)
    plan = engine.plan(q)
    times, clock = {}, time.process_time
    start = clock()

    def lap(stage: str) -> None:
        nonlocal start
        now = clock()
        times[stage], start = now - start, now

    ids = itertools.count(1)
    r = engine._match(q, ids)
    lap("match")
    constraints: list = []
    if plan.where is not None:
        r = filter_result(r, plan.source_term, plan.where, constraints)
    lap("filter")
    r = resolve_options(r, plan.source_term, plan.options)
    if succeeded(r):
        r = project_result(r, plan.source_term, plan.shown)
        lap("project")
        r = Transformer(constraints, ids).transform(r, plan.terms, plan.route)
        lap("transform")
        value = build(q.construct, plan.build, r)
    else:
        times.update(project=0.0, transform=0.0)
        value = build_empty(q.construct)
    lap("build")
    out = serialize(value)
    lap("serialize")
    return times, out


def best_times(runs: dict, repeat: int) -> dict:
    """For each key's (engine, query text), the least seconds per stage over
    `repeat` rounds, each round running every key once in turn, gc off."""
    best = {k: dict.fromkeys(STAGES, float("inf")) for k in runs}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            for k, (engine, text) in runs.items():
                gc.collect()
                times, _ = stage_times(engine, text)
                best[k] = {s: min(best[k][s], times[s]) for s in STAGES}
    finally:
        if enabled:
            gc.enable()
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("template", choices=sorted(TEMPLATES))
    parser.add_argument("sizes", nargs="+", help="SxF for a university, N for people/jobs")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    template = TEMPLATES[args.template]
    runs = {size: (Engine(registry(template, size)), template.text) for size in args.sizes}
    best = best_times(runs, args.repeat)
    print("| size | " + " | ".join(STAGES) + " |")
    print("| --- " * (len(STAGES) + 1) + "|")
    for size, times in best.items():
        print(f"| {size} | " + " | ".join(f"{times[s] * 1e3:.1f}" for s in STAGES) + " |")


if __name__ == "__main__":
    main()
