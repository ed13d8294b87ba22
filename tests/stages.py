"""CPU time per pipeline stage of one query, in process.

`stage_times` reads `time.process_time` at each stage `Engine.stages`
yields and after serializing; `best_times` keeps each stage's best over
repeated runs with the garbage collector off, the sizes taken in turn so
that a slow spell of the machine falls on all of them alike.  The
documents are `bench/gen.py`'s seeded ones.  From the repository root:

    PYTHONPATH=src python3 -m tests.stages EX3-self-join 16x16 50x40 150x40
    PYTHONPATH=src python3 -m tests.stages people-jobs 200 800 3200 --repeat 5

prints one row of milliseconds per size.
"""

from __future__ import annotations

import argparse
import gc
import random
import time

from jpq.engine import Engine
from jpq.model import DocRegistry, parse_document, serialize
from jpq.parser import parse_query

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
    """Seconds of CPU per stage of one run of the query, and its output.  A
    stage the run skips (after a failed match or filter) reads 0."""
    q = parse_query(text)
    engine.plan(q)  # planned before the clock starts
    times, start = dict.fromkeys(STAGES, 0.0), time.process_time()
    for stage, value in engine.stages(q):
        now = time.process_time()
        times[stage], start = now - start, now
    out = serialize(value)
    times["serialize"] = time.process_time() - start
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
