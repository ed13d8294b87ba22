"""jpq benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload small-session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is one client in a closed loop, in this one process, with no
extra threads.  Inputs come from `--seed` through `bench/gen.py`; jpq receives
only the generated JSON.  Ops run in rounds: a round is a seeded shuffle of
the workload's fixed multiset of ops, and the run stops at the round boundary
nearest `--seconds`, so every run has the same mix of ops.  Every output is
checked against the template's plain-Python oracle (`bench/templates.py`);
an op fails when its output differs or it raises.

Timings are reported scaled to a reference speed (see CAL_REF_S), next to
the values as timed.  Each op starts after a full collection, and set-up
(import, plus loading the session's documents) is timed again between
rounds; the median is reported.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` rounds alternate untraced and traced, the traced ones give the
per-layer metrics (`bench/tracing.py`) and their ratio gives the trace
overhead.  The last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import templates as T  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUPS_PER_ROUND = 2
# Timings are scaled to a reference speed: a machine on which `calibrate()`
# takes CAL_REF_S (about its time on a 2-core shared x86 sandbox).  Such
# sandboxes change CPU rate by a third or more over seconds to minutes; the
# calibration loop, run just before every op and every timed set-up, slows
# down with them, and time divided by calibration time varies less.
CAL_REF_S = 0.003
TAIL_BEYOND = 10
PROBE_QUERY = (
    'from doc("d") {"a":[{"x":$a,"ys":[{"z":$b,"ws":[$c]}]}]} '
    'construct [{"c":^[^[$c]]%,"v":[{"a":$a,"b":$b}]}] groupby ^[^[$c]]%'
)


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    template: T.Template
    docs: tuple[str, ...]          # document names, one per template placeholder
    explain: bool = False          # an `:explain` before the `:run`

    @property
    def names(self) -> dict[str, str]:
        return dict(zip(self.template.docs, self.docs))

    @property
    def label(self) -> str:
        return f"{self.template.name}{'+explain' if self.explain else ''}@{'+'.join(self.docs)}"


@dataclass
class Workload:
    name: str
    cli: bool                      # True: each op is a fresh `jpq.cli.run_query`
    docs: dict[str, object]        # document name -> raw JSON value
    round: list[Op]


def small_session(rng: random.Random) -> Workload:
    """One Engine over the fixture, small scale-ups and a small people/jobs
    pair.  A round: 6 plan-heavy ops, so the tail falls among them; 5
    array-branch runs, so the median falls among these alike ops; and 12
    others, 5 of the 23 being explain-then-run pairs."""
    with open(os.path.join(ROOT, "fixtures", "univ.json"), encoding="utf-8") as f:
        fixture = json.load(f)
    docs = {"univ": fixture}
    for s, f_ in ((2, 3), (3, 3), (4, 4)):
        docs[f"u{s}x{f_}"] = gen.univ(rng, s, f_)
    docs["people"], docs["jobs"] = gen.people_jobs(rng, 12)
    round_ = [
        Op(T.EX5, ("univ",)), Op(T.EX5, ("u4x4",)), Op(T.EX5, ("u3x3",)),
        Op(T.EX5_DEAN, ("u2x3",)), Op(T.EX5_DEAN, ("u3x3",)), Op(T.EX5_DEAN, ("u4x4",)),
        *(Op(T.ARRAY_BRANCH, (d,)) for d in ("univ", "u2x3", "u3x3", "u4x4", "u4x4")),
        Op(T.EX5_NESTED, ("u2x3",)), Op(T.EX5_NESTED, ("u3x3",), True),
        Op(T.ARRAY_BRANCH, ("univ",), True), Op(T.EX1, ("univ",), True),
        Op(T.EX1, ("u3x3",)), Op(T.EX2, ("u4x4",)), Op(T.EX2, ("univ",), True),
        Op(T.EX3, ("u4x4",)), Op(T.EX3, ("univ",), True), Op(T.EX4, ("u2x3",)),
        Op(T.EX6, ("u3x3",)), Op(T.PEOPLE_JOBS, ("people", "jobs")),
    ]
    return Workload("small-session", False, docs, round_)


def join_large(rng: random.Random) -> Workload:
    """EX3 self-joins on five 12-20 x 12-20 documents and a 200 x 200
    people/jobs join, sized so every op costs about the same: the median and
    the tail then both fall inside one group of alike ops."""
    docs = {f"univ_{s}x{f_}": gen.univ(rng, s, f_)
            for s, f_ in ((12, 20), (20, 12), (16, 16), (14, 18), (18, 14))}
    docs["people"], docs["jobs"] = gen.people_jobs(rng, PEOPLE)
    round_ = [Op(T.EX3, (name,)) for name in docs if name.startswith("univ")]
    round_.append(Op(T.PEOPLE_JOBS, ("people", "jobs")))
    return Workload("join-large", True, docs, round_)


def scan_large(rng: random.Random) -> Workload:
    """Seven restructuring or single-array queries, no joins, on three
    150 x 40 documents; a round runs each query on each document."""
    docs = {f"univ_150x40{tag}": gen.univ(rng, 150, 40) for tag in "abc"}
    scans = (T.EX1, T.EX2, T.EMAILS_DESC, T.ROSTER, T.DESCENDANTS, T.EX4, T.EX6)
    round_ = [Op(t, (name,)) for name in docs for t in scans]
    return Workload("scan-large", True, docs, round_)


PEOPLE = 200
WORKLOADS = {"small-session": small_session, "join-large": join_large, "scan-large": scan_large}


# -- running -------------------------------------------------------------------------


def _purge_jpq() -> None:
    for name in [n for n in sys.modules if n == "jpq" or n.startswith("jpq.")]:
        del sys.modules[name]


class Session:
    """The program under test: the constructor imports jpq and, for a session
    workload, loads the documents into one Engine, and times both."""

    def __init__(self, wl: Workload, texts: dict[str, str], paths: dict[str, str]):
        _purge_jpq()
        start = time.perf_counter()
        self.jpq = importlib.import_module("jpq")
        if wl.cli:
            self.cli = importlib.import_module("jpq.cli")
        else:
            registry = self.jpq.DocRegistry()
            for name, text in texts.items():
                registry.register(name, self.jpq.parse_document(text))
            self.engine = self.jpq.Engine(registry)
        self.setup_s = time.perf_counter() - start
        self.paths = paths

    def run(self, op: Op, query: str) -> str:
        """One op; module attributes are looked up per call so traced
        wrappers are seen."""
        if op.explain:
            self.engine.explain(self.jpq.parse_query(query))
        if hasattr(self, "cli"):
            config = self.cli.CliConfig(
                docs=[(name, self.paths[name]) for name in op.docs], query_text=query
            )
            out, err = io.StringIO(), io.StringIO()
            code = self.cli.run_query(config, out=out, err=err)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()
        return self.jpq.serialize(self.engine.run(self.jpq.parse_query(query)))


@dataclass
class Sample:
    latency_s: float
    ok: bool
    traced: bool
    op: int
    template: str
    label: str
    scale: float          # CAL_REF_S over the calibration just before the op


def calibrate() -> float:
    """Seconds for fixed interpreter work that does not involve jpq: tuples,
    lists, type tests, integer arithmetic and a dict keyed by int tuples.
    Ints hash the same in every process, so its speed does not depend on the
    hash seed; it keeps nothing and runs with the collector off, so the
    program's heap cannot slow it down."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        seen: dict = {}
        for i in range(5000):
            row = (i, [i * 3, i + 1])
            if isinstance(row[1], list):
                acc += abs(row[1][0] - row[0]) % 7 + len(row[1])
            key = (i % 97, i % 89)
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_setup(wl: Workload, texts: dict[str, str], paths: dict[str, str]) -> float:
    """One more set-up, timed and thrown away; the running session keeps its
    own modules."""
    kept = {n: m for n, m in sys.modules.items() if n == "jpq" or n.startswith("jpq.")}
    try:
        return Session(wl, texts, paths).setup_s
    finally:
        _purge_jpq()
        sys.modules.update(kept)


def measure(session: Session, wl: Workload, rng: random.Random, seconds: float,
            expected: dict, tracer: Tracer | None, setup) -> tuple[list[Sample], float]:
    """Closed loop over whole rounds, ending at the round boundary nearest
    to `seconds` (at least one round; two when traced).  Between rounds
    `setup` times more set-ups, so set-up samples spread over the run like
    the ops do.  Returns the samples and the wall time of the measured phase,
    excluding the benchmark's own checks, set-ups and calibrations."""
    samples: list[Sample] = []
    excluded_s = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        order = list(wl.round)
        rng.shuffle(order)
        for op in order:
            query = op.template.query(op.names)
            index = len(samples)
            t0 = time.perf_counter()
            gc.collect()  # each op starts from the same collector state
            scale = CAL_REF_S / calibrate()
            excluded_s += time.perf_counter() - t0
            if traced:
                tracer.op = index
                root = tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                output = session.run(op, query)
                error = None
            except Exception as exc:  # any raise fails the op; the loop goes on
                output, error = None, exc
            t1 = time.perf_counter()
            if traced:
                tracer.end(root)
            ok = error is None and T.check(op.template, output, expected[op])
            if not ok:
                reason = repr(error) if error else f"output differs from oracle: {output[:200]}"
                print(f"FAILED op {index} {op.label}: {reason}", file=sys.stderr)
            samples.append(Sample(t1 - t0, ok, traced, index, op.template.name, op.label,
                                  scale))
            excluded_s += time.perf_counter() - t1
        if traced:
            tracer.uninstall()
        rounds += 1
        t0 = time.perf_counter()
        setup()
        excluded_s += time.perf_counter() - t0
        spent = time.perf_counter() - start
        if spent + spent / rounds / 2 > seconds and (tracer is None or rounds >= 2):
            break
    return samples, time.perf_counter() - start - excluded_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(samples: list[Sample], wall_s: float, setup_s: float,
               scaled: bool) -> tuple[dict, str]:
    """Scaled or as timed: each op's latency times its own scale, the wall
    time times the op-time-weighted mean scale (see CAL_REF_S)."""
    lat = [s.latency_s * 1000 * (s.scale if scaled else 1.0) for s in samples]
    scale = mean_scale(samples) if scaled else 1.0
    tail_ms, pct = tail(lat)
    metrics = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(samples) / wall_s / scale, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = f"tail = p{pct:.1f} over {len(lat)} ops ({TAIL_BEYOND} beyond)"
    return metrics, note


def mean_scale(samples: list[Sample]) -> float:
    """The scale of the samples' total op time."""
    return (sum(s.latency_s * s.scale for s in samples)
            / sum(s.latency_s for s in samples))


def per_layer(tracer: Tracer, samples: list[Sample], untraced_rate: float,
              traced_rate: float, scale: float) -> tuple[dict, list[str]]:
    """Per-op means over the traced ops, times multiplied and rates divided
    by `scale`; a metric whose target is missing is left out and named in
    the returned list."""
    traced_ops = {s.op for s in samples if s.traced}
    n = len(traced_ops)
    spans = [s for s in tracer.spans if s.op in traced_ops]
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.layer, []).append(s)
    missing = set(tracer.missing)

    def total(layer, attr="self_s"):
        return sum(getattr(s, attr) if attr == "self_s" else s.info.get(attr, 0)
                   for s in by.get(layer, []))

    def inclusive(layer):
        return sum(s.end - s.start for s in by.get(layer, []))

    apply_in_search = tracer.calls("rewrite.apply_rule", "rewrite.infer_route")
    steps = total("rewrite.infer_route", "steps")
    # parse rate over every traced parse, the traced set-up's included
    parses = [s for s in tracer.spans if s.layer == "model.parse_document"]
    parse_s = sum(s.self_s for s in parses)
    parse_bytes = sum(s.info.get("bytes", 0) for s in parses)
    op_s = inclusive("bench.op")
    m: dict[str, tuple] = {}
    for layer in ("parser.parse_query", "ast.validate_query", "rewrite.infer_route",
                  "model.parse_document", "matching.match_value", "filtering.filter_result",
                  "filtering.resolve_options", "rewrite.project_result", "rewrite.transform",
                  "rewrite.replay", "construct.build", "model.serialize", "engine.run",
                  "cli.run_query"):
        m[f"{layer}.self_s"] = (total(layer) / n * scale, "s/op", layer)
    for layer in ("ast.validate_query", "rewrite.infer_route"):
        m[f"{layer}.calls"] = (len(by.get(layer, [])) / n, "calls/op", layer)
    for layer in ("rewrite.apply_rule", "matching.match_value", "rewrite.Constraint.allows"):
        m[f"{layer}.calls"] = (tracer.calls(layer) / n, "calls/op", layer)
    m["rewrite.route_steps"] = (steps / n, "steps/op", "rewrite.infer_route")
    m["rewrite.plan_useful_ratio"] = (steps / apply_in_search if apply_in_search else 0.0,
                                      "ratio", "rewrite.apply_rule")
    m["model.parse_document.mb_per_s"] = (
        parse_bytes / parse_s / 1e6 / scale if parse_s else 0.0,
        "MB/s", "model.parse_document")
    m["filtering.footprints"] = (total("filtering.filter_result", "footprints") / n,
                                 "tuples/op", "filtering.filter_result")
    m["share.plan_pct"] = (100 * inclusive("rewrite.infer_route") / op_s, "%",
                           "rewrite.infer_route")
    m["share.filter_transform_pct"] = (
        100 * (inclusive("filtering.filter_result") + inclusive("rewrite.transform")) / op_s,
        "%", "filtering.filter_result")
    m["trace.overhead_pct"] = (100 * (untraced_rate / traced_rate - 1), "%", "")
    kept = {k: (v, unit) for k, (v, unit, layer) in m.items() if layer not in missing}
    return kept, sorted(k for k, (_, _, layer) in m.items() if layer in missing)


def traced_setup(session: Session, texts: dict[str, str], tracer: Tracer) -> None:
    """Parse a session's documents once more under the tracer, so the
    parse rate behind its set-up time is measured too; not a workload op."""
    tracer.install()
    tracer.op = -2
    root = tracer.begin("bench.setup")
    for text in texts.values():
        session.jpq.parse_document(text)
    tracer.end(root)
    tracer.uninstall()


def probe(session: Session, tracer: Tracer) -> dict:
    """Time to a verdict for the doubly flattened groupby the planner cannot
    route within its budget; not a workload op."""
    tracer.install()
    tracer.op = -1
    before = tracer.calls("rewrite.apply_rule")
    t0 = time.perf_counter()
    try:
        text = session.jpq.Engine().explain(session.jpq.parse_query(PROBE_QUERY))
        verdict = "route" if "route:" in text else "no route"
    except Exception as exc:  # the verdict is whatever the planner says
        verdict = type(exc).__name__
    elapsed = time.perf_counter() - t0
    tracer.uninstall()
    calls = tracer.calls("rewrite.apply_rule") - before
    return {"verdict": verdict, "verdict_s": elapsed, "apply_rule_calls": calls}


def stage_shares(tracer: Tracer, samples: list[Sample]) -> dict[str, float]:
    """Each layer's self time as a share of traced op time."""
    traced_ops = {s.op for s in samples if s.traced}
    spans = [s for s in tracer.spans if s.op in traced_ops]
    op_s = sum(s.end - s.start for s in spans if s.layer == "bench.op")
    shares: dict[str, float] = {}
    for s in spans:
        shares[s.layer] = shares.get(s.layer, 0.0) + s.self_s / op_s
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def repeat_share(wl: Workload, samples: list[Sample]) -> float:
    """Share of ops whose (matching term, backbone) pair already ran on the
    same Engine: every template has its own pair, and a CLI op gets a fresh
    Engine each time."""
    if wl.cli:
        return 0.0
    seen, repeats = set(), 0
    for s in samples:
        repeats += s.template in seen
        seen.add(s.template)
    return repeats / len(samples)


def _rate(samples: list[Sample]) -> float:
    return len(samples) / sum(s.latency_s for s in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "jpq", "__init__.py")):
        print(f"error: jpq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    rng = random.Random(seed)
    wl = WORKLOADS[name](rng)
    texts = {n: gen.dump(d) for n, d in wl.docs.items()}
    expected = {op: op.template.oracle(*(wl.docs[d] for d in op.docs)) for op in wl.round}
    docs = {n: {"bytes": len(t.encode("utf-8")), "elements": gen.count_elements(wl.docs[n])}
            for n, t in texts.items()}
    wl.docs.clear()
    # the benchmark's own data stays out of the collector's way during the run
    gc.collect()
    gc.freeze()
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    paths = {}
    try:
        if wl.cli:
            os.makedirs(workdir, exist_ok=True)
            for n, text in texts.items():
                paths[n] = os.path.join(workdir, f"{n}.json")
                with open(paths[n], "w", encoding="utf-8") as f:
                    f.write(text)
        session = Session(wl, texts, paths)
        setup_times = [(session.setup_s, 1.0)]

        def setup():
            for _ in range(SETUPS_PER_ROUND):
                gc.collect()  # the modules the last set-up dropped are cyclic garbage
                scale = CAL_REF_S / calibrate()
                setup_times.append((timed_setup(wl, texts, paths), scale))

        tracer = Tracer() if trace else None
        samples, wall_s = measure(session, wl, rng, seconds, expected, tracer, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    # the first set-up also imports the standard library modules jpq uses; it
    # has no calibration of its own and counts only as timed
    e2e, note = end_to_end(samples, wall_s,
                           statistics.median(t * k for t, k in setup_times[1:]),
                           True)
    raw, _ = end_to_end(samples, wall_s, statistics.median(t for t, _ in setup_times), False)
    scale = mean_scale(samples)
    props = {"workload": name, "ops": len(samples), "ops_per_round": len(wl.round),
             "repeat_share": round(repeat_share(wl, samples), 4),
             "documents": docs}
    print(f"{name}: seed {seed}, {len(samples)} ops in {len(samples) // len(wl.round)} "
          f"rounds of {len(wl.round)}; {note}; mean speed scale {scale:.4f}")
    by_op: dict[str, list[float]] = {}
    for s in samples:
        by_op.setdefault(s.label, []).append(s.latency_s * 1000)
    print("  median ms by op: " + ", ".join(
        f"{k} {statistics.median(v):.1f}" for k, v in sorted(by_op.items())))
    if not trace:
        print(f"  {'metric':18s} {'scaled':>12s} {'as timed':>12s}")
        for k, (v, unit) in e2e.items():
            print(f"  {k:18s} {v:12.4f} {raw[k][0]:12.4f} {unit}")
        print(f"  {'error_rate':18s} {failed / len(samples):12.4f} {'':12s} "
              f"failed/attempted = {failed}/{len(samples)}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in e2e.items()}
    else:
        if not wl.cli:
            traced_setup(session, texts, tracer)
        traced = [s for s in samples if s.traced]
        scale = mean_scale(traced)
        layers, missing = per_layer(tracer, samples,
                                    _rate([s for s in samples if not s.traced]),
                                    _rate(traced), scale)
        p = probe(session, tracer)
        layers["probe.verdict_s"] = (p["verdict_s"] * scale, "s")
        layers["probe.apply_rule.calls"] = (float(p["apply_rule_calls"]), "calls")
        props["stage_self_shares"] = stage_shares(tracer, samples)
        props["probe"] = p
        for k, (v, unit) in layers.items():
            print(f"  {k:36s} {v:14.6g} {unit}")
        for k in missing:
            print(f"  {k:36s} {'MISSING':>14s} (wrapped name no longer exists)")
        print(f"  probe verdict: {p['verdict']} after {p['verdict_s']:.3f} s")
        os.makedirs(WORK, exist_ok=True)
        tracer.dump(os.path.join(WORK, f"trace-{name}-{seed}.jsonl"))
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    print("properties: " + json.dumps(props))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; relays their reports."""
    status, props = 0, {"seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        if not result.get("correct"):
            status = 1
        for line in lines:
            if line.startswith("properties: "):
                props[name] = json.loads(line[len("properties: "):])
                props[name]["metrics"] = {k: v["value"] for k, v in
                                          result.get("metrics", {}).items()}
    if args.properties:
        with open(args.properties, "w", encoding="utf-8") as f:
            json.dump(props, f, indent=1)
            f.write("\n")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--properties", metavar="PATH",
                   help="with --workload all: write each workload's properties here")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
