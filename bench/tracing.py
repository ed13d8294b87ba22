"""Spans and counts recorded around calls into jpq, from outside the package.

`Tracer.install` replaces each target function with a wrapper: on the class
for methods, and for module-level functions on every `jpq.*` module attribute
bound to that function, so calls through `from .x import f` aliases are seen
too.  `uninstall` restores the originals.  Nothing inside `src/` is changed.

A span records its layer name, start and end, the index of its parent span
and the benchmark op it belongs to.  Recursive entry points open a span at
the outermost call only and count every call.  Counted-only targets add to
a counter keyed by the enclosing span's layer, so rule applications can be
attributed to route search or to replay.  A target that no longer exists is
listed in `missing`; metrics derived from it are reported as missing, not 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

SPAN = "span"          # a span per call
OUTER = "outer"        # a span at the outermost call, a count at every call
COUNT = "count"        # a count per call, no span


@dataclass(frozen=True)
class Target:
    layer: str         # metric prefix, e.g. "matching.match_value"
    module: str        # e.g. "jpq.matching"
    qualname: str      # "match_value" or "Matcher.match_value"
    mode: str = SPAN


TARGETS = (
    Target("cli.run_query", "jpq.cli", "run_query"),
    Target("engine.run", "jpq.engine", "Engine.run"),
    Target("parser.parse_query", "jpq.parser", "parse_query"),
    Target("ast.validate_query", "jpq.ast", "validate_query"),
    Target("rewrite.infer_route", "jpq.rewrite", "infer_route"),
    Target("rewrite.apply_rule", "jpq.rewrite", "apply_rule", COUNT),
    Target("model.parse_document", "jpq.model", "parse_document"),
    Target("matching.match_value", "jpq.matching", "Matcher.match_value", OUTER),
    Target("filtering.filter_result", "jpq.filtering", "filter_result", OUTER),
    Target("filtering.resolve_options", "jpq.filtering", "resolve_options", OUTER),
    Target("rewrite.project_result", "jpq.rewrite", "project_result"),
    Target("rewrite.transform", "jpq.rewrite", "Transformer.transform"),
    Target("rewrite.replay", "jpq.rewrite", "replay"),
    Target("rewrite.Constraint.allows", "jpq.rewrite", "Constraint.allows", COUNT),
    Target("construct.build", "jpq.construct", "build"),
    Target("model.serialize", "jpq.model", "serialize"),
)


_INHERITED = object()


def _constraint_count(args) -> int | None:
    """Length of filter_result's `constraints` list argument, if passed."""
    if len(args) > 3 and isinstance(args[3], list):
        return len(args[3])
    return None


@dataclass
class Span:
    layer: str
    start: float
    parent: int          # index into Tracer.spans, -1 for a root
    op: int
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()   # (layer, enclosing layer) -> calls
        self.missing: list[str] = []
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- spans ----------------------------------------------------------------

    def begin(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, time.perf_counter(), parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def _enclosing(self) -> str:
        return self.spans[self._open[-1]].layer if self._open else ""

    # -- patching ---------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        layer, mode = target.layer, target.mode
        counts, depth = self.counts, self._depth

        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[layer, self._enclosing()] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if mode == OUTER:
                counts[layer, ""] += 1
                if depth[layer]:
                    return fn(*args, **kwargs)
            depth[layer] += 1
            index = self.begin(layer)
            before = _constraint_count(args)
            try:
                result = fn(*args, **kwargs)
                self._observe(self.spans[index], args, result, before)
                return result
            finally:
                depth[layer] -= 1
                self.end(index)
        return spanned

    @staticmethod
    def _observe(span: Span, args, result, before: int | None) -> None:
        """Work sizes read off a call's arguments and result."""
        if span.layer == "model.parse_document" and args and isinstance(args[0], str):
            span.info["bytes"] = len(args[0].encode("utf-8"))
        elif span.layer == "rewrite.infer_route":
            span.info["steps"] = len(result)
        elif span.layer == "filtering.filter_result" and before is not None:
            # the constraints this call appended to the caller's list
            span.info["footprints"] = sum(len(c.footprints) for c in args[3][before:])

    def install(self) -> None:
        """Wrap every target in the currently imported `jpq` package."""
        self.missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(target.layer)
                continue
            wrapper = self._wrap(target, fn)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "jpq" or name.startswith("jpq."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reading back -------------------------------------------------------------

    def by_layer(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.layer, []).append(span)
        return out

    def calls(self, layer: str, enclosing: str | None = None) -> int:
        return sum(n for (name, encl), n in self.counts.items()
                   if name == layer and (enclosing is None or encl == enclosing))

    def dump(self, path: str) -> None:
        """Write the spans and counts, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "layer": s.layer, "op": s.op,
                                    "parent": s.parent, "start": s.start,
                                    "end": s.end, "self_s": s.self_s, **s.info}) + "\n")
            for (layer, encl), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": layer, "within": encl, "calls": n}) + "\n")
