"""Query execution: match, filter, resolve, restructure, build.

The engine owns a document registry; `run` takes a parsed query and returns
the constructed Value, `explain` describes the plan (matching term, backbone,
inferred route).  Routes depend on terms alone, so each engine keeps the
routes it inferred and the terms they pass through, keyed by (projected
matching term, backbone): a query shape is searched and replayed once per
engine, whatever documents are loaded later.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import ast as A
from .construct import build, build_empty
from .filtering import filter_result, resolve_options
from .matching import MatchResult, Matcher, MFailed, _combine, succeeded
from .model import DocRegistry, Value
from .rewrite import (
    Constraint,
    RewriteRoute,
    Transformer,
    infer_route,
    project_result,
    projected_source,
    replay,
)
from .terms import Term, render, var_set


@dataclass
class Plan:
    source_term: Term
    target_term: Term
    route: RewriteRoute
    # the terms the route passes through, from the source term keeping only
    # the backbone's variables to the term the result is built from
    terms: tuple[Term, ...]

    def describe(self) -> str:
        lines = [
            f"matching term: {render(self.source_term)}",
            f"backbone:      {render(self.target_term)}",
        ]
        if self.route:
            lines.append("route:")
            for i, step in enumerate(self.route, 1):
                lines.append(f"  {i}. {step.describe()}")
        else:
            lines.append("route:         (no restructuring needed)")
        return "\n".join(lines)


# routes an engine keeps; beyond this many, the least recently used is dropped
ROUTE_CACHE_SIZE = 128


class Engine:
    def __init__(self, registry: Optional[DocRegistry] = None):
        self.registry = registry or DocRegistry()
        self._routes: dict[tuple[Term, Term], tuple[RewriteRoute, tuple[Term, ...]]] = {}

    def plan(self, q: A.QueryAst) -> Plan:
        """The query's plan; a failed search is not kept."""
        source, target = q.term, q.construct.backbone
        projected = projected_source(source, target)
        key = (projected, target)
        planned = self._routes.pop(key, None)  # re-inserted last: LRU order
        if planned is None:
            route = infer_route(source, target)
            planned = (route, replay(projected, route))
            if len(self._routes) >= ROUTE_CACHE_SIZE:
                del self._routes[next(iter(self._routes))]
        self._routes[key] = planned
        return Plan(source, target, *planned)

    def _match(self, q: A.QueryAst, ids: Iterator[int]) -> MatchResult:
        matcher = Matcher(ids)
        parts = []
        for name, pattern in q.sources:
            doc = self.registry.lookup(name)
            parts.append((pattern.term, matcher.match_value(pattern, doc)))
        if any(not succeeded(r) for _, r in parts):
            return MFailed()
        return _combine(parts)

    def run(self, q: A.QueryAst) -> Value:
        plan = self.plan(q)
        source = plan.source_term
        ids = itertools.count(1)  # one identity space for the whole run
        result = self._match(q, ids)
        constraints: list[Constraint] = []
        if q.where is not None:
            result = filter_result(result, source, q.where, constraints)
        result = resolve_options(result)
        if not succeeded(result):
            return build_empty(q.construct)
        projected = project_result(result, source, var_set(plan.target_term))
        transformer = Transformer(constraints, ids)
        transformed = transformer.transform(projected, plan.terms, plan.route)
        return build(q.construct, plan.terms[-1], transformed)

    def explain(self, q: A.QueryAst) -> str:
        return self.plan(q).describe()
