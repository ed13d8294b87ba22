"""Query execution: match, filter, resolve, restructure, build.

The engine owns a document registry; `run` takes a parsed query and returns
the constructed Value, `explain` describes the plan (matching term, backbone,
inferred route).  A plan depends on the query's matching term and
construction alone: it holds the route, the terms the route passes through,
the source subterms option resolution enters and their projections onto the
backbone's variables, and the construction compiled against the route's last
term.  Each engine keeps its plans, keyed by (matching term, construction
text), so a query is planned and compiled once per engine, whatever
documents are loaded later; queries of one (projected matching term,
backbone) shape share one route search.  The where clause is no part of a
plan: `filter_result` compiles it against the matching term on each run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import ast as A
from .construct import Build, build, build_empty, compile_construction
from .filtering import filter_result, resolve_options
from .matching import MatchResult, Matcher, MFailed, _combine, succeeded
from .model import DocRegistry, Value
from .rewrite import (
    Constraint,
    RewriteRoute,
    Transformer,
    infer_route,
    project_result,
    projection,
    replay,
)
from .terms import Term, optioned, render, var_set


@dataclass
class Plan:
    source_term: Term
    target_term: Term
    route: RewriteRoute
    # the terms the route passes through, from the source term keeping only
    # the backbone's variables to the term the result is built from
    terms: tuple[Term, ...]
    options: frozenset  # `optioned(source_term)`
    shown: dict[Term, Optional[Term]]  # `projection(source_term, backbone variables)`
    build: Build  # the construction, compiled against terms[-1]

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


# plans an engine keeps; beyond this many, the least recently used is dropped
ROUTE_CACHE_SIZE = 128


class Engine:
    def __init__(self, registry: Optional[DocRegistry] = None):
        self.registry = registry or DocRegistry()
        self._routes: dict[tuple[Term, str], Plan] = {}

    def plan(self, q: A.QueryAst) -> Plan:
        """The query's plan; a failed search is not kept.  A new plan takes
        its route from a kept plan of the same shape, if there is one."""
        key = (q.term, A.unparse_construction(q.construct))
        plan = self._routes.pop(key, None)  # re-inserted last: LRU order
        if plan is None:
            source, target = q.term, q.construct.backbone
            shown = projection(source, var_set(target))
            shape = (shown[source] or source, target)
            same = [p for p in self._routes.values() if (p.terms[0], p.target_term) == shape]
            route = same[0].route if same else infer_route(source, target)
            terms = same[0].terms if same else replay(shape[0], route)
            plan = Plan(source, target, route, terms, optioned(source), shown,
                        compile_construction(q.construct, terms[-1]))
            if len(self._routes) >= ROUTE_CACHE_SIZE:
                del self._routes[next(iter(self._routes))]
        self._routes[key] = plan
        return plan

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
        result = resolve_options(result, source, plan.options)
        if not succeeded(result):
            return build_empty(q.construct)
        projected = project_result(result, source, plan.shown)
        transformer = Transformer(constraints, ids)
        transformed = transformer.transform(projected, plan.terms, plan.route)
        return build(q.construct, plan.build, transformed)

    def explain(self, q: A.QueryAst) -> str:
        return self.plan(q).describe()
