"""Query execution: match, filter, resolve, restructure, build.

The engine owns a document registry; `stages` yields a run's stage results,
`run` drains them for the constructed Value, and `explain` describes the
plan (matching term, backbone, inferred route).  A plan depends on the
query's matching term, construction and where clause alone: it holds the
route, the terms the route passes through, the source subterms option
resolution enters, the projection onto the backbone's variables and the
where clause with its sweep, compiled against the matching term, and the
construction, against the route's last term.  Each engine keeps its plans,
keyed by (matching term, construction text, where text), all three derived
once per query, so a query is planned and compiled once per engine, whatever
documents are loaded later, and a warm lookup unparses nothing; queries of
one (projected matching term, backbone) shape share one route search.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from . import ast as A
from .construct import Build, build, compile_construction
from .filtering import Where, compile_where, filter_result, resolve_options
from .matching import Matcher, MFailed, _combine, succeeded
from .model import DocRegistry, Value
from .rewrite import (
    Constraint,
    RewriteRoute,
    Transformer,
    compile_projection,
    infer_route,
    project_result,
    replay,
)
from .terms import Record, Term, optioned, projection, render, var_set


class Plan(Record):
    source_term: Term
    target_term: Term
    route: RewriteRoute
    # the terms the route passes through, from the source term keeping only
    # the backbone's variables to the term the result is built from
    terms: tuple[Term, ...]
    options: frozenset  # `optioned(source_term)`
    project: Optional[Callable]  # `projection(source_term, backbone variables)`, compiled
    where: Optional[Where]  # the where clause and the sweep, compiled against source_term
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
        self._routes: dict[tuple[Term, str, Optional[str]], Plan] = {}

    def plan(self, q: A.QueryAst) -> Plan:
        """The query's plan; a failed search is not kept.  A new plan takes
        its route from a kept plan of the same shape, if there is one."""
        # text, not the Condition: record equality takes `1` for `true`
        key = (q.term, *q.texts)
        plan = self._routes.pop(key, None)  # re-inserted last: LRU order
        if plan is None:
            source, target = q.term, q.construct.backbone
            shown = projection(source, var_set(target))
            shape = (shown[source] or source, target)
            same = [p for p in self._routes.values() if (p.terms[0], p.target_term) == shape]
            route = same[0].route if same else infer_route(source, target, shape[0])
            terms = same[0].terms if same else replay(shape[0], route)
            plan = Plan(source, target, route, terms, optioned(source),
                        compile_projection(source, shown),
                        None if q.where is None else compile_where(q.where, source),
                        compile_construction(q.construct, terms[-1]))
            if len(self._routes) >= ROUTE_CACHE_SIZE:
                del self._routes[next(iter(self._routes))]
        self._routes[key] = plan
        return plan

    def stages(self, q: A.QueryAst) -> Iterator[tuple[str, object]]:
        """The run of q, one stage at a time: yields (stage name, its result)
        after each of match, filter, project (option resolution and the
        projection onto the backbone's variables), transform and build.  A
        failed match, or one the filter fails, goes straight to build."""
        plan = self.plan(q)
        ids = itertools.count(1)  # one identity space for the whole run
        matcher = Matcher(ids)
        parts = [(p.term, matcher.match_value(p, self.registry.lookup(d))) for d, p in q.sources]
        result = _combine(parts) if all(succeeded(r) for _, r in parts) else MFailed()
        del parts  # holds the match's trees, which the filter may replace
        yield "match", result
        constraints: list[Constraint] = []
        if plan.where is not None:
            result = filter_result(result, plan.source_term, plan.where, constraints)
        yield "filter", result
        result = resolve_options(result, plan.source_term, plan.options)
        if succeeded(result):
            result = project_result(result, plan.project)
            yield "project", result
            result = Transformer(constraints, ids).transform(result, plan.terms, plan.route)
            yield "transform", result
        yield "build", build(q.construct, plan.build, result)

    def run(self, q: A.QueryAst) -> Value:
        for _, value in self.stages(q):
            pass
        return value

    def explain(self, q: A.QueryAst) -> str:
        return self.plan(q).describe()
