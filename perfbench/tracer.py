"""Span tracing from outside the library.

The tracer wraps public callables of ``repro`` at the attribute their
callers resolve at call time (a class attribute for methods, the
importing module's global for functions), so the library itself is not
changed.  Spans are kept in memory: per-name call counts, inclusive and
self time for every span, and the raw span records of the first
``keep_spans`` spans, which :meth:`Tracer.write_spans` writes out at
the end of a run.

Self time is a span's duration minus the time covered by its child
spans.  Spans of one thread nest, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterator

_MISSING = object()

# (span name, "module:attr" or "module:Class.attr" resolved by callers).
GROUPS: dict[str, list[tuple[str, str]]] = {
    "build": [
        ("build.tree", "repro.core.engine:build_tree_decomposition"),
        ("build.labels", "repro.core.engine:build_labels"),
        ("build.pruning", "repro.core.engine:build_pruning_index"),
    ],
    "query": [
        ("service.query", "repro.service.ladder:QueryService.query"),
        ("flight.record", "repro.observability.flight:FlightRecorder.record"),
        ("engine.query", "repro.core.qhl:QHLEngine.query"),
        ("engine.query", "repro.core.flat:FlatQHLEngine.query"),
        ("engine.query", "repro.baselines.csp2hop:CSP2HopEngine.query"),
        ("engine.query",
         "repro.baselines.sky_dijkstra:SkyDijkstraEngine.query"),
        ("hierarchy.lca", "repro.hierarchy.lca:LCAIndex.relation"),
        ("core.separator_init", "repro.core.qhl:initial_separators"),
        ("core.separator_init", "repro.core.flat:initial_separators"),
        ("core.pruning", "repro.core.pruning:PruningConditionIndex.prune"),
        ("core.hoplink_select", "repro.core.qhl:estimated_cost"),
        ("core.concat", "repro.core.qhl:concat_best_under"),
    ],
    "batch": [
        ("batch.sort", "repro.perf.batch:sorted_batch_order"),
    ],
    "update": [
        ("update.apply", "repro.dynamic.epochs:EpochManager.apply"),
        ("dynamic.journal_append",
         "repro.dynamic.journal:UpdateJournal.append"),
        ("dynamic.clone", "repro.dynamic.updates:DynamicQHLIndex.clone"),
        ("dynamic.repair",
         "repro.dynamic.updates:DynamicQHLIndex.apply_deltas"),
        ("dynamic.pruning_rebuild",
         "repro.dynamic.updates:build_pruning_index"),
        ("resilience.audit", "repro.dynamic.epochs:audit_index"),
        ("storage.flat_pack", "repro.dynamic.epochs:save_flat_index"),
        ("storage.flat_load", "repro.dynamic.epochs:load_flat_index"),
    ],
}


def _pruned(args: tuple, result) -> bool:
    """A prune call is useful when it dropped at least one hoplink."""
    return result is not None and len(result) < len(args[3])


# Span name -> predicate(args, result) counting useful outcomes.
OUTCOMES: dict[str, Callable[[tuple, object], bool]] = {
    "core.pruning": _pruned,
}


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory spans and per-name aggregates of wrapped calls."""

    def __init__(self, keep_spans: int = 20000) -> None:
        self.keep_spans = keep_spans
        self.calls: dict[str, int] = defaultdict(int)
        self.useful: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: Id shared by the spans of one request: each outermost span
        #: starts a new one.
        self.request = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                self.request += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                parent = 0
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(spans) < self.keep_spans:
                    spans.append(
                        (span_id, parent, self.request, name, start, end)
                    )
            if outcome is not None and outcome(args, result):
                self.useful[name] += 1
            return result

        traced.perfbench_traced = True  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def installed(self, *groups: str) -> Iterator["Tracer"]:
        """Wrap every callable of ``groups``; restore them on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for group in groups:
                for name, target in GROUPS[group]:
                    owner, attr = _resolve(target)
                    original = vars(owner).get(attr, _MISSING)
                    saved.append((owner, attr, original))
                    setattr(
                        owner, attr, self._wrap(name, getattr(owner, attr))
                    )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """Write the kept raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def assert_uninstalled() -> None:
    """Fail if any wrapper is still in place, or if a ``repro`` global
    tracer, metrics registry or flight recorder was left enabled."""
    from repro.observability.flight import get_flight_recorder
    from repro.observability.metrics import get_registry
    from repro.observability.tracing import get_tracer

    for group in GROUPS.values():
        for _name, target in group:
            owner, attr = _resolve(target)
            if getattr(getattr(owner, attr), "perfbench_traced", False):
                raise RuntimeError(f"tracer wrapper left on {target}")
    for what, obj in (
        ("tracer", get_tracer()),
        ("metrics registry", get_registry()),
        ("flight recorder", get_flight_recorder()),
    ):
        if obj.enabled:
            raise RuntimeError(f"a global {what} was left installed")
