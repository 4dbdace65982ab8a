"""The three benchmark workloads, run against ``repro``'s public API.

Every workload is one process with one closed-loop client: the next
request is sent when the previous one returns.  The only other
processes are the ``workers=2`` fan-out of ``zipf-batch``.  Inputs come
from the seed alone; the network is the fixed NY/benchmark generator
output.  Each workload returns a :class:`Result` holding

* the end-to-end metrics (untraced run) or per-layer metrics (traced
  run), by name;
* an op-count fingerprint that repeats exactly for a given seed and
  code version, because it is summed over a fixed prefix of the work;
* attempted / failed operation counts, where failed counts exceptions,
  failure rows, skipped queries and wrong answers.

Query-loop timings are reported at reference machine speed (see
``speed.py``); their raw figures are kept in ``Result.extra`` for the
report.

Why these workloads, and which layer each one is expected to move, is
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import oracle
from speed import PoolSpeed, Speed
from tracer import Tracer

from repro import QHLIndex, QueryService
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex, EpochManager, UpdateConfig
from repro.graph.network import RoadNetwork
from repro.workloads import generate_distance_sets

WORKERS = 2
CACHE_SIZE = 1024
ZIPF_ALPHA = 1.0
DELTAS_PER_BATCH = 4

# Input sizes.  "small" is the toy scale of perfbench/selfcheck.py.
SIZES = {
    "benchmark": {
        "dataset_scale": "benchmark",
        "setups": 3,
        "band_size": 2000,    # paper-mix: queries per distance band
        "prefix": 2000,       # paper-mix: fingerprinted / traced prefix
        "pool": 300,          # zipf-batch: distinct pairs
        "batch": 20000,       # zipf-batch: queries per query_many call
        "min_batches": 5,
        "sources": 96,        # zipf-batch, live-updates: query sources
        "segment": 2500,      # live-updates: queries per epoch segment
        "updates": 3,         # live-updates: delta batches
    },
    "small": {
        "dataset_scale": "small",
        "setups": 2,
        "band_size": 60,
        "prefix": 100,
        "pool": 40,
        "batch": 2000,
        "min_batches": 2,
        "sources": 8,
        "segment": 100,
        "updates": 1,
    },
}

COUNTS = ("hoplinks", "concatenations", "label_lookups", "candidates")


@dataclass
class Result:
    """What one workload run measured."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: Printed, not gated: raw (un-normalised) timings and the figures
    #: the issue names that exist on one workload only.
    extra: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, wrong: bool = False) -> None:
        """Count one failed operation; keep the first few reasons."""
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Run:
    """Arguments of one workload run."""

    seed: int
    seconds: float
    trace: bool
    scale: str = "benchmark"
    spans_path: str | None = None
    speed: Speed = field(default_factory=Speed)

    @property
    def size(self) -> dict:
        return SIZES[self.scale]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _network(run: Run) -> RoadNetwork:
    return load_dataset("NY", scale=run.size["dataset_scale"]).network


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timed_setups(
    run: Run,
    tracer: Tracer,
    make: Callable[[], object],
    release: Callable[[object], None],
    result: Result,
) -> tuple[object, float]:
    """Set up ``setups`` times; keep the last object, return the median
    set-up time at reference speed (``Speed.timed``; the raw median
    goes to ``result.extra``).

    Each earlier object is released before the next build, so peak
    memory holds one index plus the build's transients.  A trace run
    traces the build phases instead and times nothing (it reports no
    ``setup_s``), so no calibration spin runs inside the build spans.
    """
    seconds = []
    raw = []
    kept = None
    for _ in range(run.size["setups"]):
        if kept is not None:
            release(kept)
            kept = None
        gc.collect()
        if run.trace:
            with tracer.installed("build"):
                kept = make()
        else:
            kept, took, took_raw = run.speed.timed(make)
            seconds.append(took)
            raw.append(took_raw)
    if not seconds:
        return kept, 0.0
    result.extra["setup_s (raw)"] = statistics.median(raw)
    return kept, statistics.median(seconds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _answer(result) -> tuple[float | None, float | None]:
    return (result.weight, result.cost)


class _Loop:
    """Closed-loop driver of ``QueryService.query`` over a fixed list.

    Cycles through ``queries`` until the time slice is used up, always
    finishing at least one full pass.  The first pass is kept (answer
    and stats of every query) for the exact-answer check and the
    fingerprint; later passes must repeat the first pass's answers.
    Latencies are scaled to reference speed per window of ``WINDOW``
    queries, with a speed mark between windows.
    """

    WINDOW = 1000

    def __init__(self, run: Run, service, queries: list,
                 result: Result) -> None:
        self.speed = run.speed
        self.service = service
        self.queries = queries
        self.result = result
        self.first: list = [None] * len(queries)
        self.reset_timings()

    def reset_timings(self) -> None:
        self.latencies_ns: list[float] = []  # at reference speed
        self.raw_ns: list[int] = []
        self.busy_ns = 0.0  # at reference speed
        self.raw_busy_ns = 0
        self.answered = 0

    def run(self, seconds: float, limit: int | None = None) -> None:
        """Serve for ``seconds``; ``limit`` caps one pass's length."""
        queries = self.queries
        n = len(queries) if limit is None else min(limit, len(queries))
        first = self.first
        result = self.result
        clock = time.perf_counter_ns
        query = self.service.query
        self.speed.start()
        stop = clock() + int(seconds * 1e9)
        i = 0
        while i < n or clock() < stop:
            window = []
            end = i + self.WINDOW
            started = clock()
            while i < end and (i < n or clock() < stop):
                k = i % n
                i += 1
                s, t, c = queries[k]
                result.attempted += 1
                before = clock()
                try:
                    answer = query(s, t, c)
                except Exception as exc:  # a boundary: count it, go on
                    window.append(clock() - before)
                    result.fail(f"query ({s}, {t}, {c}): {exc!r}")
                    continue
                window.append(clock() - before)
                self.answered += 1
                if first[k] is None:
                    first[k] = answer
                elif _answer(first[k]) != _answer(answer):
                    result.fail(f"query ({s}, {t}, {c}) changed answer",
                                True)
            elapsed = clock() - started
            factor = self.speed.mark()
            self.raw_ns.extend(window)
            self.latencies_ns.extend(x * factor for x in window)
            self.raw_busy_ns += elapsed
            self.busy_ns += elapsed * factor

    def check(self, fronts: dict) -> None:
        """Compare every first-pass answer with the exact one."""
        answers = [
            (s, t, c, *_answer(a))
            for (s, t, c), a in zip(self.queries, self.first, strict=True)
            if a is not None
        ]
        for answer, want in oracle.wrong_answers(fronts, answers):
            self.result.fail(f"wrong answer {answer}, exact {want}", True)

    def counts(self, limit: int) -> dict[str, int]:
        """Op counts summed over the first ``limit`` queries."""
        out = dict.fromkeys(COUNTS, 0)
        out["feasible"] = 0
        out["fallbacks"] = 0
        for answer in self.first[:limit]:
            if answer is None:
                continue
            for name in COUNTS:
                out[name] += getattr(answer.stats, name)
            out["feasible"] += answer.feasible
            out["fallbacks"] += answer.engine != "QHL"
        return out


def _latency_metrics(loops: list[_Loop], result: Result) -> None:
    """``query_p50_us``, ``query_p99_us``, ``query_qps`` over the
    loops' timed queries (plus their raw twins in ``extra``)."""
    answered = sum(loop.answered for loop in loops)
    for suffix, field_ns, busy in (
        ("", "latencies_ns", sum(loop.busy_ns for loop in loops)),
        (" (raw)", "raw_ns", sum(loop.raw_busy_ns for loop in loops)),
    ):
        ordered = sorted(x for loop in loops for x in getattr(loop, field_ns))
        out = result.metrics if not suffix else result.extra
        out["query_p50_us" + suffix] = _percentile(ordered, 0.50) / 1e3
        out["query_p99_us" + suffix] = _percentile(ordered, 0.99) / 1e3
        out["query_qps" + suffix] = answered / (busy / 1e9)
    result.notes.append(
        f"{len(ordered)} latency samples from {len(loops)} query loop(s)"
    )


def _layer_metrics(tracer: Tracer, queries: int,
                   factor: float) -> dict[str, float]:
    """Per-query self time (us, reference speed) of the query layers."""
    def per_query(name: str, table: dict) -> float:
        if not queries:
            return 0.0
        return table.get(name, 0) * factor / 1e3 / queries

    calls = tracer.calls.get("core.pruning", 0)
    return {
        "service.self_us": per_query("service.query", tracer.self_ns),
        "flight.record_us": per_query("flight.record", tracer.self_ns),
        "hierarchy.lca_us": per_query("hierarchy.lca", tracer.self_ns),
        "core.separator_init_us":
            per_query("core.separator_init", tracer.self_ns),
        "core.pruning_us": per_query("core.pruning", tracer.self_ns),
        "core.hoplink_select_us":
            per_query("core.hoplink_select", tracer.self_ns),
        "core.concat_us": per_query("core.concat", tracer.self_ns),
        "engine.query_us": per_query("engine.query", tracer.total_ns),
        "core.pruning_hit_frac":
            tracer.useful.get("core.pruning", 0) / calls if calls else 0.0,
    }


def _build_metrics(tracer: Tracer, index: QHLIndex) -> dict[str, float]:
    """Build-phase seconds (mean per setup) and index sizes."""
    def mean_s(name: str) -> float:
        calls = tracer.calls.get(name, 0)
        return tracer.total_ns.get(name, 0) / 1e9 / calls if calls else 0.0

    stats = index.stats()
    return {
        "build.tree_s": mean_s("build.tree"),
        "build.labels_s": mean_s("build.labels"),
        "build.pruning_s": mean_s("build.pruning"),
        "labels.entries": float(stats.label_entries),
        "labels.bytes": float(stats.label_bytes),
        "pruning.conditions": float(stats.pruning_conditions),
    }


def _traced_passes(
    loop: _Loop, tracer: Tracer, seconds: float, limit: int
) -> _Loop:
    """Alternate an untraced and a traced pass over the first ``limit``
    queries until ``seconds`` are used (at least one pair of passes).

    Untraced timings accumulate in ``loop``; returns the traced loop.
    """
    traced = copy.copy(loop)
    traced.reset_timings()
    stop = time.perf_counter() + seconds
    while True:
        loop.run(0.0, limit)
        with tracer.installed("query"):
            traced.run(0.0, limit)
        if time.perf_counter() >= stop:
            return traced


def _overhead(traced: list[_Loop], untraced: list[_Loop]) -> float:
    """Traced over untraced median query latency."""
    def p50(loops: list[_Loop]) -> float:
        return _percentile(
            sorted(x for loop in loops for x in loop.latencies_ns), 0.5
        )

    return p50(traced) / p50(untraced)


def _write_spans(run: Run, tracer: Tracer) -> None:
    if run.trace and run.spans_path:
        tracer.write_spans(run.spans_path)


def _tracing(on: bool, tracer: Tracer, group: str):
    """The tracer's wrappers for ``group`` when ``on``, else nothing."""
    return tracer.installed(group) if on else contextlib.nullcontext()


# ----------------------------------------------------------------------
# paper-mix
# ----------------------------------------------------------------------
def paper_mix(run: Run) -> Result:
    """Q1-Q5 in equal shares, shuffled, one at a time through a default
    ``QueryService`` (ladder QHL -> CSP-2Hop -> SkyDijkstra, no cache,
    256-record flight recorder)."""
    result = Result()
    network = _network(run)
    sets = generate_distance_sets(
        network, size=run.size["band_size"], seed=run.seed
    )
    queries = [tuple(q) for name in sorted(sets) for q in sets[name].queries]
    random.Random(run.seed).shuffle(queries)
    prefix = run.size["prefix"]
    tracer = Tracer()

    def make() -> QueryService:
        return QueryService(index=QHLIndex.build(network))

    service, setup_s = _timed_setups(run, tracer, make, lambda _s: None,
                                     result)
    loop = _Loop(run, service, queries, result)
    loop.run(0.0, limit=300)  # warm-up; its answers join the first pass
    loop.reset_timings()
    if run.trace:
        traced = _traced_passes(loop, tracer, run.seconds, prefix)
        counts = loop.counts(prefix)
        factor = run.speed.median()
        result.metrics.update(_layer_metrics(tracer, traced.answered, factor))
        result.metrics.update(_build_metrics(tracer, service.index))
        result.metrics.update({
            "service.fallbacks": float(counts["fallbacks"]),
            "trace.overhead_ratio": _overhead([traced], [loop]),
            **{f"core.{k}": float(counts[k]) for k in COUNTS},
        })
    else:
        loop.run(run.seconds)
        _latency_metrics([loop], result)
        result.metrics["setup_s"] = setup_s
    result.notes.append(
        f"{len(queries)} distinct queries, "
        f"{len({(s, t) for s, t, _c in queries})} distinct pairs, "
        f"{len({s for s, _t, _c in queries})} sources"
    )
    # Read before the exact check, whose allocations are not the
    # program's.
    result.metrics["peak_rss_mb"] = _peak_rss_mb()
    result.fingerprint = loop.counts(prefix)
    loop.check(oracle.frontiers(
        network, [(s, t) for s, t, _c in queries], [c for *_p, c in queries]
    ))
    _write_spans(run, tracer)
    return result


# ----------------------------------------------------------------------
# zipf-batch
# ----------------------------------------------------------------------
def zipf_batch(run: Run) -> Result:
    """One offline batch of Zipf-skewed queries over a small pair pool,
    through ``QHLIndex.query_many(workers=2, cache_size=1024)``; the
    cache holds more frontiers than the pool has pairs."""
    result = Result()
    network = _network(run)
    rng = random.Random(run.seed)
    n = network.num_vertices
    # Pairs from a seeded set of sources, so that the exact check (and
    # the budgets, which need each pair's skyline) cost one skyline
    # search per source.
    sources = rng.sample(range(n), run.size["sources"])
    pool: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pool) < run.size["pool"]:
        s, t = rng.choice(sources), rng.randrange(n)
        if s != t and (min(s, t), max(s, t)) not in seen:
            seen.add((min(s, t), max(s, t)))
            pool.append((s, t))
    fronts = oracle.frontiers(network, pool)
    weights = [1.0 / (k + 1) ** ZIPF_ALPHA for k in range(len(pool))]
    queries = []
    for k in rng.choices(range(len(pool)), weights=weights,
                         k=run.size["batch"]):
        s, t = pool[k]
        front = fronts[(s, t)]
        budget = rng.uniform(0.9 * front[0][1], 1.2 * front[-1][1])
        queries.append((s, t, budget))
    tracer = Tracer()

    def make() -> QHLIndex:
        return QHLIndex.build(network)

    index, setup_s = _timed_setups(run, tracer, make, lambda _i: None,
                                   result)
    index.query_many(queries[:1000], workers=WORKERS, cache_size=CACHE_SIZE)
    reference: list | None = None
    batches: dict[bool, list[_Batch]] = {False: [], True: []}
    speed = PoolSpeed(run.speed)
    stop = time.perf_counter() + run.seconds
    speed.start()
    i = 0
    while i < run.size["min_batches"] or time.perf_counter() < stop:
        tracing = run.trace and i % 2 == 1
        i += 1
        # Every batch forks from the same collector state.  Otherwise
        # whether a worker's collector walks the inherited heap (a
        # copy-on-write fault per page it touches) changes from batch to
        # batch, and with it the batch time, by up to 2x.
        gc.collect()
        with _tracing(tracing, tracer, "batch"):
            started = time.perf_counter()
            report = index.query_many(
                queries, workers=WORKERS, cache_size=CACHE_SIZE
            )
            wall = time.perf_counter() - started
        batch = _Batch(wall, speed.mark(), queries, report.results)
        batches[tracing].append(batch)
        result.attempted += len(queries)
        for failure in report.failures:
            result.fail(f"failure row {failure}")
        for _ in range(report.skipped):
            result.fail("skipped query")
        answers = [
            None if r is None else _answer(r) for r in report.results
        ]
        if reference is None:
            reference = answers
            checked = [
                (s, t, c, *answer)
                for (s, t, c), answer in zip(queries, answers, strict=True)
                if answer is not None
            ]
            for answer, want in oracle.wrong_answers(fronts, checked):
                result.fail(f"wrong answer {answer}, exact {want}", True)
            result.fingerprint = _batch_counts(queries, report.results)
        else:
            for q, got, want in zip(queries, answers, reference, strict=True):
                if got is not None and got != want:
                    result.fail(f"query {q} changed answer", True)

    untraced = batches[False]
    if run.trace:
        traced = batches[True]
        result.metrics.update(_batch_layers(traced, tracer))
        result.metrics.update(_build_metrics(tracer, index))
        result.metrics["trace.overhead_ratio"] = (
            statistics.median(b.wall * b.factor for b in traced)
            / statistics.median(b.wall * b.factor for b in untraced)
        )
        result.metrics.update({
            f"core.{k}": float(result.fingerprint[k]) for k in COUNTS
        })
    else:
        # A query's latency is its answer's own time in the worker
        # (``stats.seconds``), scaled by the fork-pool speed factor of
        # its batch; throughput is answers per second of median batch
        # wall time.
        answered = result.fingerprint["answered"]
        for suffix, scaled in (("", True), (" (raw)", False)):
            latencies = sorted(
                x * (b.factor if scaled else 1.0)
                for b in untraced for x in b.seconds
            )
            walls = [b.wall * (b.factor if scaled else 1.0) for b in untraced]
            out = result.extra if suffix else result.metrics
            out["query_p50_us" + suffix] = _percentile(latencies, 0.50) * 1e6
            out["query_p99_us" + suffix] = _percentile(latencies, 0.99) * 1e6
            out["query_qps" + suffix] = answered / statistics.median(walls)
        result.metrics["setup_s"] = setup_s
        result.extra["batch_qps"] = result.metrics["query_qps"]
    result.notes.append(
        f"{i} batches of {len(queries)} queries over {len(pool)} pairs"
    )
    result.metrics["peak_rss_mb"] = _peak_rss_mb()
    _write_spans(run, tracer)
    return result


def _is_hit(query: tuple, answer) -> bool:
    """A cache hit did no label lookup (and was not the s == t case)."""
    return answer.stats.label_lookups == 0 and query[0] != query[1]


class _Batch:
    """Timings of one ``query_many`` call: the parent's wall clock, the
    speed factor of the fork-pool probes after it (``PoolSpeed``), and
    each answer's own ``stats.seconds`` (raw), split into cache hits
    and misses."""

    def __init__(self, wall: float, factor: float, queries: list,
                 results: list) -> None:
        self.wall = wall
        self.factor = factor
        self.hit_s: list[float] = []
        self.miss_s: list[float] = []
        for query, answer in zip(queries, results, strict=True):
            if answer is not None:
                (self.hit_s if _is_hit(query, answer) else self.miss_s
                 ).append(answer.stats.seconds)

    @property
    def seconds(self) -> list[float]:
        return self.hit_s + self.miss_s


def _batch_counts(queries: list, results: list) -> dict[str, int]:
    out = dict.fromkeys(COUNTS, 0)
    out.update(answered=0, feasible=0, cache_hits=0, cache_misses=0)
    for query, answer in zip(queries, results, strict=True):
        if answer is None:
            continue
        out["answered"] += 1
        out["feasible"] += answer.feasible
        hit = _is_hit(query, answer)
        out["cache_hits"] += hit
        out["cache_misses"] += not hit
        for name in COUNTS:
            out[name] += getattr(answer.stats, name)
    return out


def _batch_layers(traced: list[_Batch], tracer: Tracer) -> dict[str, float]:
    """Cache and fan-out figures from the answers' own stats and the
    parent's wall clock (wrappers cannot see into forked workers)."""
    hit_s = [x for b in traced for x in b.hit_s]
    miss_s = [x for b in traced for x in b.miss_s]
    busy = [sum(b.seconds) for b in traced]
    walls = [b.wall for b in traced]
    first = traced[0]
    answered = len(first.hit_s) + len(first.miss_s)
    sort_s = tracer.total_ns.get("batch.sort", 0) / 1e9 / len(traced)
    return {
        "cache.hit_rate": len(first.hit_s) / answered,
        "cache.misses": float(len(first.miss_s)),
        "cache.hit_us": statistics.fmean(hit_s) * 1e6 if hit_s else 0.0,
        "cache.miss_us": statistics.fmean(miss_s) * 1e6 if miss_s else 0.0,
        "batch.sort_s": sort_s,
        "batch.busy_s": statistics.fmean(busy),
        "batch.overhead_s": statistics.fmean(
            w - u / WORKERS for w, u in zip(walls, busy, strict=True)
        ),
        "batch.worker_util": statistics.fmean(
            u / (w * WORKERS) for w, u in zip(walls, busy, strict=True)
        ),
    }


# ----------------------------------------------------------------------
# live-updates
# ----------------------------------------------------------------------
UPDATE_STAGES = {
    # metric: (span name, ns per unit); self times, mean per batch.
    "dynamic.journal_append_ms": ("dynamic.journal_append", 1e6),
    "dynamic.clone_s": ("dynamic.clone", 1e9),
    "dynamic.repair_s": ("dynamic.repair", 1e9),
    "dynamic.pruning_rebuild_s": ("dynamic.pruning_rebuild", 1e9),
    "resilience.audit_s": ("resilience.audit", 1e9),
    "storage.flat_pack_s": ("storage.flat_pack", 1e9),
    "storage.flat_load_s": ("storage.flat_load", 1e9),
    "dynamic.publish_s": ("update.apply", 1e9),
}


def live_updates(run: Run) -> Result:
    """Uniform-target queries through ``QueryService(epoch_manager=...)``
    over a flat-twin ``EpochManager``, with seeded 4-edge delta batches
    applied by the same thread between query segments."""
    result = Result()
    network = _network(run)
    rng = random.Random(run.seed)
    n = network.num_vertices
    updates = run.size["updates"]
    sources = rng.sample(range(n), run.size["sources"])
    segments = []
    for _ in range(updates + 1):
        pairs = []
        for _ in range(run.size["segment"]):
            s = rng.choice(sources)
            t = rng.randrange(n - 1)
            pairs.append((s, t + (t >= s)))
        segments.append(pairs)
    fronts0 = oracle.frontiers(network, {p for seg in segments for p in seg})
    queries = [
        [
            (s, t, rng.uniform(0.9 * fronts0[(s, t)][0][1],
                               1.2 * fronts0[(s, t)][-1][1]))
            for s, t in seg
        ]
        for seg in segments
    ]
    # The benchmark's own copy of every epoch's edges, for the check.
    base = list(network.edges())
    edges = list(base)
    epoch_edges = [list(edges)]
    batches = []
    for _ in range(updates):
        batch = []
        for _ in range(DELTAS_PER_BATCH):
            e = rng.randrange(len(edges))
            u, v, _w, c = edges[e]
            weight = float(max(1, round(base[e][2] * rng.uniform(0.5, 2.0))))
            batch.append((e, weight, None))
            edges[e] = (u, v, weight, c)
        batches.append(batch)
        epoch_edges.append(list(edges))
    tracer = Tracer()

    def make() -> QueryService:
        manager = EpochManager(
            DynamicQHLIndex.build(network),
            tempfile.mkdtemp(prefix="journal-"),
            UpdateConfig(flat=True),
        )
        return QueryService(epoch_manager=manager)

    def release(service: QueryService) -> None:
        service.epoch_manager.close()

    service, setup_s = _timed_setups(run, tracer, make, release, result)
    manager = service.epoch_manager
    first_index = manager.epoch.dyn.index
    try:
        loops, traced, applied = _serve_with_updates(
            run, service, queries, batches, epoch_edges, tracer, result
        )
    finally:
        manager.close()
    # Read before the exact check, whose allocations are not the
    # program's.
    result.metrics["peak_rss_mb"] = _peak_rss_mb()

    apply_s = [seconds for seconds, _report in applied]
    reports = [report for _seconds, report in applied]
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(feasible=0, fallbacks=0)
    for loop in loops:
        for name, value in loop.counts(len(loop.queries)).items():
            counts[name] += value
    counts.update(
        shortcuts_checked=sum(r.shortcuts_checked for r in reports),
        shortcuts_changed=sum(r.shortcuts_changed for r in reports),
        labels_checked=sum(r.labels_checked for r in reports),
        labels_changed=sum(r.labels_changed for r in reports),
        pruning_rebuilds=sum(r.pruning_rebuilt for r in reports),
    )
    result.fingerprint = counts
    for k, loop in enumerate(loops):
        loop.check(fronts0 if k == 0 else oracle.frontiers(
            RoadNetwork.from_edges(n, epoch_edges[k]), segments[k],
            [c for *_p, c in queries[k]],
        ))

    if applied:
        result.extra["update_apply_p50_s"] = statistics.median(apply_s)
        result.extra["update_apply_max_s"] = max(apply_s)
    if run.trace:
        factor = run.speed.median()
        answered = sum(loop.answered for loop in traced)
        result.metrics.update(_layer_metrics(tracer, answered, factor))
        result.metrics.update(_build_metrics(tracer, first_index))
        result.metrics["trace.overhead_ratio"] = _overhead(traced, loops)
        for metric, (span, per_unit) in UPDATE_STAGES.items():
            result.metrics[metric] = (
                tracer.self_ns.get(span, 0) / per_unit / len(applied)
                if applied else 0.0
            )
        result.metrics.update({
            "service.fallbacks": float(counts["fallbacks"]),
            "dynamic.labels_checked": float(counts["labels_checked"]),
            "dynamic.labels_changed": float(counts["labels_changed"]),
            "dynamic.shortcuts_changed": float(counts["shortcuts_changed"]),
            "dynamic.pruning_rebuilds": float(counts["pruning_rebuilds"]),
            "dynamic.labels_changed_frac": (
                counts["labels_changed"] / counts["labels_checked"]
                if counts["labels_checked"] else 0.0
            ),
            "update.apply_p50_s": result.extra.get("update_apply_p50_s", 0.0),
            "update.apply_max_s": result.extra.get("update_apply_max_s", 0.0),
            **{f"core.{k}": float(counts[k]) for k in COUNTS},
        })
    else:
        _latency_metrics(loops, result)
        result.metrics["setup_s"] = setup_s
    result.notes.append(
        f"{len(loops)} epochs served; {len(applied)} update batches of "
        f"{DELTAS_PER_BATCH} edges"
    )
    _write_spans(run, tracer)
    return result


def _serve_with_updates(
    run: Run, service, queries: list, batches: list, epoch_edges: list,
    tracer: Tracer, result: Result,
) -> tuple[list[_Loop], list[_Loop], list]:
    """Alternate query segments and same-thread ``apply()`` calls.

    Returns one loop per served epoch, the traced loops (trace runs
    only) and ``(seconds, UpdateReport)`` per applied batch.  The time
    runs from the ``apply()`` call to its return, which is after the
    publish: with the applier on the query thread, that is the batch's
    staleness.
    """
    manager = service.epoch_manager
    slice_s = run.seconds / len(queries)
    loops: list[_Loop] = []
    traced: list[_Loop] = []
    applied = []
    for k, segment in enumerate(queries):
        epoch = manager.epoch
        if epoch.id != k or epoch.dyn.network_edges() != epoch_edges[k]:
            result.fail(f"epoch {epoch.id} serves, expected epoch {k}")
            break
        loop = _Loop(run, service, segment, result)
        loops.append(loop)
        if k == 0:
            loop.run(0.0, limit=200)  # warm-up
            loop.reset_timings()
        if run.trace:
            traced.append(_traced_passes(loop, tracer, slice_s, len(segment)))
        else:
            loop.run(slice_s)
        if k == len(batches):
            break
        result.attempted += 1
        started = time.perf_counter()
        try:
            with _tracing(run.trace, tracer, "update"):
                report = manager.apply(batches[k])
        except Exception as exc:  # a boundary: count it and stop
            result.fail(f"update batch {k}: {exc!r}")
            break
        applied.append((time.perf_counter() - started, report))
    return loops, traced, applied
