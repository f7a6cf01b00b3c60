"""The three workloads and the per-layer measurements behind them.

Each workload returns a :class:`Report`.  End-to-end metrics are measured in
every run; per-layer metrics only in traced runs, from spans the benchmark
records around its own calls into the program's public functions.  A layer
that is not on a workload's path reports 0.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from collections import defaultdict
from typing import Dict, List, Sequence

import inputs
from common import (
    WORK_DIR,
    Tracer,
    beyond,
    collector_off,
    cpu_clock,
    mean,
    median,
    median_of_best,
    peak_rss_mb,
    percentile,
    result_projection,
    usable_cpus,
    wire_projection,
    wire_projection_of_result,
)
from loadgen import closed_loop, get_json, open_loop, paired_hops, spawn_timed
from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.core.query import SearchStatistics
from repro.io.compiled_codec import compiled_graph_to_bytes

# Open-loop rates: constants, because a rate derived from the current run
# would move with the code under test (the peak_qps behind them: METRICS.md).
LIVE_RATE = 35.0
SHARDED_RATE = 75.0

OPEN_SHARE = 0.6  # of --seconds; the closed-loop phase takes the rest
OPEN_WINDOWS = 6  # serve-* latencies: median over this many parts of the open loop
CLOSED_WINDOW_SECONDS = 2.0  # serve-* peak_qps: median over windows this long
# setup_s: the median over back-to-back groups of set-ups of each group's
# best (common.median_of_best).  serve-* spawns the server SERVE_SETUP_REPEATS
# times in pairs; paper-mall builds SETUP_GROUP times in a row before every
# SETUP_EVERY-th slice.
SERVE_SETUP_REPEATS = 8
SETUP_GROUP = 3
SETUP_EVERY = 28
REFERENCE_SAMPLE = 16
BATCH_SLICE = 16  # queries per timed run_batch call: the service's default max_batch
BATCH_PASSES = 3
# serve-*: batch_qps times BATCH_SET distinct open-loop requests, in three
# windows of BATCH_SECONDS: before the server starts, between the open and
# the closed loop, and after the server stops.  The host's speed switches
# between states that last from a fraction of a second to tens of seconds;
# a set this small is visited at least nine times, in windows 15 s apart, so
# that each slice's best visit falls in a fast state.
BATCH_SET = 320
BATCH_SECONDS = 1.5
HOP_PAIRS = 200

COUNTERS = SearchStatistics.COUNTER_FIELDS
SEARCH_WORK = ("doors_settled", "heap_pops", "relaxations", "ati_probes")

SERVICE_LAYERS = (
    "service.search_ms",
    "service.overhead_ms",
    "service.batch_size_mean",
    "admission.shed",
    "ladder.off_top_rung_share",
    "ladder.breaker_trips",
)
ROUTER_LAYERS = ("router.hop_ms", "router.proxy_failures")


class Report:
    """What one run measured: metrics, operation counts and details."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.details: Dict[str, object] = {}

    def mismatch(self, count: int = 1) -> None:
        self.mismatches += count
        self.failed += count

    def not_on_path(self, names: Sequence[str]) -> None:
        for name in names:
            self.per_layer[name] = 0.0

    def latencies(self, samples: Sequence[float], windows: int = 1) -> None:
        """``latency_p50_ms`` and ``latency_p90_ms``: each the median, over
        ``windows`` equal consecutive parts of ``samples``, of the part's
        percentile, so that a slow spell of the host in a minority of the
        parts does not move them.  The p99 (over all samples) goes to the
        run record only (see METRICS.md)."""
        size = len(samples) // windows
        parts = [samples[part * size : (part + 1) * size] for part in range(windows)]
        for name, fraction in (("latency_p50_ms", 0.50), ("latency_p90_ms", 0.90)):
            self.end_to_end[name] = median(percentile(part, fraction) for part in parts) * 1e3
        self.details["latency_p99_ms"] = percentile(samples, 0.99) * 1e3
        self.details["latency_samples"] = len(samples)
        self.details["latency_samples_beyond_p90"] = beyond(len(samples), 0.90)
        self.details["latency_samples_beyond_p99"] = beyond(len(samples), 0.99)


class Venue:
    """A venue as the benchmark prepares it: IT-Graph, a compiled engine
    without cache (the sequential oracle) and its codec payload file."""

    def __init__(self, name: str, space, schedule, tracer: Tracer):
        self.name = name
        with tracer.span("build.itgraph"):
            self.itgraph = inputs.build_graph(space, schedule)
        self.engine = ITSPQEngine(self.itgraph)
        with tracer.span("build.compile"):
            self.engine.ensure_compiled()
        self.payload = compiled_graph_to_bytes(self.engine.ensure_compiled())
        self.path = WORK_DIR / f"{name}.bin"
        self.path.write_bytes(self.payload)


def slices(groups: Sequence[Sequence]) -> List[list]:
    """Each group cut, in order, into near-equal slices of at most
    ``BATCH_SLICE`` items."""
    cut = []
    for group in groups:
        size = -(-len(group) // -(-len(group) // BATCH_SLICE))
        cut.extend(list(group[start : start + size]) for start in range(0, len(group), size))
    return cut


def time_batches(report: Report, work: Sequence[tuple], batches: Sequence[list], best: List[float]) -> int:
    """``run_batch`` over every slice of ``work`` (``(engine, method,
    queries)``) in passes for ``BATCH_SECONDS``, at least ``BATCH_PASSES``
    of them, keeping each slice's best CPU time in ``best`` and checking
    every answer against the oracle entries in ``batches``, counter for
    counter, with the collector off.  Returns the number of passes."""
    passes = 0
    with collector_off():
        stop_at = time.perf_counter() + BATCH_SECONDS
        while passes < BATCH_PASSES or time.perf_counter() < stop_at:
            for position, ((engine, method, queries), entries) in enumerate(zip(work, batches)):
                before = cpu_clock()
                results = engine.run_batch(queries, method=method)
                best[position] = min(best[position], cpu_clock() - before)
                report.attempted += len(results)
                report.mismatch(sum(result_projection(r) != entry[3] for r, entry in zip(results, entries)))
            passes += 1
    return passes


# -- per-layer helpers (traced runs only) -------------------------------------------


def measure_codec(report: Report, payloads: Sequence[bytes], repeats: int = 5) -> None:
    """``ITSPQEngine.from_compiled_payload`` plus ``ensure_compiled`` for the
    whole deployment (every venue payload), median of ``repeats``."""
    tracer = report.tracer
    for _ in range(repeats):
        with tracer.span("codec.load"):
            for payload in payloads:
                ITSPQEngine.from_compiled_payload(payload).ensure_compiled()
    report.per_layer["codec.payload_kb"] = sum(len(payload) for payload in payloads) / 1024.0
    report.per_layer["codec.load_ms"] = median(tracer.durations("codec.load")) * 1e3


def measure_build(report: Report) -> None:
    tracer = report.tracer
    report.per_layer["build.itgraph_ms"] = median(tracer.durations("build.itgraph")) * 1e3
    report.per_layer["build.compile_ms"] = median(tracer.durations("build.compile")) * 1e3


def search_work(report: Report, projections: Sequence[tuple]) -> None:
    """Exact ``SearchStatistics`` means per distinct query."""
    for name in SEARCH_WORK:
        position = COUNTERS.index(name)
        report.per_layer[f"engine.{name}"] = mean(p[3][position] for p in projections)
    report.per_layer["engine.run_us"] = median(report.tracer.durations("engine.run")) * 1e6


def measure_batch(report: Report, work: Sequence[tuple]) -> None:
    """``BatchPlanner.plan`` and ``BatchExecutor.run_planned`` per query over
    ``work``: ``(engine, method, queries)`` groups answered together."""
    tracer = report.tracer
    total = sum(len(queries) for _engine, _method, queries in work)
    plan_times, run_times = [], []
    groups = 0
    for _ in range(BATCH_PASSES):
        plan_time = run_time = 0.0
        groups = 0
        for engine, method, queries in work:
            executor = engine.batch_executor()
            with tracer.span("batch") as parent:
                started = time.perf_counter()
                plan = executor.planner.plan(queries, method)
                planned = time.perf_counter()
                executor.run_planned(plan)
                ended = time.perf_counter()
            tracer.record("batch.plan", started, planned, parent)
            tracer.record("batch.run_planned", planned, ended, parent)
            run_time += ended - planned
            plan_time += planned - started
            groups += len(plan)
        plan_times.append(plan_time / total)
        run_times.append(run_time / total)
    report.per_layer["batch.plan_us"] = median(plan_times) * 1e6
    report.per_layer["batch.run_planned_us"] = median(run_times) * 1e6
    report.per_layer["batch.groups"] = float(groups)
    report.per_layer["batch.group_size_mean"] = total / groups


def replay_cache(report: Report, streams: Sequence[tuple]) -> List[dict]:
    """Replay ``streams`` (``(itgraph, [(query, method)])`` per venue)
    in process, twice: through the default ``CacheConfig()`` — each ``run``
    classified as fresh, record or replay by the change in the cache's
    counters — and through an unbounded eager cache, whose hit ratio is the
    share of repeated cache keys in the stream.  Returns the default
    caches' final stats."""
    tracer = report.tracer
    hits = lookups = 0
    final_stats = []
    for itgraph, items in streams:
        engine = ITSPQEngine(itgraph, cache=CacheConfig())
        engine.ensure_compiled()
        cache = engine.cache
        for query, method in items:
            built, hit = cache.trees_built, cache.hits
            started = time.perf_counter()
            engine.run(query, method=method)
            ended = time.perf_counter()
            if cache.trees_built > built:
                tracer.record("cache.record", started, ended)
            elif cache.hits > hit:
                tracer.record("cache.replay", started, ended)
            else:
                tracer.record("cache.fresh", started, ended)
        final_stats.append(engine.cache_stats)
        del engine, cache  # free the default cache's trees before the unbounded replay
        eager = ITSPQEngine(itgraph, cache=CacheConfig(mode="eager", max_entries=1 << 30))
        for query, method in items:
            eager.run(query, method=method)
        hits += eager.cache.hits
        lookups += eager.cache.hits + eager.cache.misses
    records, replays = tracer.durations("cache.record"), tracer.durations("cache.replay")
    report.per_layer["cache.record_ms"] = median(records) * 1e3 if records else 0.0
    report.per_layer["cache.replay_us"] = median(replays) * 1e6 if replays else 0.0
    report.per_layer["workload.key_repeat_share"] = hits / lookups if lookups else 0.0
    return final_stats


def cache_counters(report: Report, stats: Sequence[dict]) -> None:
    """``cache.*`` from cache stat snapshots (one per serving venue)."""
    hits = sum(entry["hits"] for entry in stats)
    lookups = hits + sum(entry["misses"] for entry in stats)
    report.per_layer["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    report.per_layer["cache.trees_built"] = float(sum(entry["trees_built"] for entry in stats))
    report.per_layer["cache.evictions"] = float(sum(entry["evictions"] for entry in stats))
    report.per_layer["cache.memory_mb"] = sum(entry["memory_bytes"] for entry in stats) / 2**20


# -- paper-mall ----------------------------------------------------------------------


def paper_mall(seed: int, seconds: float, tracer: Tracer) -> Report:
    """In-process library use on the Table II default mall, one thread,
    closed loop: every query through ``run`` (no cache) and the whole set
    through ``run_batch``, for ``seconds``."""
    report = Report(tracer)
    space, schedule, grid = inputs.paper_venue()
    setups: List[float] = []

    def set_up() -> ITSPQEngine:
        gc.collect()  # every build starts from the same collector state
        started = cpu_clock()
        with tracer.span("build.itgraph"):
            graph = inputs.build_graph(space, schedule)
        built = ITSPQEngine(graph)
        with tracer.span("build.compile"):
            built.ensure_compiled()
        setups.append(cpu_clock() - started)
        return built

    engine = set_up()
    itgraph = engine.itgraph
    items = inputs.paper_query_set(itgraph, grid, seed)
    report.details["queries"] = len(items)
    # Rounds over slices of one (method, query time): each slice is answered
    # query by query through run, then as a whole through run_batch.
    # Interleaving spreads both measurements over the whole run.  Both are
    # CPU times (see common.cpu_clock), which the host's slow spells still
    # stretch; a spell only ever adds time, so each query's latency (and
    # each slice's run_batch time) is the best of its visits, and slices are
    # short so that some visit falls between spells.  Spans stay on the
    # wall clock, like every other span.
    positions: Dict[tuple, List[int]] = defaultdict(list)
    for index, (query, method) in enumerate(items):
        positions[(method, query.query_time)].append(index)
    chunks = slices(list(positions.values()))
    work = [(engine, items[chunk[0]][1], [items[i][0] for i in chunk]) for chunk in chunks]
    expected: list = [None] * len(items)
    best = [float("inf")] * len(items)
    batch_best = [float("inf")] * len(chunks)
    rounds = 0
    stop_at = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < stop_at:
        for position, (chunk, (_engine, method, queries)) in enumerate(zip(chunks, work)):
            if rounds and time.perf_counter() >= stop_at:
                break
            if position % SETUP_EVERY == 0:
                for _ in range(SETUP_GROUP):
                    set_up()  # set-up is sampled across the run, like the queries
            for index in chunk:
                before, cpu_before = time.perf_counter(), cpu_clock()
                result = engine.run(items[index][0], method=method)
                cpu_after, after = cpu_clock(), time.perf_counter()
                best[index] = min(best[index], cpu_after - cpu_before)
                tracer.record("engine.run", before, after, request_id=index)
                projection = result_projection(result)
                if expected[index] is None:
                    expected[index] = projection
                elif projection != expected[index]:
                    report.mismatch()
            before = cpu_clock()
            results = engine.run_batch(queries, method=method)
            batch_best[position] = min(batch_best[position], cpu_clock() - before)
            report.attempted += 2 * len(chunk)
            report.mismatch(sum(result_projection(r) != expected[i] for r, i in zip(results, chunk)))
        rounds += 1
    report.details["rounds"] = rounds
    report.details["setups"] = len(setups)
    report.end_to_end["setup_s"] = median_of_best(setups[1:], SETUP_GROUP)  # not the cold first build
    report.latencies(best)
    # One caller in a closed loop: the whole set over its summed run times.
    report.end_to_end["peak_qps"] = len(items) / sum(best)
    report.end_to_end["batch_qps"] = len(items) / sum(batch_best)

    reference = ITSPQEngine(itgraph, compiled=False)
    sample = random.Random(f"paper-mall/reference/{seed}").sample(range(len(items)), REFERENCE_SAMPLE)
    for index in sample:
        query, method = items[index]
        report.attempted += 1
        if result_projection(reference.run(query, method=method)) != expected[index]:
            report.mismatch()
    report.end_to_end["peak_rss_mb"] = peak_rss_mb()

    if tracer.enabled:
        measure_build(report)
        measure_codec(report, [compiled_graph_to_bytes(engine.ensure_compiled())])
        search_work(report, expected)
        measure_batch(report, work)
        cache_counters(report, replay_cache(report, [(itgraph, items)]))
        report.per_layer["trace.latency_p50_ms"] = report.end_to_end["latency_p50_ms"]
        report.not_on_path(SERVICE_LAYERS + ROUTER_LAYERS + ("loadgen.lag_p99_ms",))
    return report


# -- serving workloads ---------------------------------------------------------------

STREAM_TAIL = 20000  # stream requests beyond the open loop, for the later phases


def serve_live(seed: int, seconds: float, tracer: Tracer) -> Report:
    """``python -m repro.service`` with its CLI defaults, serving the Table II
    mall rehydrated from a codec payload file."""
    report = Report(tracer)
    space, schedule, _grid = inputs.paper_venue()
    venue = Venue("paper", space, schedule, tracer)
    open_count = round(LIVE_RATE * seconds * OPEN_SHARE)
    bodies = inputs.live_stream(venue.itgraph, venue.name, seed, open_count + STREAM_TAIL)
    serve(report, seed, [venue], bodies, open_count, LIVE_RATE, seconds, shards=0)
    return report


def serve_sharded(seed: int, seconds: float, tracer: Tracer) -> Report:
    """``python -m repro.service --shards 2`` serving the running example and
    the small mall, one per shard, under the trip-planning stream."""
    report = Report(tracer)
    venues = [
        Venue("example", *inputs.example_venue(), tracer),
        Venue("mall", *inputs.small_mall_venue(), tracer),
    ]
    open_count = round(SHARDED_RATE * seconds * OPEN_SHARE)
    bodies = inputs.trip_stream(
        [(venue.name, venue.itgraph) for venue in venues], seed, open_count + STREAM_TAIL
    )
    serve(report, seed, venues, bodies, open_count, SHARDED_RATE, seconds, shards=2)
    return report


def serve(
    report: Report, seed: int, venues, bodies, open_count: int, rate: float, seconds: float, shards: int
):
    """Start the server, drive the open- and closed-loop phases, stop it, and
    check every answer against the venues' in-process engines."""
    tracer = report.tracer
    connections = usable_cpus()
    engines = {venue.name: venue.engine for venue in venues}
    oracle: Dict[bytes, tuple] = {}

    def expect(body: bytes, request_id=None) -> tuple:
        """``(venue, query, method, projection, wire projection)`` of ``body``
        from the sequential compiled engine."""
        if body not in oracle:
            name, query, method = inputs.parse_body(body)
            before = time.perf_counter()
            result = engines[name].run(query, method=method)
            tracer.record("engine.run", before, time.perf_counter(), request_id=request_id)
            oracle[body] = (name, query, method, result_projection(result), wire_projection_of_result(result))
        return oracle[body]

    # batch_qps: the first BATCH_SET distinct open-loop requests through
    # run_batch in process.  Sorted by (venue, method, source, time) so that
    # the planner's groups stay whole, cut into slices of BATCH_SLICE, and
    # timed in passes in three windows; each slice's time is its best pass,
    # as on paper-mall.
    distinct = list(dict.fromkeys(bodies[:open_count]))
    batch_set = distinct[:BATCH_SET]
    documents = {body: json.loads(body) for body in batch_set}
    kinds: Dict[tuple, list] = defaultdict(list)
    for body in sorted(
        batch_set,
        key=lambda b: (documents[b]["venue"], documents[b]["method"], documents[b]["source"], documents[b]["time"]),
    ):
        kinds[(documents[body]["venue"], documents[body]["method"])].append(expect(body))
    batches = slices(list(kinds.values()))
    work = [(engines[batch[0][0]], batch[0][2], [entry[1] for entry in batch]) for batch in batches]
    batch_best = [float("inf")] * len(work)
    passes = time_batches(report, work, batches, batch_best)

    args = [arg for venue in venues for arg in ("--venue", f"{venue.name}={venue.path}")]
    if shards:
        # With the default pool of four, a pooled router-to-shard connection
        # can sit idle past the shard's 5 s request-read timeout; the shard
        # then writes a 408 on it, which the router forwards as the answer to
        # the next request it sends there.  One pooled connection per shard
        # stays in use and never idles that long.
        args += ["--shards", str(shards), "--pool-size", "1"]
    server, setups, failed_drains = spawn_timed(args, "router" if shards else "service", SERVE_SETUP_REPEATS)
    report.end_to_end["setup_s"] = median_of_best(setups, 2)
    routed = direct = []
    try:
        host, port = server.host, server.port
        # The load generator's own collector pauses would land in the
        # latencies it measures.
        with collector_off():
            opened = asyncio.run(open_loop(host, port, bodies[:open_count], rate, connections))
        passes += time_batches(report, work, batches, batch_best)  # the server is idle
        with collector_off():
            closed, closed_seconds = asyncio.run(
                closed_loop(host, port, bodies, open_count, seconds * (1 - OPEN_SHARE), connections)
            )
        pids = [server.pid]
        if shards:
            ready = asyncio.run(get_json(host, port, "/readyz"))
            owners = {}
            for entry in ready["shards"].values():
                pids.append(entry["pid"])
                owners.update((name, (host, entry["port"])) for name in entry["venues"])
            if tracer.enabled:
                first = max(outcome.index for outcome in closed) + 1
                routed, direct = asyncio.run(
                    paired_hops((host, port), owners, bodies, first, HOP_PAIRS)
                )
        metrics = asyncio.run(get_json(host, port, "/metrics"))
        report.end_to_end["peak_rss_mb"] = sum(peak_rss_mb(pid) for pid in pids)
    except BaseException:
        server.kill()
        raise
    if not server.stop():
        failed_drains += 1
    report.attempted += SERVE_SETUP_REPEATS
    report.failed += failed_drains
    report.details["failed_drains"] = failed_drains
    passes += time_batches(report, work, batches, batch_best)
    report.end_to_end["batch_qps"] = len(batch_set) / sum(batch_best)
    report.details["batch_passes"] = passes

    # Every answered request against the sequential compiled oracle.
    statuses: Dict[int, int] = defaultdict(int)
    answered = {}
    outcomes = opened + closed + routed + direct
    report.attempted += len(outcomes)
    unanswered = []
    for outcome in outcomes:
        statuses[outcome.status] += 1
        tracer.record("http.query", outcome.sent, outcome.done, request_id=outcome.index)
        if outcome.status != 200:
            report.failed += 1
            unanswered.append((outcome.index, outcome.status, outcome.payload[:120].decode(errors="replace")))
            continue
        payload = json.loads(outcome.payload)
        answered[id(outcome)] = payload
        if wire_projection(payload) != expect(bodies[outcome.index % len(bodies)], outcome.index)[4]:
            report.mismatch()
    report.details["statuses"] = dict(statuses)
    report.details["unanswered"] = unanswered[:10]  # (stream index, status, answer head)

    # A seeded sample of the distinct open-loop requests against the
    # reference engine.
    references = {venue.name: ITSPQEngine(venue.itgraph, compiled=False) for venue in venues}
    rng = random.Random(f"reference/{seed}")
    for body in rng.sample(distinct, min(REFERENCE_SAMPLE, len(distinct))):
        name, query, method, projection, _wire = oracle[body]
        report.attempted += 1
        if result_projection(references[name].run(query, method=method)) != projection:
            report.mismatch()

    ok = [outcome for outcome in opened if outcome.status == 200]
    report.latencies([outcome.latency for outcome in ok], OPEN_WINDOWS)
    # peak_qps: the answers' completion times cut into windows of
    # CLOSED_WINDOW_SECONDS; each whole window's rate is its answers after
    # the first over the time from its first to its last; median over the
    # windows.
    started = min(outcome.sent for outcome in closed)
    windows: List[List[float]] = [[] for _ in range(max(1, int(closed_seconds / CLOSED_WINDOW_SECONDS)))]
    for outcome in sorted(closed, key=lambda o: o.done):
        window = int((outcome.done - started) / CLOSED_WINDOW_SECONDS)
        if outcome.status == 200 and window < len(windows):
            windows[window].append(outcome.done)
    report.end_to_end["peak_qps"] = median((len(done) - 1) / (done[-1] - done[0]) for done in windows)
    closed_ok = sum(1 for outcome in closed if outcome.status == 200)
    report.details["closed_loop_mean_qps"] = closed_ok / closed_seconds
    lag_p99_ms = percentile([outcome.lag for outcome in opened], 0.99) * 1e3
    report.details["loadgen.lag_p99_ms"] = lag_p99_ms
    report.details["open_loop_requests"] = len(opened)
    report.details["closed_loop_requests"] = len(closed)

    if not tracer.enabled:
        return
    measure_build(report)
    measure_codec(report, [venue.payload for venue in venues])
    search_work(report, [entry[3] for entry in oracle.values()])
    measure_batch(report, work)
    streams = []
    for venue in venues:
        items = []
        for outcome in opened:
            name, query, method = inputs.parse_body(bodies[outcome.index])
            if name == venue.name:
                items.append((query, method))
        streams.append((venue.itgraph, items))
    replay_cache(report, streams)

    services = [metrics] if not shards else [entry["metrics"] for entry in metrics["shards"].values()]
    cache_counters(
        report,
        [service["venues"][name]["cache"] for service in services for name in service["venues"]],
    )
    searches = [answered[id(o)]["statistics"]["runtime_seconds"] for o in ok]
    report.per_layer["service.search_ms"] = median(searches) * 1e3
    report.per_layer["service.overhead_ms"] = median(o.latency - s for o, s in zip(ok, searches)) * 1e3
    report.per_layer["trace.latency_p50_ms"] = report.end_to_end["latency_p50_ms"]
    requests = [service["requests"] for service in services]
    report.per_layer["service.batch_size_mean"] = sum(r["answered"] for r in requests) / max(
        1, sum(r["batches"] for r in requests)
    )
    report.per_layer["admission.shed"] = float(
        sum(service["admission"]["shed"] for service in services)
        + (metrics["router"]["shed"] if shards else 0)
    )
    top_rung = sum(
        r["answered_by_rung"].get(service["ladder"]["rungs"][0], 0)
        for r, service in zip(requests, services)
    )
    report.per_layer["ladder.off_top_rung_share"] = 1.0 - top_rung / max(
        1, sum(r["answered"] for r in requests)
    )
    report.per_layer["ladder.breaker_trips"] = float(
        sum(b["trips"] for service in services for b in service["ladder"]["breakers"].values())
    )
    report.per_layer["loadgen.lag_p99_ms"] = lag_p99_ms
    if shards:
        report.per_layer["router.hop_ms"] = (
            median(o.latency for o in routed) - median(o.latency for o in direct)
        ) * 1e3
        report.per_layer["router.proxy_failures"] = float(metrics["router"]["proxy_failures"])
    else:
        report.not_on_path(ROUTER_LAYERS)
