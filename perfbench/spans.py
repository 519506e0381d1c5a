"""Span recorder and the traced run that yields the per-layer metrics.

Tracing lives entirely in the benchmark: it wraps, from outside, the
public entry points of each layer (``Session.query``/``push_many``/
``punctuate``, the engine or pool ``push_many``/``punctuate``,
``CheckpointCoordinator.checkpoint``/``recover``, ``Simulator.run_for``,
``partition_plan``) and the ``push``/``push_batch`` of every node of the
operator graph reachable from the running queries: operators, tees,
rebasing shims and sinks. Each span records its name, start, end,
parent span and batch id; spans stay in memory and are written to
``.perfbench_out/`` when the run ends. A layer's self time is its
spans' duration minus the time of their child spans.

The graph walk reads a few attributes that only exist for wiring
(``_downstream`` of a rebasing shim, ``_join`` of a join port,
``cursor._handle``), because the program has no public graph view yet.
Operators inside process workers run in another interpreter and cannot
be wrapped from here; the transport counters of ``worker_stats()``
stand in for them.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import defaultdict

import harness
from workloads import Ledger, Workload

from repro.analysis import analyze_plan
from repro.api.session import Session
from repro.data.streams import CollectingConsumer, StreamElement
from repro.plan import PlanBuilder
from repro.sql.analyzer import Analyzer
from repro.sql.normalize import normalize_sql
from repro.sql.parser import parse
from repro.stream import compiler as stream_compiler
from repro.stream import operators as ops
from repro.stream.multiplex import TeeOp

#: Operator class -> kind used in ``stream.operators.<kind>.*``. Exact
#: types: PartialAggregateOp subclasses AggregateOp.
OPERATOR_KINDS = {
    ops.FusedOp: "fused",
    ops.FilterOp: "filter",
    ops.ProjectOp: "project",
    ops.AggregateOp: "aggregate",
    ops.DistinctOp: "distinct",
    ops.SymmetricHashJoin: "join",
    ops.PartialAggregateOp: "partial_aggregate",
    ops.MergeAggregateOp: "merge_aggregate",
}

#: Every per-layer metric and its unit, in the order ``BENCHMARK.json``
#: lists them. A layer a workload does not exercise reports 0.
PER_LAYER = {
    "api.query.miss_ms": "ms",
    "api.query.hit_ms": "ms",
    "api.plan_cache.hit_ratio": "1",
    "api.push_many.self_ms": "ms",
    "sql.normalize_us": "us",
    "sql.parse_ms": "ms",
    "sql.bind_ms": "ms",
    "plan.build_ms": "ms",
    "analysis.analyze_ms": "ms",
    "stream.engine.floor_us_per_row": "us",
    "stream.engine.push_many.self_ms": "ms",
    "stream.engine.punctuate_ms": "ms",
    "stream.compiler.rebase.rows": "count",
    "stream.compiler.rebase.self_ms": "ms",
    "stream.compiler.compile_ms": "ms",
    **{
        f"stream.operators.{kind}.{what}": unit
        for kind in OPERATOR_KINDS.values()
        for what, unit in (("self_ms", "ms"), ("rows_in", "count"), ("rows_out", "count"))
    },
    "stream.multiplex.tee.self_ms": "ms",
    "stream.multiplex.fan_out": "count",
    "stream.multiplex.chains": "count",
    "stream.multiplex.share_ratio": "1",
    "stream.sink.self_ms": "ms",
    "stream.sink.rows": "count",
    "stream.sharded.route.self_ms": "ms",
    "stream.sharded.merge.self_ms": "ms",
    "stream.sharded.shard_skew": "1",
    "stream.procshard.rows_shipped": "count",
    "stream.procshard.batches_shipped": "count",
    "stream.procshard.rows_per_batch": "count",
    "stream.procshard.queue_depth_hwm": "count",
    "stream.procshard.batches_by_timeout": "count",
    "stream.procshard.restarts": "count",
    "stream.procshard.barrier_wait_ms": "ms",
    "stream.checkpoint.barriers": "count",
    "stream.checkpoint.checkpoint_ms": "ms",
    "stream.checkpoint.replay_entries": "count",
    "stream.checkpoint.recover_ms": "ms",
    "sensor.optimizer.partition_ms": "ms",
    "sensor.network.transmissions": "count",
    "sensor.network.bytes": "count",
    "runtime.simulation.run_for_ms": "ms",
    "stream.engine.push_remote.rows": "count",
    "python.gc.collections": "count",
    "python.gc.pause_ms": "ms",
    "trace.untraced_rows_per_s": "rows/s",
    "trace.traced_rows_per_s": "rows/s",
    "trace.overhead_frac": "1",
}

#: Repetitions per statement when timing the SQL front-end functions.
FRONT_END_REPEATS = 5
#: Untraced/traced block pairs in the traced run's closed loop.
TRACE_BLOCKS = 4


class SpanRecorder:
    """In-memory spans plus running self/total time per span name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, start, end, parent index or -1, batch id)
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.batch = -1
        self._open: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn, count_arg: int | None = None):
        """``fn`` wrapped so every call records one span named ``name``;
        ``count_arg`` names the positional argument whose rows it counts."""
        nid = self._id(name)
        spans, open_, child = self.spans, self._open, self._child
        self_s, total_s, rows = self.self_s, self.total_s, self.rows

        def wrapper(*args, **kwargs):
            if count_arg is not None:
                items = args[count_arg]
                rows[name] += len(items) if isinstance(items, list) else (
                    1 if isinstance(items, StreamElement) else 0
                )
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                inner = child.pop()
                spans[index] = (nid, start, end, parent, self.batch)
                duration = end - start
                self_s[name] += duration - inner
                total_s[name] += duration
                if child:
                    child[-1] += duration

        return wrapper

    def patch(self, owner, attr: str, name: str, count_arg: int | None = None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`unpatch`."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, self.timed(name, original, count_arg))

    def unpatch(self) -> None:
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own or isinstance(owner, type) or not hasattr(type(owner), attr):
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for nid, start, end, parent, batch in self.spans:
                out.write(f"{nid},{start:.9f},{end:.9f},{parent},{batch}\n")


def _successors(node) -> list:
    if isinstance(node, TeeOp):
        return list(node.branches)
    if isinstance(node, ops.Operator):
        return [node.downstream]
    for attr in ("_downstream", "_join"):
        nxt = getattr(node, attr, None)
        if nxt is not None:
            return [nxt]
    return []


def _layer(node) -> str | None:
    if isinstance(node, CollectingConsumer):
        return "stream.sink"
    if isinstance(node, TeeOp):
        return "stream.multiplex.tee"
    if isinstance(node, stream_compiler._ReschemaConsumer):
        return "stream.compiler.rebase"
    if isinstance(node, ops.SymmetricHashJoin._SidePort):
        return "stream.operators.join"
    if isinstance(node, ops.SymmetricHashJoin):
        return None  # entered only through its side ports
    if isinstance(node, ops.Operator):
        kind = OPERATOR_KINDS.get(type(node), type(node).__name__.lower())
        return f"stream.operators.{kind}"
    return None


def graph_nodes(engines) -> list:
    """Every node reachable from the engines' running queries and
    shared chains, each once."""
    roots = []
    for engine in engines:
        for handle in engine.running_queries:
            roots += [port.consumer for port in handle.compiled.ports]
        for chain in engine.subplans.live_chains:
            roots += [port.consumer for port in chain.compiled.ports]
            roots.append(chain.tee)
    seen: dict[int, object] = {}
    stack = roots
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack += _successors(node)
    return list(seen.values())


def local_engines(session) -> list:
    """The StreamEngines living in this process."""
    engine = session.engine
    if not hasattr(engine, "shard_count"):
        return [engine]
    local = [engine.fallback_engine]
    if not hasattr(engine, "worker_stats"):
        local += engine.engines
    return local


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(FRONT_END_REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def front_end(session, statements: list[str]) -> dict:
    """Median per-statement time of each front-end layer, timed by
    calling its public function on the workload's distinct SQL."""
    analyzer = Analyzer(session.catalog)
    builder = PlanBuilder(session.catalog)
    compiler = stream_compiler.PlanCompiler()
    out = defaultdict(list)
    for sql in dict.fromkeys(statements):
        statement = parse(sql)
        analyzed = analyzer.analyze_select(statement)
        plan = builder.build_select(analyzed)
        out["sql.normalize_us"].append(_median_ms(normalize_sql, sql) * 1e3)
        out["sql.parse_ms"].append(_median_ms(parse, sql))
        out["sql.bind_ms"].append(_median_ms(analyzer.analyze_select, statement))
        out["plan.build_ms"].append(_median_ms(builder.build_select, analyzed))
        out["analysis.analyze_ms"].append(_median_ms(analyze_plan, plan))
        out["stream.compiler.compile_ms"].append(
            _median_ms(lambda: compiler.compile(plan, CollectingConsumer()))
        )
    return {name: statistics.median(values) for name, values in out.items()}


def floor_us_per_row(workload: Workload, seed: int, batches: int) -> float:
    """Zero-query ingest of the same feed: coercion plus routing."""
    session = workload.floor_session()
    feed = workload.feed(seed)
    rows = 0
    elapsed = 0.0
    try:
        for _ in range(batches):
            batch = feed.batch(workload.traffic.closed_batch)
            start = time.perf_counter()
            for source, part, stamps in batch.parts:
                session.push_many(source, part, stamps)
                rows += len(part)
            session.punctuate(batch.watermark)
            elapsed += time.perf_counter() - start
    finally:
        session.close()
    return elapsed / rows * 1e6 if rows else 0.0


class GcWatch:
    """Collections and pause time, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def _query_wrapper(recorder: SpanRecorder, hits: list, misses: list):
    """``Session.query`` timed and classified by the plan cache's own
    hit counter (read outside the span)."""
    timed = recorder.timed("api.query", Session.query)

    def query(self, *args, **kwargs):
        before = self.stats()["plan_cache"]["hits"]
        start = time.perf_counter()
        cursor = timed(self, *args, **kwargs)
        elapsed = time.perf_counter() - start
        (hits if self.stats()["plan_cache"]["hits"] > before else misses).append(elapsed)
        return cursor

    return query


def traced_run(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """One traced run; returns (per-layer metrics, details)."""
    import repro.sensor.optimizer as sensor_optimizer

    ledger = Ledger()
    recorder = SpanRecorder()
    sizes = harness.plan(workload, seconds)
    t = workload.traffic
    feed = workload.feed(seed)

    # Set-up, with admission and optimizer calls traced, after one
    # untimed set-up that pays the per-process lazy imports.
    workload.open(seed).close()
    hits: list[float] = []
    misses: list[float] = []
    original_query = Session.query
    Session.query = _query_wrapper(recorder, hits, misses)
    recorder.patch(sensor_optimizer, "partition_plan", "sensor.optimizer.partition")
    try:
        deployment = workload.open(seed)
    finally:
        Session.query = original_query
        recorder.unpatch()
    harness.count_admissions(deployment, ledger)
    session = deployment.session
    out = {name: 0.0 for name in PER_LAYER}
    out["api.query.miss_ms"] = statistics.median(misses) * 1e3 if misses else 0.0
    out["api.query.hit_ms"] = statistics.median(hits) * 1e3 if hits else 0.0
    out["sensor.optimizer.partition_ms"] = (
        recorder.total_s.get("sensor.optimizer.partition", 0.0) * 1e3
    )
    out.update(front_end(session, workload.statements(seed)))
    out["stream.engine.floor_us_per_row"] = floor_us_per_row(
        workload, seed, max(4, sizes["closed_batches"] // 4)
    )

    # The open loop runs untraced; only the collector is watched, since
    # its pauses are what the latency percentiles absorb.
    progress = harness.Recorder(deployment)
    with GcWatch() as watch:
        harness.open_loop(
            deployment, feed, sizes["open_batches"], t.open_batch, t.open_rate,
            ledger, progress,
        )
    out["python.gc.collections"] = watch.collections
    out["python.gc.pause_ms"] = watch.pause_s * 1e3

    # Closed loop in alternating untraced and traced blocks of equal
    # size, so drift of the host or of the heap falls on both sides of
    # the overhead comparison. Counters are summed over traced blocks.
    nodes = graph_nodes(local_engines(session))
    operators = [node for node in nodes if type(node) in OPERATOR_KINDS]
    network = deployment.world.get("network")
    per_block = max(1, sizes["closed_batches"] // (2 * TRACE_BLOCKS))
    untraced: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []
    gc.collect()
    for block in range(TRACE_BLOCKS):
        untraced += harness.closed_loop(
            deployment, feed, per_block, t.closed_batch, ledger, progress
        )
        rows_before = [(op.rows_in, op.rows_out) for op in operators]
        radio_before = network.stats.snapshot() if network is not None else None
        ingested_before = sum(e.elements_ingested for e in local_engines(session))
        pushed_before = recorder.rows.get("api.push_many", 0)
        _install(recorder, deployment, nodes)

        def set_batch(k: int, offset: int = block * per_block) -> None:
            recorder.batch = offset + k

        traced += harness.closed_loop(
            deployment, feed, per_block, t.closed_batch, ledger, progress, hook=set_batch
        )
        recorder.unpatch()
        for op, (rows_in, rows_out) in zip(operators, rows_before):
            kind = OPERATOR_KINDS[type(op)]
            out[f"stream.operators.{kind}.rows_in"] += op.rows_in - rows_in
            out[f"stream.operators.{kind}.rows_out"] += op.rows_out - rows_out
        if network is not None:
            delta = network.stats.delta(radio_before)
            out["sensor.network.transmissions"] += delta.transmissions
            out["sensor.network.bytes"] += delta.bytes_transmitted
            # Fragment deliveries reach the engine through a callback
            # bound at deployment, before any wrapper exists; the engine's
            # ingest counter minus the rows pushed through push_many
            # counts them.
            ingested = sum(e.elements_ingested for e in local_engines(session))
            pushed = recorder.rows.get("api.push_many", 0) - pushed_before
            out["stream.engine.push_remote.rows"] += ingested - ingested_before - pushed
    details: dict = {}
    if "checkpoint_interval" in workload.connect_kwargs:
        _install(recorder, deployment, nodes)
        recorder.batch = -2
        recovery_s, first_step = harness.recover(
            deployment, feed, t.open_batch, ledger, progress
        )
        recorder.unpatch()
        details["recovery_ms"] = recovery_s * 1e3
        out["stream.checkpoint.recover_ms"] = first_step * 1e3
        replay = session.checkpointer.last_replay or {}
        out["stream.checkpoint.replay_entries"] = replay.get("entries", 0)
        out["stream.checkpoint.barriers"] = session.checkpointer.checkpoints_taken

    # Totals over the blocks, as ingest_rows_per_s is computed untraced.
    rate = lambda samples: sum(r for r, _ in samples) / sum(s for _, s in samples)
    out["trace.untraced_rows_per_s"] = rate(untraced)
    out["trace.traced_rows_per_s"] = rate(traced)
    out["trace.overhead_frac"] = 1.0 - out["trace.traced_rows_per_s"] / out["trace.untraced_rows_per_s"]
    _from_spans(out, recorder)
    _counters(out, session, len(deployment.cursors))
    deployment.close()
    harness.check_against_reference(workload, seed, progress, ledger)
    harness.OUT.mkdir(exist_ok=True)
    recorder.dump(harness.OUT / f"spans-{workload.name}-seed{seed}.csv")
    details["spans"] = len(recorder.spans)
    metrics = {name: (float(out[name]), unit) for name, unit in PER_LAYER.items()}
    return metrics, {"ledger": ledger, **details}


def _install(recorder: SpanRecorder, deployment, nodes) -> None:
    """Wrap the layer entry points and every graph node for tracing."""
    session = deployment.session
    engine = session.engine
    recorder.patch(session, "push_many", "api.push_many", count_arg=1)
    recorder.patch(session, "punctuate", "api.punctuate")
    pooled = hasattr(engine, "shard_count")
    if pooled:
        recorder.patch(engine, "push_many", "stream.sharded.route")
        recorder.patch(engine, "punctuate", "stream.procshard.barrier")
        # The merge coordinator declares __slots__, so its class methods
        # are wrapped (and restored by unpatch) instead of instances'.
        for cursor in deployment.cursors:
            coordinator = getattr(cursor._handle, "coordinator", None)
            if coordinator is not None:
                cls = type(coordinator)
                recorder.patch(cls, "receive", "stream.sharded.merge")
                recorder.patch(cls, "receive_batch", "stream.sharded.merge")
                break
    for local in local_engines(session):
        recorder.patch(local, "push_many", "stream.engine.push_many")
        recorder.patch(local, "punctuate", "stream.engine.punctuate")
    if session.checkpointer is not None:
        recorder.patch(session.checkpointer, "checkpoint", "stream.checkpoint.checkpoint")
        recorder.patch(session.checkpointer, "recover", "stream.checkpoint.recover")
    simulator = deployment.world.get("simulator")
    if simulator is not None:
        recorder.patch(simulator, "run_for", "runtime.simulation.run_for")
    for node in nodes:
        layer = _layer(node)
        if layer is None:
            continue
        counted = 0 if layer in ("stream.compiler.rebase", "stream.sink") else None
        recorder.patch(node, "push", layer, count_arg=counted)
        if hasattr(node, "push_batch"):
            recorder.patch(node, "push_batch", layer, count_arg=counted)


def _from_spans(out: dict, recorder: SpanRecorder) -> None:
    ms = lambda name: recorder.self_s.get(name, 0.0) * 1e3
    out["api.push_many.self_ms"] = ms("api.push_many")
    out["stream.engine.push_many.self_ms"] = ms("stream.engine.push_many")
    out["stream.engine.punctuate_ms"] = recorder.total_s.get("stream.engine.punctuate", 0.0) * 1e3
    out["stream.compiler.rebase.self_ms"] = ms("stream.compiler.rebase")
    out["stream.compiler.rebase.rows"] = recorder.rows.get("stream.compiler.rebase", 0)
    for kind in OPERATOR_KINDS.values():
        out[f"stream.operators.{kind}.self_ms"] = ms(f"stream.operators.{kind}")
    out["stream.multiplex.tee.self_ms"] = ms("stream.multiplex.tee")
    out["stream.sink.self_ms"] = ms("stream.sink")
    out["stream.sink.rows"] = recorder.rows.get("stream.sink", 0)
    out["stream.sharded.route.self_ms"] = ms("stream.sharded.route")
    out["stream.sharded.merge.self_ms"] = ms("stream.sharded.merge")
    out["stream.procshard.barrier_wait_ms"] = (
        recorder.total_s.get("stream.procshard.barrier", 0.0) * 1e3
    )
    out["stream.checkpoint.checkpoint_ms"] = (
        recorder.total_s.get("stream.checkpoint.checkpoint", 0.0) * 1e3
    )
    out["runtime.simulation.run_for_ms"] = (
        recorder.total_s.get("runtime.simulation.run_for", 0.0) * 1e3
    )

def _counters(out: dict, session, admitted: int) -> None:
    """Per-layer counters read from the public stats surfaces."""
    stats = session.stats()
    cache = stats["plan_cache"]
    lookups = cache["hits"] + cache["misses"]
    out["api.plan_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    sharing = stats["sharing"]
    out["stream.multiplex.fan_out"] = sharing["fan_out"]
    out["stream.multiplex.chains"] = sharing["chains"]
    out["stream.multiplex.share_ratio"] = sharing["attached"] / admitted if admitted else 0.0
    workers = stats.get("workers")
    if workers:
        for key in ("rows_shipped", "batches_shipped", "queue_depth_hwm",
                    "batches_by_timeout", "restarts"):
            out[f"stream.procshard.{key}"] = workers[key]
        if workers["batches_shipped"]:
            out["stream.procshard.rows_per_batch"] = (
                workers["rows_shipped"] / workers["batches_shipped"]
            )
        # worker_stats() sums over workers; the per-worker rows behind it
        # are the only per-shard load counter a process pool keeps.
        per_worker = [w["rows_shipped"] for w in getattr(session.engine, "_wstats", [])]
        if per_worker and sum(per_worker):
            out["stream.sharded.shard_skew"] = max(per_worker) / statistics.mean(per_worker)
