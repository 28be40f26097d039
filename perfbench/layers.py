"""Per-layer metrics of the traced run, named by module.

The traced run wraps the public boundary functions of each layer (plus
the driver's and replicas' kernel callbacks, which are where their
work happens) and reads the counters the program already exports:
``DriverStats``, ``kv_stats``, ``EngineMetrics``, ``LiveResult`` and
``FaultStats``. Layers a workload does not execute report zero.

Every ``*_s`` metric below is a *self* time (children excluded) except
``kernel.run_s``, the kernel loop's inclusive time. The layer table
printed for a traced run lists the self time of every span under the
run root; with ``unattributed_s`` (the root's own self time) the rows
sum to ``traced_wall_s``.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from pathlib import Path

from .tracer import Target, Tracer

#: Every per-layer metric, in report order, with its unit.
METRICS: dict[str, str] = {
    "trace.load_s": "s", "trace.validate_s": "s", "trace.window_s": "s",
    "trace.chain_bounds_calls": "count", "trace.chain_bounds_s": "s",
    "graph.commit_calls": "count", "graph.commit_rows": "count",
    "graph.commit_s": "s", "graph.mark_running_s": "s",
    "graph.component_s": "s", "graph.scans": "count",
    "graph.scan_skip_ratio": "ratio", "graph.near_checks": "count",
    "graph.scanned_slots": "count", "graph.fallback_scans": "count",
    "graph.blocked_events": "count",
    "driver.clustering_s": "s", "driver.graph_s": "s",
    "driver.dispatch_s": "s", "driver.rounds": "count",
    "driver.clusters": "count", "driver.mean_cluster_size": "agents",
    "driver.max_step_spread": "steps",
    "driver.kernel_events_per_cluster": "ratio",
    "executor.run_cluster_calls": "count", "executor.run_cluster_s": "s",
    "executor.calls_issued": "count",
    "kernel.run_s": "s", "kernel.self_s": "s", "kernel.events": "count",
    "serving.generate_calls": "count", "serving.generate_s": "s",
    "serving.prefetch_s": "s", "serving.gpu_busy": "ratio",
    "serving.queue_p50_s": "s", "serving.kv_hit_ratio": "ratio",
    "serving.kv_evictions": "count", "serving.kv_forced_evictions": "count",
    "live.controller_s": "s", "live.rounds": "count",
    "live.clusters": "count", "live.max_step_spread": "steps",
    "live.llm_calls": "count", "live.llm_s": "s",
    "world.execute_calls": "count", "world.execute_s": "s",
    "kvstore.transactions": "count", "kvstore.tx_s": "s",
    "kvstore.tx_retries": "count",
    "faults.call_retries": "count", "faults.redispatches": "count",
    "faults.fallback_calls": "count",
    "traced_wall_s": "s", "unattributed_s": "s",
    "tracing.untraced_agent_steps_per_s": "agent-steps/s",
    "tracing.traced_agent_steps_per_s": "agent-steps/s",
    "tracing.overhead_share": "ratio",
}


@contextmanager
def traced(tracer: Tracer, root: str):
    """Wrappers installed around one root span; originals restored."""
    install(tracer)
    try:
        with tracer.root(root) as span:
            yield span
    finally:
        tracer.restore()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.core.dependency_graph import SpatioTemporalGraph
    from repro.core.metropolis import MetropolisDriver
    from repro.core.tasks import ChainExecutor, _ClusterRun
    from repro.devent.kernel import Kernel
    from repro.faults.resilient import ResilientClient
    from repro.kvstore.store import KVStore
    from repro.live.clients import ThrottledLLMClient
    from repro.live.engine import LiveSimulation
    from repro.live.environment import BehaviorProgram
    from repro.serving.engine import ServingEngine
    from repro.serving.replica import FluidReplica
    from repro.trace import io as trace_io, schema

    Trace = schema.Trace
    tracer.install([
        # trace
        Target(trace_io, "load_trace", "trace.load"),
        Target(Trace, "validate_movement", "trace.validate"),
        Target(schema, "concat_traces", "trace.concat"),
        Target(Trace, "window", "trace.window"),
        Target(Trace, "chain_bounds", "trace.chain_bounds"),
        # graph
        Target(SpatioTemporalGraph, "commit", "graph.commit",
               size=lambda a: len(a[1])),
        Target(SpatioTemporalGraph, "mark_running", "graph.mark_running"),
        Target(SpatioTemporalGraph, "component_for", "graph.component"),
        # driver (its kernel callbacks)
        Target(MetropolisDriver, "_controller_round", "driver.round"),
        Target(MetropolisDriver, "_retire_commits", "driver.retire"),
        Target(MetropolisDriver, "_launch_batch", "driver.launch"),
        # executor
        Target(ChainExecutor, "run_cluster", "executor.run_cluster"),
        Target(_ClusterRun, "start", "executor.start"),
        Target(_ClusterRun, "_call_done", "executor.call_done"),
        # kernel
        Target(Kernel, "run", "kernel.run"),
        # serving
        Target(ServingEngine, "generate", "serving.generate"),
        Target(ServingEngine, "generate_batch", "serving.generate_batch"),
        Target(ServingEngine, "prefetch", "serving.prefetch"),
        Target(FluidReplica, "_prefill_done", "serving.replica"),
        Target(FluidReplica, "_completions_due", "serving.replica"),
        # live controller, world, LLM client, KV store, faults
        Target(LiveSimulation, "_dispatch_round", "live.dispatch"),
        Target(LiveSimulation, "_await_ack", "live.wait"),
        Target(BehaviorProgram, "execute", "world.execute"),
        Target(ResilientClient, "complete", "faults.resilient"),
        Target(ThrottledLLMClient, "complete", "live.llm"),
        Target(KVStore, "transaction", "kvstore.tx"),
    ], counted=[(Kernel, "call_at", "kernel.events")])


def _self(rows: dict, name: str) -> float:
    return rows.get(name, (0.0, 0, 0))[0]


def _calls(rows: dict, name: str) -> int:
    return rows.get(name, (0.0, 0, 0))[1]


def _zero_all(out) -> None:
    for name, unit in METRICS.items():
        out.put(name, 0.0, unit)


def _table(out, on: dict, off: dict, root: str) -> None:
    wall = sum(row[0] for row in on.values())
    out.table = [(name, row[0], row[1], row[0] / wall if wall else 0.0)
                 for name, row in sorted(on.items(),
                                         key=lambda kv: -kv[1][0])]
    out.table += [(f"{name} [worker threads]", row[0], row[1], None)
                  for name, row in sorted(off.items(),
                                          key=lambda kv: -kv[1][0])]
    out.put("traced_wall_s", wall, "s")
    out.put("unattributed_s", _self(on, root), "s")


def _graph_counters(out, tracer: Tracer, on: dict) -> None:
    graph = tracer.instances.get("graph.commit")
    out.put("graph.commit_calls", _calls(on, "graph.commit"), "count")
    out.put("graph.commit_rows", on.get("graph.commit", (0, 0, 0))[2],
            "count")
    out.put("graph.commit_s", _self(on, "graph.commit"), "s")
    out.put("graph.mark_running_s", _self(on, "graph.mark_running"), "s")
    out.put("graph.component_s", _self(on, "graph.component"), "s")
    if graph is None:
        return
    tried = graph.scans + graph.scan_skips
    out.put("graph.scans", graph.scans, "count")
    out.put("graph.scan_skip_ratio",
            graph.scan_skips / tried if tried else 0.0, "ratio")
    out.put("graph.near_checks", graph.near_checks, "count")
    out.put("graph.scanned_slots", graph.scanned_slots, "count")
    out.put("graph.fallback_scans", graph.fallback_scans, "count")
    out.put("graph.blocked_events", graph.blocked_events, "count")


def replay_metrics(out, setup_tracer: Tracer, setup_id: int,
                   tracer: Tracer, run_id: int, result) -> None:
    """Per-layer metrics of one traced replay (plus its traced set-up)."""
    _zero_all(out)
    setup, _ = setup_tracer.tree(setup_id)
    out.put("trace.load_s", _self(setup, "trace.load"), "s")
    out.put("trace.validate_s", _self(setup, "trace.validate"), "s")
    out.put("trace.window_s", _self(setup, "trace.window"), "s")
    on, off = tracer.tree(run_id)
    _table(out, on, off, "run")
    out.put("trace.chain_bounds_calls", _calls(on, "trace.chain_bounds"),
            "count")
    out.put("trace.chain_bounds_s", _self(on, "trace.chain_bounds"), "s")
    _graph_counters(out, tracer, on)
    stats = result.driver_stats
    out.put("driver.clustering_s", stats.time_clustering, "s")
    out.put("driver.graph_s", stats.time_graph, "s")
    out.put("driver.dispatch_s", stats.time_dispatch, "s")
    out.put("driver.rounds", stats.controller_rounds, "count")
    out.put("driver.clusters", stats.clusters_dispatched, "count")
    out.put("driver.mean_cluster_size", stats.mean_cluster_size, "agents")
    out.put("driver.max_step_spread", stats.max_step_spread, "steps")
    out.put("driver.kernel_events_per_cluster",
            stats.extra.get("kernel_events", 0)
            / max(stats.clusters_dispatched, 1), "ratio")
    executor = tracer.instances.get("executor.run_cluster")
    out.put("executor.run_cluster_calls",
            _calls(on, "executor.run_cluster"), "count")
    out.put("executor.run_cluster_s", _self(on, "executor.run_cluster"), "s")
    out.put("executor.calls_issued",
            executor.calls_issued if executor else 0, "count")
    kernel_spans = [s for s in tracer.spans if s[1] == "kernel.run"]
    out.put("kernel.run_s", sum(s[3] - s[2] for s in kernel_spans), "s")
    out.put("kernel.self_s", _self(on, "kernel.run"), "s")
    out.put("kernel.events", tracer.counters["kernel.events"], "count")
    out.put("serving.generate_calls", _calls(on, "serving.generate"),
            "count")
    out.put("serving.generate_s", _self(on, "serving.generate")
            + _self(on, "serving.generate_batch"), "s")
    out.put("serving.prefetch_s", _self(on, "serving.prefetch"), "s")
    out.put("serving.gpu_busy", result.gpu_busy_fraction, "ratio")
    queue = [r.queue_time for r in result.engine_metrics.records]
    out.put("serving.queue_p50_s",
            statistics.median(queue) if queue else 0.0, "s")
    kv = result.kv_stats
    looked = kv.get("hits", 0) + kv.get("misses", 0)
    out.put("serving.kv_hit_ratio",
            kv.get("hits", 0) / looked if looked else 0.0, "ratio")
    out.put("serving.kv_evictions", kv.get("evictions", 0), "count")
    out.put("serving.kv_forced_evictions", kv.get("forced_evictions", 0),
            "count")


def live_metrics(out, tracer: Tracer, run_id: int, result, client) -> None:
    """Per-layer metrics of one traced live run."""
    _zero_all(out)
    on, off = tracer.tree(run_id)
    _table(out, on, off, "run")
    _graph_counters(out, tracer, on)
    out.put("live.controller_s", result.controller_time, "s")
    out.put("live.rounds", result.controller_rounds, "count")
    out.put("live.clusters", result.clusters_executed, "count")
    out.put("live.max_step_spread", result.max_step_spread, "steps")
    out.put("live.llm_calls", client.calls, "count")
    out.put("live.llm_s", _self(off, "live.llm"), "s")
    out.put("world.execute_calls", _calls(off, "world.execute"), "count")
    out.put("world.execute_s", _self(off, "world.execute"), "s")
    out.put("kvstore.transactions", _calls(off, "kvstore.tx"), "count")
    out.put("kvstore.tx_s", _self(off, "kvstore.tx"), "s")
    faults = result.faults
    out.put("kvstore.tx_retries", faults.tx_retries, "count")
    out.put("faults.call_retries", faults.llm_retries, "count")
    out.put("faults.redispatches", faults.redispatches, "count")
    out.put("faults.fallback_calls", faults.degraded_completions, "count")


def overhead_metrics(out, untraced: float, traced: float) -> None:
    """Host throughput with and without the wrappers installed."""
    out.put("tracing.untraced_agent_steps_per_s", untraced, "agent-steps/s")
    out.put("tracing.traced_agent_steps_per_s", traced, "agent-steps/s")
    out.put("tracing.overhead_share",
            1.0 - traced / untraced if untraced else 0.0, "ratio")


def write_spans(tracer: Tracer, out_dir: Path, workload: str,
                seed: int) -> Path:
    path = out_dir / f"{workload}-seed{seed}.spans.tsv"
    tracer.write(path)
    return path
