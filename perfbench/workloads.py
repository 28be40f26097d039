"""The benchmark's workloads and their measured runs.

Each workload builds its inputs from the ``--seed`` it is given and
drives the library only through its public entry points:
:func:`repro.run_replay` for the closed-loop batch replays and
:meth:`repro.live.LiveSimulation.run` for the threaded live engine.

Two clocks, never mixed within one metric:

* ``sim_*`` and ``speedup_vs_sync`` are virtual seconds of the modelled
  8x L4 / Llama-3-8B deployment (DP8). They are deterministic for a
  seed and are checked bit-identical across every replay of a run.
* ``host_*``, ``setup_s`` and ``peak_rss_mb`` are what the simulator
  costs on the host running the benchmark.

See ``NOTES.md`` for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import copy
import gc
import heapq
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import SchedulerConfig, ServingConfig, get_scenario, run_replay
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.engine import critical_time_for
from repro.core.rules import rules_for
from repro.trace import Trace, TraceMeta, io as trace_io, schema
from repro.world.behavior import FUNC_INDEX

from .cache import BENCH_DIR, SegmentCache
from .checks import (CausalityAudit, agent_state, check_live, check_repeats,
                     check_replay, percentile)
from . import layers
from .tracer import Tracer

#: The modelled deployment every ``sim_*`` number refers to.
GPUS = dict(model="llama3-8b", gpu="l4", dp=8)
#: Replays (or live runs) per timed loop, however short ``--seconds``.
MIN_REPEATS = 3
#: Set-ups per run, at least, and at least this many seconds of them
#: (a cheap set-up is repeated until its median stops being noise);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
#: Evenly spaced commits of the check pass audited for §3.2 validity.
AUDIT_SNAPSHOTS = 24
#: Host-speed calibration: operations per probe, and the probe's speed
#: on the nominal host that host-clock metrics are scaled to.
CAL_OPS = 120_000
CAL_NOMINAL_OPS_PER_S = 650_000.0


def host_speed() -> float:
    """This host's speed right now, relative to the nominal host.

    Times a fixed probe of the interpreter work a controller does
    (dict and set churn, a heap, small numpy reads), about 0.2 s. It
    lives here so that no change to the library can move it. On a
    shared host the speed of all Python code drifts by ±15% within a
    minute and by up to 30% between minutes; probes taken on each side
    of a replay followed its speed with correlation 0.8, and dividing
    by them cut the run-to-run spread of a 30-second median from 0.20
    to 0.07.
    """
    d: dict[int, int] = {}
    s: set[int] = set()
    heap: list[tuple[int, int]] = []
    a = np.arange(64, dtype=np.int64)
    acc = 0
    # The cyclic collector would make the probe's cost depend on how
    # many objects the process holds; replays run with it paused too.
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(CAL_OPS):
            k = (i * 7919) & 8191
            d[k] = d.get(k, 0) + 1
            if k in s:
                s.discard(k)
            else:
                s.add(k)
            heapq.heappush(heap, (k, i))
            if len(heap) > 512:
                acc += heapq.heappop(heap)[0]
            if not i & 63:
                acc += int(a[k & 63])
        elapsed = perf_counter() - t0
    finally:
        gc.enable()
    return CAL_OPS / elapsed / CAL_NOMINAL_OPS_PER_S


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    table: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit

    def check(self, errors: list[str]) -> None:
        """Count one output check; record its failures."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors


class AnonPeak:
    """Peak anonymous resident memory of this process, polled.

    The process high-water mark (``ru_maxrss``) also counts the resident
    pages of mapped libraries, which the kernel keeps or reclaims
    depending on other processes' memory pressure: one run of one seed
    read 106 or 126 MiB. Anonymous memory is the workload's own. A
    thread reads it every ``interval`` seconds while the context is open.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.mb = 0.0
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "AnonPeak":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    self.mb = max(self.mb, int(line.split()[1]) / 1024.0)
                    return


def sim_values(result, sync) -> dict:
    """The virtual-clock metrics of one metropolis replay."""
    lat = np.array([r.latency for r in result.engine_metrics.records])
    return {
        "sim_makespan_s": result.completion_time,
        "speedup_vs_sync": sync.completion_time / result.completion_time,
        "sim_call_p50_s": percentile(lat, 50.0),
        "sim_call_p999_s": percentile(lat, 99.9),
        "sim_parallelism": result.achieved_parallelism,
    }


SIM_UNITS = {"sim_makespan_s": "s", "speedup_vs_sync": "x",
             "sim_call_p50_s": "s", "sim_call_p999_s": "s",
             "sim_parallelism": "requests"}


def sim_key(result) -> tuple:
    """Everything virtual-time a repeat must reproduce bit-for-bit."""
    lat = tuple(r.latency for r in result.engine_metrics.records)
    return (result.completion_time, result.achieved_parallelism,
            result.n_calls_completed, hash(lat))


def replay_counts(out: Outcome, trace, result) -> None:
    """Attempted / unfinished tasks and calls of one replay."""
    meta = trace.meta
    tasks = meta.n_agents * meta.n_steps
    out.attempted += tasks + trace.n_calls
    out.failed += max(0, tasks - result.n_tasks_completed)
    out.failed += max(0, trace.n_calls - result.n_calls_completed)
    extra = result.driver_stats.extra
    out.failed += extra.get("rerouted_requests", 0)


def choose(seed: int, pool: int, k: int) -> list[int]:
    """``k`` distinct pool members, in a seed-determined order."""
    rng = np.random.default_rng([seed, pool, k])
    return rng.choice(pool, size=k, replace=False).tolist()


class _AuditedCommits:
    """Runs the causality audit after every ``every``-th graph commit."""

    def __init__(self, audit: CausalityAudit, every: int) -> None:
        self.audit = audit
        self.every = max(1, every)
        self.commits = 0
        self.errors: list[str] = []

    def __enter__(self) -> "_AuditedCommits":
        orig = self._orig = SpatioTemporalGraph.__dict__["commit"]
        hook = self

        def commit(graph, aids, new_positions):
            result = orig(graph, aids, new_positions)
            hook.commits += 1
            if hook.commits % hook.every == 0:
                hook.errors += hook.audit.check(graph.snapshot())
            return result

        SpatioTemporalGraph.commit = commit
        return self

    def __exit__(self, *exc) -> None:
        SpatioTemporalGraph.commit = self._orig


# -- replay workloads ----------------------------------------------------


@dataclass(frozen=True)
class ReplayWorkload:
    """Concatenated scenario segments replayed closed-loop in batch.

    The seed picks ``segments`` distinct segments, in order, from a pool
    of ``pool`` generated ones (generator seeds ``0..pool-1``); each is
    a single-map day prefix of ``agents_per_segment`` agents up to the
    window's end. Segments sit side by side in space (the paper's §4.3
    large-ville method) and the window is sliced from the result.
    """

    name: str
    scenario: str
    window: str  # "busy" (busy hour) or "active" (active window)
    pool: int
    segments: int
    kv_policy: str = "none"
    kv_memory_fraction: float = 0.9

    def bounds(self) -> tuple[int, int]:
        scn = get_scenario(self.scenario)
        if self.window == "busy":
            from repro import STEPS_PER_HOUR
            start = scn.busy_hour * STEPS_PER_HOUR
            return start, start + STEPS_PER_HOUR
        return scn.active_window

    def serving(self) -> ServingConfig:
        return ServingConfig(**GPUS, kv_policy=self.kv_policy,
                             kv_memory_fraction=self.kv_memory_fraction)

    def scheduler(self, policy: str = "metropolis") -> SchedulerConfig:
        return SchedulerConfig(policy=policy, scenario=self.scenario)

    def choose(self, seed: int) -> list[int]:
        return choose(seed, self.pool, self.segments)

    def prepare(self, seed: int, cache: SegmentCache) -> list[Path]:
        """Generate any missing pool segment (untimed)."""
        _, end = self.bounds()
        n = get_scenario(self.scenario).agents_per_segment
        return [cache.ensure(self.scenario, g, n, end)
                for g in self.choose(seed)]

    def setup(self, paths: list[Path]) -> Trace:
        """The timed set-up: scenario, load + validate, concat, window."""
        scn = get_scenario(self.scenario)
        world, _ = scn.world()
        segments = [trace_io.load_trace(p) for p in paths]
        day = schema.concat_traces(segments, x_stride=world.width + 1)
        start, end = self.bounds()
        return day.window(start, end)

    def audit(self, trace) -> CausalityAudit:
        rules = rules_for(self.scheduler(), trace.meta)
        dep = rules.config
        adjacency = None
        if dep.metric == "graph":
            world, _ = get_scenario(self.scenario).world()
            stride = world.width + 1
            adjacency = {}
            for k in range(trace.meta.segments):
                off = k * stride
                for node, neigh in world.adjacency.items():
                    adjacency[node + off] = tuple(v + off for v in neigh)
        return CausalityAudit(dep.radius_p, dep.max_vel, dep.metric,
                              adjacency)

    def run(self, seed: int, seconds: float, traced: bool,
            cache: SegmentCache, out: Outcome) -> None:
        paths = self.prepare(seed, cache)
        setups = []
        setup_tracer = Tracer(self.name)
        speed0 = host_speed()
        while not setups or not traced and (
                len(setups) < SETUP_REPEATS
                or sum(setups) < SETUP_MIN_SECONDS):
            t0 = perf_counter()
            if traced:
                with layers.traced(setup_tracer, "setup") as setup_root:
                    trace = self.setup(paths)
            else:
                trace = self.setup(paths)
            setups.append(perf_counter() - t0)
        setup_speed = (speed0 + host_speed()) / 2
        meta = trace.meta
        agent_steps = meta.n_agents * meta.n_steps
        sched, serving = self.scheduler(), self.serving()
        # Lazy per-process state (the scenario's space over this many
        # segments) is built once here, outside every timed region.
        rules_for(sched, meta)
        bound = critical_time_for(trace, serving, sched)
        out.info.update(agents=meta.n_agents, steps=meta.n_steps,
                        calls=trace.n_calls, segments=self.choose(seed),
                        generated_segments=cache.generated)

        keys: list[tuple] = []

        def replay():
            """One checked metropolis replay: ``(wall seconds, result)``."""
            t0 = perf_counter()
            result = run_replay(trace, sched, serving)
            wall = perf_counter() - t0
            keys.append(sim_key(result))
            replay_counts(out, trace, result)
            out.check(check_replay(trace, result, bound))
            return wall, result

        # Only the latest result is kept, so peak RSS does not grow with
        # the number of repeats.
        walls, traced_walls, speeds = [], [], [host_speed()]
        t_end = perf_counter() + seconds
        while len(walls) < MIN_REPEATS or perf_counter() < t_end:
            wall, result = replay()
            walls.append(wall)
            speeds.append(host_speed())
            if traced:
                # Untraced and traced replays alternate, so the
                # overhead is not confounded with drift in host speed.
                tracer = Tracer(self.name)
                with layers.traced(tracer, "run") as run_root:
                    wall, result = replay()
                traced_walls.append(wall)
        raw = [agent_steps / w for w in walls]
        # Each replay is scaled by the probes taken on either side of it.
        host = [r * 2 / (speeds[i] + speeds[i + 1])
                for i, r in enumerate(raw)]

        sync = run_replay(trace, self.scheduler("parallel-sync"), serving)
        replay_counts(out, trace, sync)
        audit = self.audit(trace)
        every = result.driver_stats.controller_rounds // AUDIT_SNAPSHOTS
        with _AuditedCommits(audit, every) as audited:
            check = run_replay(trace, sched, serving, collect_timeline=True)
        replay_counts(out, trace, check)
        keys.append(sim_key(check))
        out.check(check_replay(trace, check, bound))
        out.check(audited.errors
                  or ([] if audit.snapshots else ["audit saw no commit"]))
        out.check(check_repeats(keys))
        out.info.update(audit_snapshots=audit.snapshots,
                        audit_pairs=audit.pairs, critical_bound_s=bound,
                        repeats=len(walls))

        if traced:
            layers.replay_metrics(out, setup_tracer, setup_root.id, tracer,
                                  run_root.id, result)
            layers.overhead_metrics(
                out, statistics.median(raw),
                agent_steps / statistics.median(traced_walls))
            out.info["spans_file"] = str(layers.write_spans(
                tracer, BENCH_DIR / "out", self.name, seed))
            return
        out.put("setup_s", statistics.median(setups) * setup_speed, "s")
        out.put("host_agent_steps_per_s", statistics.median(host),
                "agent-steps/s")
        for name, value in sim_values(check, sync).items():
            out.put(name, value, SIM_UNITS[name])
        lat_n = len(check.engine_metrics.records)
        out.info.update(call_samples=lat_n,
                        samples_beyond_p999=lat_n - int(np.ceil(
                            0.999 * lat_n)),
                        setup_runs=[round(s, 4) for s in setups],
                        host_speed=[round(v, 3) for v in speeds],
                        raw_agent_steps_per_s=[round(h, 1) for h in raw],
                        host_runs=[round(h, 1) for h in host])


# -- live workload ------------------------------------------------------


class SideBySide:
    """World program: independent segment worlds placed side by side.

    Agent ids run contiguously across segments and segment ``k``'s x
    coordinates are offset by ``k * x_stride`` — the layout of
    :func:`repro.trace.schema.concat_traces` — so the live engine's
    dependency graph sees exactly the geometry a replay of the recorded
    window sees. A cluster spanning segments steps each segment's
    members through that segment's own program.
    """

    def __init__(self, models, x_stride: int) -> None:
        from repro.live.environment import BehaviorProgram
        self.programs = [BehaviorProgram(m) for m in models]
        self.x_stride = x_stride
        self._where = [(k, i) for k, m in enumerate(models)
                       for i in range(len(m.agents))]

    @property
    def n_agents(self) -> int:
        return len(self._where)

    def position(self, aid: int) -> tuple[int, int]:
        k, i = self._where[aid]
        x, y = self.programs[k].position(i)
        return (x + k * self.x_stride, y)

    def positions(self, aids) -> dict:
        return {aid: self.position(aid) for aid in aids}

    def execute(self, step: int, agent_ids, client) -> None:
        parts: dict[int, list[int]] = {}
        for aid in agent_ids:
            k, i = self._where[aid]
            parts.setdefault(k, []).append(i)
        for k in sorted(parts):
            self.programs[k].execute(step, parts[k], client)


@dataclass(frozen=True)
class LiveWorkload:
    """The threaded live engine over one scenario's active window.

    The seed picks ``segments`` populations of the scenario's
    ``agents_per_segment`` agents from a pool of ``pool`` (population
    seeds ``0..pool-1``), placed side by side. Set-up warms each
    population lock-step to the window start, snapshots it for the live
    runs, and carries on lock-step through the window as the reference,
    recording the calls it issues. Every live run starts from a copy of
    the snapshot and must end in the reference's exact final state.
    ``sim_*`` numbers replay the recorded window on the modelled
    deployment, so they describe the same calls the live runs make.
    """

    name: str
    scenario: str
    pool: int
    segments: int
    workers: int = 2
    base_latency: float = 0.002
    per_token: float = 0.00002

    def choose(self, seed: int) -> list[int]:
        return choose(seed, self.pool, self.segments)

    def setup(self, seed: int):
        """Timed: warm-up, snapshot, lock-step reference, window trace."""
        scn = get_scenario(self.scenario)
        world, _ = scn.world()
        start, end = scn.active_window
        models, traces = [], []
        snapshot = []
        for pop in self.choose(seed):
            model = scn.model(scn.agents_per_segment, pop)
            for step in range(start):
                model.step_all(step)
            snapshot.append(copy.deepcopy(model, _shared(model)))
            traces.append(self._record_window(model, pop, start, end, world))
            models.append(model)
        trace = schema.concat_traces(traces, x_stride=world.width + 1)
        reference = [s for m in models for s in agent_state(m)]
        return snapshot, reference, trace

    def _record_window(self, model, seed, start, end, world) -> Trace:
        """Lock-step through the window, recording positions and calls."""
        n = len(model.agents)
        positions = np.zeros((end - start + 1, n, 2), dtype=np.int16)
        positions[0] = [a.pos for a in model.agents]
        cols = ([], [], [], [], [])
        for step in range(start, end):
            calls = model.step_all(step)
            for aid in range(n):
                for call in calls[aid]:
                    for col, v in zip(cols, (
                            step - start, aid, FUNC_INDEX[call.func],
                            call.input_tokens, call.output_tokens)):
                        col.append(v)
            positions[step - start + 1] = [a.pos for a in model.agents]
        dep = rules_for(SchedulerConfig(scenario=self.scenario)).config
        meta = TraceMeta(n_agents=n, n_steps=end - start, seed=seed,
                         width=world.width, height=world.height,
                         scenario=self.scenario, radius_p=dep.radius_p,
                         max_vel=dep.max_vel, metric=dep.metric,
                         base_step=start)
        dtypes = (np.int32, np.int32, np.int16, np.int32, np.int32)
        return Trace(meta, positions,
                     *(np.asarray(c, dtype=t) for c, t in zip(cols, dtypes)),
                     step_major=True)

    def live_once(self, snapshot, out: Outcome, trace, reference):
        """One checked live run from a copy of the snapshot."""
        from repro.live import LiveSimulation, ThrottledLLMClient
        scn = get_scenario(self.scenario)
        world, _ = scn.world()
        start, end = scn.active_window
        models = [copy.deepcopy(m, _shared(m)) for m in snapshot]
        program = SideBySide(models, world.width + 1)
        client = ThrottledLLMClient(self.base_latency, self.per_token,
                                    slots=self.workers)
        sim = LiveSimulation(program, client,
                             scheduler=SchedulerConfig(
                                 scenario=self.scenario),
                             num_workers=self.workers)
        t0 = perf_counter()
        result = sim.run(target_step=end, start_step=start)
        wall = perf_counter() - t0
        out.attempted += program.n_agents * (end - start) + trace.n_calls
        f = result.faults
        out.failed += (f.llm_failures + f.redispatches + f.aborted_clusters
                       + f.degraded_completions + f.leaked_workers)
        out.failed += abs(client.calls - trace.n_calls)
        state = [s for m in models for s in agent_state(m)]
        out.check(check_live(state, reference, result.final_positions,
                             program.positions(range(program.n_agents))))
        return result, client, wall

    def run(self, seed: int, seconds: float, traced: bool,
            cache: SegmentCache, out: Outcome) -> None:
        setups = []
        for _ in range(1 if traced else SETUP_REPEATS):
            t0 = perf_counter()
            snapshot, reference, trace = self.setup(seed)
            setups.append(perf_counter() - t0)
        agent_steps = trace.meta.n_agents * trace.meta.n_steps
        out.info.update(agents=trace.meta.n_agents,
                        steps=trace.meta.n_steps, calls=trace.n_calls,
                        populations=self.choose(seed), workers=self.workers)

        walls = []
        budget = seconds / 2 if traced else seconds
        t_end = perf_counter() + budget
        while len(walls) < (2 if traced else MIN_REPEATS) \
                or perf_counter() < t_end:
            walls.append(self.live_once(snapshot, out, trace, reference)[2])
        host = [agent_steps / w for w in walls]

        # Virtual-time view of the same window on the modelled GPUs.
        serving = ServingConfig(**GPUS)
        sched = SchedulerConfig(scenario=self.scenario)
        first = run_replay(trace, sched, serving)
        sync = run_replay(trace, sched.with_policy("parallel-sync"),
                          serving)
        bound = critical_time_for(trace, serving, sched)
        check = run_replay(trace, sched, serving, collect_timeline=True)
        for result in (first, sync, check):
            replay_counts(out, trace, result)
        out.check(check_replay(trace, check, bound))
        out.check(check_replay(trace, first, bound))
        keys = [sim_key(first), sim_key(check)]

        if traced:
            tracer = Tracer(self.name)
            with layers.traced(tracer, "run") as run_root:
                result, client, wall = self.live_once(
                    snapshot, out, trace, reference)
            out.check(check_repeats(keys))
            layers.live_metrics(out, tracer, run_root.id, result, client)
            layers.overhead_metrics(out, statistics.median(host),
                                    agent_steps / wall)
            out.info["spans_file"] = str(layers.write_spans(
                tracer, BENCH_DIR / "out", self.name, seed))
            return
        out.check(check_repeats(keys))
        out.put("setup_s", statistics.median(setups), "s")
        out.put("host_agent_steps_per_s", statistics.median(host),
                "agent-steps/s")
        for name, value in sim_values(check, sync).items():
            out.put(name, value, SIM_UNITS[name])
        out.info.update(setup_runs=[round(s, 4) for s in setups],
                        host_runs=[round(h, 1) for h in host])


def _shared(model) -> dict:
    """Deep-copy memo keeping a model's immutable map and planner shared."""
    return {id(model.world): model.world, id(model.planner): model.planner}


WORKLOADS = {
    w.name: w for w in (
        ReplayWorkload("busy-hour-kv", "smallville", "busy", pool=5,
                       segments=4, kv_policy="distance",
                       kv_memory_fraction=0.06),
        ReplayWorkload("graph-active", "social-graph", "active", pool=40,
                       segments=30),
        LiveWorkload("live-market", "market-town", pool=6, segments=5),
    )
}
