"""Output checks, relative to the seed's own inputs.

No check compares against a pinned constant: each derives its
expectation from the workload the seed generated, so a new seed or a
legitimate scheduling change still passes while a lost, reordered or
corrupted output does not. Every check returns a list of failure
messages (empty = pass).

* :func:`check_replay` — every task and call of the trace completed,
  each agent's calls arrived in the trace's order, and the virtual
  makespan is no shorter than the critical-path bound.
* :func:`check_repeats` — the ``sim_*`` values of every replay of one
  invocation are bit-identical.
* :func:`check_live` — the live run's final per-agent state equals the
  lock-step reference built from the same seed.
* :class:`CausalityAudit` — the full pairwise §3.2 validity condition,
  vectorised, over ``graph.snapshot()`` at evenly spaced commits.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def check_replay(trace, result, critical_bound: float) -> list[str]:
    """Completeness, per-agent call order and the critical-path bound."""
    errors = []
    meta = trace.meta
    tasks = meta.n_agents * meta.n_steps
    if result.n_tasks_completed != tasks:
        errors.append(f"tasks completed {result.n_tasks_completed} != "
                      f"agents x steps {tasks}")
    if result.n_calls_completed != trace.n_calls:
        errors.append(f"calls completed {result.n_calls_completed} != "
                      f"trace calls {trace.n_calls}")
    if result.timeline is not None:
        errors += check_call_order(trace, result.timeline.events)
    if not result.completion_time >= critical_bound:
        errors.append(f"makespan {result.completion_time!r} below the "
                      f"critical-path bound {critical_bound!r}")
    return errors


def check_call_order(trace, events) -> list[str]:
    """Each agent's observed ``(step, func)`` sequence equals the trace's.

    ``events`` is the check pass's timeline in completion order. A
    per-agent stable grouping keeps each agent's own order; the trace
    stores calls sorted by ``(agent, step, chain order)``. An agent's
    next call must also start no earlier than its previous one ended
    (the chain is sequential).
    """
    n = len(events)
    if n != trace.n_calls:
        return [f"timeline has {n} calls, trace has {trace.n_calls}"]
    agent = np.fromiter((e.agent for e in events), np.int64, n)
    step = np.fromiter((e.step for e in events), np.int64, n)
    func = np.fromiter((e.func_id for e in events), np.int64, n)
    submit = np.fromiter((e.submit_time for e in events), np.float64, n)
    finish = np.fromiter((e.finish_time for e in events), np.float64, n)
    order = np.argsort(agent, kind="stable")
    errors = []
    bad = np.flatnonzero(
        (agent[order] != trace.call_agent)
        | (step[order] != trace.call_step)
        | (func[order] != trace.call_func))
    if bad.size:
        i = int(bad[0])
        errors.append(
            f"{bad.size} calls out of trace order; first: agent "
            f"{int(trace.call_agent[i])} expected (step "
            f"{int(trace.call_step[i])}, func {int(trace.call_func[i])}), "
            f"got agent {int(agent[order][i])} (step "
            f"{int(step[order][i])}, func {int(func[order][i])})")
    same = agent[order][1:] == agent[order][:-1]
    overlap = same & (submit[order][1:] < finish[order][:-1])
    if overlap.any():
        errors.append(f"{int(overlap.sum())} calls started before the "
                      f"same agent's previous call finished")
    return errors


def check_repeats(values: list[tuple]) -> list[str]:
    """All repeats of one invocation report identical ``sim_*`` values."""
    if len(set(values)) > 1:
        return [f"sim values differ across {len(values)} repeats: "
                f"{sorted(set(values))[:3]}"]
    return []


def agent_state(model) -> list[tuple]:
    """The compared live state: ``(pos, awake, activity, len(memory))``."""
    return [(a.pos, a.awake, a.activity, len(a.memory))
            for a in model.agents]


def check_live(state: list[tuple], reference: list[tuple],
               store_positions: dict, positions: dict) -> list[str]:
    """Live final state equals lock-step; the KV store agrees.

    ``positions`` are the program's final positions in the engine's
    coordinates, which the KV store must hold.
    """
    errors = []
    if len(state) != len(reference):
        return [f"{len(state)} agents, reference has {len(reference)}"]
    diff = [aid for aid, (a, b) in enumerate(zip(state, reference))
            if a != b]
    if diff:
        aid = diff[0]
        errors.append(f"{len(diff)} agents differ from lock-step; first: "
                      f"agent {aid} {state[aid]} != {reference[aid]}")
    stored = [aid for aid in positions
              if tuple(store_positions.get(aid, ())) != tuple(positions[aid])]
    if stored:
        errors.append(f"{len(stored)} KV-store positions differ from the "
                      f"world's; first: agent {stored[0]}")
    return errors


def percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (an observed value, no interpolation)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(q / 100.0 * len(v))) - 1
    return float(v[min(max(rank, 0), len(v) - 1)])


class CausalityAudit:
    """Vectorised §3.2 validity condition over graph snapshots.

    A state is valid iff every pair of agents at different steps is
    farther apart than ``radius_p + (|gap| - 1) * max_vel``. Distances
    are recomputed here from positions — not through the scheduler's
    space — so the audit is independent of the code it checks. Graph
    worlds use per-component all-pairs hop tables built by BFS over the
    world's adjacency (cross-component pairs are infinitely far).
    """

    def __init__(self, radius_p: float, max_vel: float, metric: str,
                 adjacency: dict | None = None) -> None:
        self.radius_p = radius_p
        self.max_vel = max_vel
        self.metric = metric
        self.snapshots = 0
        self.pairs = 0
        self.violations: list[str] = []
        if metric == "graph":
            self._build_hop_tables(adjacency or {})

    def _build_hop_tables(self, adjacency: dict) -> None:
        comp_of: dict[int, int] = {}
        local_of: dict[int, int] = {}
        tables: list[np.ndarray] = []
        shapes: dict[tuple, np.ndarray] = {}
        for start in sorted(adjacency):
            if start in comp_of:
                continue
            cid = len(tables)
            nodes = [start]
            comp_of[start] = cid
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in adjacency[u]:
                    if v not in comp_of:
                        comp_of[v] = cid
                        nodes.append(v)
                        queue.append(v)
            nodes.sort()
            base = nodes[0]
            for i, u in enumerate(nodes):
                local_of[u] = i
            # Concatenated segments are offset copies of one network:
            # identical shapes share one table.
            shape = tuple((u - base, tuple(sorted(v - base
                                                  for v in adjacency[u])))
                          for u in nodes)
            table = shapes.get(shape)
            if table is None:
                table = shapes[shape] = self._all_pairs(nodes, adjacency,
                                                        local_of)
            tables.append(table)
        self._comp_of = comp_of
        self._local_of = local_of
        self._tables = tables

    @staticmethod
    def _all_pairs(nodes, adjacency, local_of) -> np.ndarray:
        n = len(nodes)
        table = np.full((n, n), np.inf)
        for src in nodes:
            row = table[local_of[src]]
            row[local_of[src]] = 0.0
            frontier = [src]
            d = 0.0
            while frontier:
                d += 1.0
                nxt = []
                for u in frontier:
                    for v in adjacency[u]:
                        j = local_of[v]
                        if row[j] == np.inf:
                            row[j] = d
                            nxt.append(v)
                frontier = nxt
        return table

    def distances(self, pos: np.ndarray) -> np.ndarray:
        """Pairwise distance matrix for ``int[n, 2]`` positions."""
        if self.metric == "graph":
            nodes = pos[:, 0].tolist()
            comp = np.array([self._comp_of[u] for u in nodes])
            local = np.array([self._local_of[u] for u in nodes])
            dist = np.full((len(nodes), len(nodes)), np.inf)
            for cid in np.unique(comp):
                idx = np.flatnonzero(comp == cid)
                sub = local[idx]
                dist[np.ix_(idx, idx)] = self._tables[cid][np.ix_(sub, sub)]
            return dist
        delta = np.abs(pos[:, None, :].astype(np.float64)
                       - pos[None, :, :].astype(np.float64))
        if self.metric == "chebyshev":
            return delta.max(axis=2)
        if self.metric == "manhattan":
            return delta.sum(axis=2)
        return np.sqrt((delta ** 2).sum(axis=2))

    def check(self, snapshot: list[tuple]) -> list[str]:
        """Audit one ``(aid, step, pos)`` snapshot; returns violations."""
        steps = np.array([s for _, s, _ in snapshot], dtype=np.int64)
        pos = np.array([p for _, _, p in snapshot], dtype=np.int64)
        gap = np.abs(steps[:, None] - steps[None, :])
        dist = self.distances(pos)
        bound = self.radius_p + (gap - 1) * self.max_vel
        bad = (gap > 0) & (dist <= bound)
        self.snapshots += 1
        self.pairs += len(steps) * (len(steps) - 1) // 2
        if not bad.any():
            return []
        i, j = (int(x) for x in np.argwhere(bad)[0])
        msg = (f"§3.2 violated: agent {snapshot[i][0]}@{int(steps[i])} and "
               f"agent {snapshot[j][0]}@{int(steps[j])} at distance "
               f"{dist[i, j]} <= {bound[i, j]}")
        self.violations.append(msg)
        return [msg]
