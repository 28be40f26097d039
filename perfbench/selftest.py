"""Self-test: every output check accepts a clean output and rejects a
corrupted one.

Run with ``python3 perfbench/run.py --self-test``. One small replay of
the smallville active window supplies the clean replay output; the
corrupted cases are derived from it (a dropped call, a swapped pair in
one agent's call order, a makespan below the critical-path bound,
differing repeats). The live check gets a lock-step state and the same
state with one final position moved; the §3.2 audit gets valid and
violating snapshots on a coordinate grid and on the social graph.
"""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

from repro import SchedulerConfig, ServingConfig, get_scenario, run_replay
from repro.core.engine import critical_time_for
from repro.trace import generate_trace

from .checks import (CausalityAudit, agent_state, check_call_order,
                     check_live, check_repeats, check_replay)
from .workloads import GPUS, _AuditedCommits, sim_key


def _replay_cases(cases: list) -> None:
    scn = get_scenario("smallville")
    start, end = scn.active_window
    trace = generate_trace(25, end, seed=0, scenario=scn).window(start, end)
    sched = SchedulerConfig(scenario=scn.name)
    serving = ServingConfig(**GPUS)
    audit = CausalityAudit(4.0, 1.0, "euclidean")
    with _AuditedCommits(audit, 1) as audited:
        result = run_replay(trace, sched, serving, collect_timeline=True)
    again = run_replay(trace, sched, serving)
    bound = critical_time_for(trace, serving, sched)
    events = result.timeline.events

    cases.append(("replay: clean output passes", True,
                  check_replay(trace, result, bound)))
    cases.append(("audit: every commit of a clean replay passes", True,
                  audited.errors + ([] if audit.snapshots else
                                    ["no snapshot audited"])))
    cases.append(("repeats: identical sim values pass", True,
                  check_repeats([sim_key(result), sim_key(again)])))

    dropped = events[:len(events) // 2] + events[len(events) // 2 + 1:]
    cases.append(("replay: a dropped call is rejected", False,
                  check_call_order(trace, dropped)))
    short = SimpleNamespace(**{**result.__dict__,
                               "n_calls_completed":
                               result.n_calls_completed - 1,
                               "timeline": None})
    cases.append(("replay: a lost call completion is rejected", False,
                  check_replay(trace, short, bound)))

    swapped = list(events)
    by_agent: dict[int, int] = {}
    for i, e in enumerate(swapped):
        j = by_agent.get(e.agent)
        if j is not None and (swapped[j].step, swapped[j].func_id) != \
                (e.step, e.func_id):
            swapped[i], swapped[j] = swapped[j], swapped[i]
            break
        by_agent[e.agent] = i
    cases.append(("replay: a swapped per-agent call order is rejected",
                  False, check_call_order(trace, swapped)))

    cases.append(("replay: a makespan below the critical path is rejected",
                  False, check_replay(trace, SimpleNamespace(
                      **{**result.__dict__, "timeline": None,
                         "completion_time": bound * 0.99}), bound)))
    moved = sim_key(again)[:-1] + (sim_key(again)[-1] + 1,)
    cases.append(("repeats: a differing repeat is rejected", False,
                  check_repeats([sim_key(result), moved])))


def _live_cases(cases: list) -> None:
    scn = get_scenario("market-town")
    start, end = scn.active_window
    model = scn.model(20, 0)
    for step in range(end):
        model.step_all(step)
    reference = agent_state(model)
    positions = {aid: a.pos for aid, a in enumerate(model.agents)}
    cases.append(("live: the lock-step state passes", True,
                  check_live(agent_state(model), reference,
                             dict(positions), positions)))
    moved = copy.deepcopy(model, {id(model.world): model.world,
                                  id(model.planner): model.planner})
    x, y = moved.agents[7].pos
    moved.agents[7].pos = (x + 1, y)
    cases.append(("live: a moved final position is rejected", False,
                  check_live(agent_state(moved), reference,
                             dict(positions), positions)))
    stale = dict(positions)
    stale[3] = (stale[3][0], stale[3][1] + 1)
    cases.append(("live: a KV store out of step with the world is "
                  "rejected", False,
                  check_live(agent_state(model), reference, stale,
                             positions)))


def _audit_cases(cases: list) -> None:
    grid = CausalityAudit(4.0, 1.0, "euclidean")
    cases.append(("audit: far-apart agents at different steps pass", True,
                  grid.check([(0, 5, (0, 0)), (1, 6, (5, 0)),
                              (2, 5, (1, 1))])))
    cases.append(("audit: a step-6 agent 3 tiles from a step-5 agent is "
                  "rejected", False,
                  grid.check([(0, 5, (0, 0)), (1, 6, (3, 0))])))
    world, _ = get_scenario("social-graph").world()
    stride = world.width + 1
    adjacency = {}
    for k in range(2):
        for node, neigh in world.adjacency.items():
            adjacency[node + k * stride] = tuple(v + k * stride
                                                 for v in neigh)
    graph = CausalityAudit(4.0, 1.0, "graph", adjacency)
    node = next(iter(world.adjacency))
    other = world.adjacency[node][0]
    cases.append(("audit: graph agents in different segments pass", True,
                  graph.check([(0, 5, (node, 0)),
                               (1, 9, (node + stride, 0))])))
    cases.append(("audit: graph neighbours two steps apart are rejected",
                  False, graph.check([(0, 5, (node, 0)),
                                      (1, 7, (other, 0))])))


def main() -> int:
    cases: list[tuple[str, bool, list[str]]] = []
    _replay_cases(cases)
    _live_cases(cases)
    _audit_cases(cases)
    failed = 0
    for name, should_pass, errors in cases:
        ok = (not errors) if should_pass else bool(errors)
        failed += not ok
        detail = errors[0] if errors else "no error"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": len(cases),
                      "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1
