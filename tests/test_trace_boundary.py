"""The trace-load boundary: batched graph movement validation and the
typed errors of ``load_trace`` / ``import_jsonl``.

``Trace.validate_movement`` checks graph traces with a few numpy passes
per chunk of steps plus one lookup per *distinct* move
(``GraphSpace.hops``). The per-agent-step loop it replaced is kept here
as the reference oracle, and a seeded property test over random
social-graph walks with injected violations requires both to accept and
reject the same traces with the identical message.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.smoke import scenario_window_trace
from repro.core.rules import rules_for
from repro.errors import ConfigError, TraceError
from repro.scenarios import get_scenario
from repro.trace import export_jsonl, import_jsonl, load_trace, save_trace, schema
from repro.trace.schema import Trace, TraceMeta, concat_traces


def scalar_validate_movement(trace: Trace) -> None:
    """The per-agent-step loop ``validate_movement`` used to run.

    One ``dist`` per agent-step, speed messages verbatim. The only
    addition is the typed node check in front of each ``dist`` call,
    where the old loop let the space raise an untyped
    ``ConfigError("unknown node ...")``.
    """
    space = rules_for(None, trace.meta).space
    max_vel = trace.meta.max_vel
    for aid in range(trace.meta.n_agents):
        for step in range(trace.meta.n_steps):
            a, b = trace.pos(aid, step), trace.pos(aid, step + 1)
            for row, node in ((step, a), (step + 1, b)):
                if node[1] != 0:
                    raise TraceError(
                        f"agent {aid} is at {node!r} at step {row}: graph "
                        f"positions must be (node_id, 0) pairs")
                try:
                    space.component_of(node)
                except ConfigError:
                    raise TraceError(
                        f"agent {aid} is on unknown node {node!r} at "
                        f"step {row}") from None
            d = space.dist(a, b)
            if d > max_vel:
                raise TraceError(
                    f"agent {aid} moved {d} hops at step {step} "
                    f"(max_vel={max_vel})")


def outcome(check, trace: Trace):
    """``None`` when ``check`` accepts, else the error's message."""
    try:
        check(trace)
    except TraceError as exc:
        return str(exc)
    return None


def social_world():
    world, _ = get_scenario("social-graph").world()
    return world


def graph_trace(positions, segments: int = 1,
                max_vel: float = 1.0) -> Trace:
    """A call-free social-graph trace over step-major ``positions``."""
    positions = np.asarray(positions)
    n_rows, n_agents = positions.shape[:2]
    meta = TraceMeta(n_agents=n_agents, n_steps=n_rows - 1, seed=0,
                     width=social_world().width, height=1, radius_p=1.0,
                     max_vel=max_vel, metric="graph", segments=segments,
                     scenario="social-graph")
    empty = np.zeros(0, dtype=np.int32)
    return Trace(meta, positions, empty, empty, empty.astype(np.int16),
                 empty, empty, step_major=True)


def random_walks(rng, n_agents: int, n_steps: int,
                 segments: int) -> np.ndarray:
    """Step-major ``(node_id, 0)`` walks on the segmented social graph:
    each agent stays put most steps and otherwise takes one edge."""
    world = social_world()
    stride = world.width + 1
    nodes = sorted(world.adjacency)
    pos = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int32)
    for aid in range(n_agents):
        off = int(rng.integers(0, segments)) * stride
        node = nodes[int(rng.integers(0, len(nodes)))]
        pos[0, aid, 0] = node + off
        for step in range(n_steps):
            if rng.random() < 0.3:
                neigh = world.adjacency[node]
                node = neigh[int(rng.integers(0, len(neigh)))]
            pos[step + 1, aid, 0] = node + off
    return pos


def inject(rng, pos: np.ndarray, segments: int) -> None:
    """One random violation (or a harmless in-place edit) in ``pos``."""
    stride = social_world().width + 1
    step = int(rng.integers(0, pos.shape[0]))
    aid = int(rng.integers(0, pos.shape[1]))
    kind = int(rng.integers(0, 5))
    if kind == 0:  # teleport to any node, maybe another segment
        pos[step, aid, 0] = int(rng.integers(0, stride * segments - 1))
    elif kind == 1:  # unknown node: the gap id, past the end, negative
        pos[step, aid, 0] = (stride - 1, stride * segments + 7, -3)[
            int(rng.integers(0, 3))]
    elif kind == 2:  # non-zero second coordinate
        pos[step, aid, 1] = int(rng.integers(1, 4))
    elif kind == 3:  # two-hop shortcut: skip a row of the walk
        if 0 < step < pos.shape[0] - 1:
            pos[step, aid] = pos[step - 1, aid]
            pos[step + 1, aid] = pos[step - 1, aid]
    else:  # copy the previous row: never a violation by itself
        if step:
            pos[step, aid] = pos[step - 1, aid]


class TestBatchedMatchesScalarLoop:
    @pytest.mark.parametrize("seed", range(60))
    def test_property_same_verdict_and_message(self, seed, monkeypatch):
        """Random walks with 0-3 injected violations: the batched check
        and the scalar loop agree on accept/reject and the message —
        with chunks of a few steps, so cross-chunk (agent, step)
        ordering is exercised too."""
        rng = np.random.default_rng(seed)
        segments = int(rng.integers(1, 4))
        n_agents = int(rng.integers(1, 9))
        n_steps = int(rng.integers(1, 25))
        pos = random_walks(rng, n_agents, n_steps, segments)
        for _ in range(int(rng.integers(0, 4))):
            inject(rng, pos, segments)
        trace = graph_trace(pos, segments,
                            max_vel=(1.0, 2.0, 0.0)[seed % 3])
        expected = outcome(scalar_validate_movement, trace)
        monkeypatch.setattr(schema, "_MOVEMENT_CHUNK",
                            n_agents * int(rng.integers(2, 6)))
        assert outcome(Trace.validate_movement, trace) == expected
        monkeypatch.undo()
        assert outcome(Trace.validate_movement, trace) == expected

    def test_generated_window_accepted_without_bfs(self, monkeypatch):
        """A real scenario window passes, and since every move is one
        edge the check never runs a BFS distance."""
        trace = scenario_window_trace("social-graph")
        assert outcome(scalar_validate_movement, trace) is None
        ids = trace.positions_by_step[:, :, 0]
        assert (ids[1:] != ids[:-1]).any()
        space = rules_for(None, trace.meta).space
        monkeypatch.setattr(space, "dist", pytest.fail)
        trace.validate_movement()


class TestValidateMovementCases:
    def base(self):
        trace = scenario_window_trace("social-graph")
        return np.array(trace.positions_by_step, dtype=np.int32)

    def check(self, pos, segments: int = 1, match: str | None = None):
        trace = graph_trace(pos, segments)
        expected = outcome(scalar_validate_movement, trace)
        got = outcome(Trace.validate_movement, trace)
        assert got == expected
        if match is None:
            assert got is None
        else:
            assert got == match
        return trace

    def test_multi_hop_step(self):
        pos = self.base()
        space = get_scenario("social-graph").space()
        src = (int(pos[4, 2, 0]), 0)
        far = next(n for n in sorted(space._adj)
                   if space.dist(src, n) == 3.0)
        pos[5:, 2, 0] = far[0]
        self.check(pos, match="agent 2 moved 3.0 hops at step 4 "
                              "(max_vel=1.0)")

    def test_cross_component_teleport(self):
        stride = social_world().width + 1
        pos = self.base()
        pos[7:, 1, 0] += stride  # into the second segment's copy
        self.check(pos, segments=2,
                   match="agent 1 moved inf hops at step 6 (max_vel=1.0)")

    def test_unknown_node(self):
        pos = self.base()
        pos[7, 0, 0] = 9999
        trace = self.check(
            pos, match="agent 0 is on unknown node (9999, 0) at step 7")
        with pytest.raises(TraceError):  # typed, not the space's error
            trace.validate_movement()

    def test_nonzero_second_coordinate(self):
        pos = self.base()
        pos[3, 4, 1] = 2
        node = (int(pos[3, 4, 0]), 2)
        self.check(pos, match=f"agent 4 is at {node!r} at step 3: graph "
                              f"positions must be (node_id, 0) pairs")

    def test_first_violation_in_agent_step_order(self):
        """A later agent's early violation loses to an earlier agent's
        late one, whichever chunk each falls in."""
        pos = self.base()
        pos[100, 3, 0] = 9999
        pos[2, 6, 1] = 1
        self.check(pos,
                   match="agent 3 is on unknown node (9999, 0) at step 100")

    def test_no_agent_ever_moves(self, monkeypatch):
        pos = np.repeat(self.base()[:1], 50, axis=0)
        trace = graph_trace(pos)
        space = rules_for(None, trace.meta).space
        monkeypatch.setattr(space, "dist", pytest.fail)
        trace.validate_movement()

    def test_concatenated_segments(self):
        """Concatenated windows validate under the union space, and a
        violation in a later segment names the renumbered agent."""
        window = scenario_window_trace("social-graph")
        stride = social_world().width + 1
        day = concat_traces([window] * 3, x_stride=stride)
        assert day.meta.segments == 3
        assert outcome(scalar_validate_movement, day) is None
        day.validate_movement()
        pos = np.array(day.positions_by_step)
        pos[9:, 25, 0] -= stride  # segment 2 agent into segment 1
        self.check(pos, segments=3,
                   match="agent 25 moved inf hops at step 8 (max_vel=1.0)")


class TestHops:
    def test_matches_dist_elementwise(self, monkeypatch):
        space = get_scenario("social-graph").space(segments=2)
        rng = np.random.default_rng(3)
        ids = np.array(sorted(n[0] for n in space._adj))
        src = rng.choice(ids, 400)
        neigh = np.array([space._adj[(int(a), 0)][0][0] for a in src])
        dst = np.select([rng.random(400) < 0.2, rng.random(400) < 0.4],
                        [src, neigh], rng.choice(ids, 400))
        want = [space.dist((int(a), 0), (int(b), 0))
                for a, b in zip(src, dst)]
        calls = []
        real = space.dist
        monkeypatch.setattr(space, "dist",
                            lambda a, b: calls.append((a, b)) or real(a, b))
        got = space.hops(src, dst)
        assert got.tolist() == want
        assert {0.0, 1.0, np.inf} < set(want)
        # One exact lookup per distinct pair that is neither one edge
        # apart nor split across components.
        pairs = {((int(a), 0), (int(b), 0)) for a, b in zip(src, dst)}
        assert sorted(calls) == sorted(
            p for p in pairs if real(*p) not in (1.0, np.inf))

    def test_unknown_and_empty(self):
        space = get_scenario("social-graph").space()
        with pytest.raises(ConfigError, match="unknown node"):
            space.hops(np.array([0, 5000]), np.array([1, 2]))
        assert space.hops(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_components_of_lenient(self):
        space = get_scenario("social-graph").space()
        comp = space.components_of(np.array([[0, -1], [5000, 3]]),
                                   strict=False)
        assert comp.tolist() == [[0, -1], [-1, 0]]
        with pytest.raises(ConfigError, match=r"\(-1, 0\)"):
            space.components_of(np.array([0, -1]))


def write_npz(path, trace: Trace, drop=(), **override):
    """``save_trace`` layout with arrays dropped or replaced."""
    arrays = dict(
        meta=json.dumps(asdict(trace.meta)),
        positions_sa=trace.positions_by_step,
        call_step=trace.call_step, call_agent=trace.call_agent,
        call_func=trace.call_func, call_in=trace.call_in,
        call_out=trace.call_out)
    arrays.update(override)
    for name in drop:
        del arrays[name]
    np.savez_compressed(path, **arrays)
    return path


class TestLoadTraceErrors:
    @pytest.mark.parametrize("name", ["meta", "positions_sa", "call_step",
                                      "call_out"])
    def test_missing_array(self, synthetic_trace, tmp_path, name):
        path = write_npz(tmp_path / "t.npz", synthetic_trace, drop=[name])
        with pytest.raises(TraceError, match=f"missing array '{name}'"
                           if name != "positions_sa" else "'positions'"):
            load_trace(path)

    def test_unknown_meta_field(self, synthetic_trace, tmp_path):
        meta = dict(asdict(synthetic_trace.meta), colour="red")
        path = write_npz(tmp_path / "t.npz", synthetic_trace,
                         meta=json.dumps(meta))
        with pytest.raises(TraceError, match="unknown .*'colour'"):
            load_trace(path)

    def test_missing_meta_field(self, synthetic_trace, tmp_path):
        meta = asdict(synthetic_trace.meta)
        del meta["n_agents"]
        path = write_npz(tmp_path / "t.npz", synthetic_trace,
                         meta=json.dumps(meta))
        with pytest.raises(TraceError, match="missing .*'n_agents'"):
            load_trace(path)

    def test_mistyped_or_malformed_meta(self, synthetic_trace, tmp_path):
        meta = dict(asdict(synthetic_trace.meta), n_steps="40")
        path = write_npz(tmp_path / "t.npz", synthetic_trace,
                         meta=json.dumps(meta))
        with pytest.raises(TraceError, match="'n_steps' must be int"):
            load_trace(path)
        path = write_npz(tmp_path / "u.npz", synthetic_trace, meta="{nope")
        with pytest.raises(TraceError, match="not JSON"):
            load_trace(path)

    @pytest.mark.parametrize("name", ["positions_sa", "call_in",
                                      "call_func"])
    def test_non_integer_arrays(self, synthetic_trace, tmp_path, name):
        arr = getattr(synthetic_trace, name if name != "positions_sa"
                      else "positions_by_step")
        path = write_npz(tmp_path / "t.npz", synthetic_trace,
                         **{name: arr.astype(np.float64)})
        with pytest.raises(TraceError, match=f"'{name}' has dtype float64"):
            load_trace(path)

    def test_fractional_graph_node_ids(self, tmp_path):
        """A graph trace with ``35.5`` node ids used to load as node 35."""
        trace = scenario_window_trace("social-graph")
        pos = trace.positions_by_step.astype(np.float64)
        pos[:, 0, 0] = 35.5
        path = write_npz(tmp_path / "t.npz", trace, positions_sa=pos)
        with pytest.raises(TraceError, match="positions_sa"):
            load_trace(path)

    def test_unknown_graph_node_names_agent_and_step(self, tmp_path):
        trace = scenario_window_trace("social-graph")
        pos = np.array(trace.positions_by_step)
        pos[5:, 3, 0] = 9999
        path = write_npz(tmp_path / "t.npz", trace, positions_sa=pos)
        with pytest.raises(TraceError, match=r"agent 3 is on unknown node "
                                             r"\(9999, 0\) at step 5"):
            load_trace(path)

    def test_intact_graph_trace_roundtrips(self, tmp_path):
        trace = scenario_window_trace("social-graph")
        save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(tmp_path / "t.npz")
        assert np.array_equal(loaded.positions_by_step,
                              trace.positions_by_step)


class TestImportJsonlErrors:
    def records(self, trace: Trace, tmp_path):
        path = tmp_path / "t.jsonl"
        export_jsonl(trace, path)
        return [json.loads(line) for line in path.read_text().splitlines()]

    def write(self, tmp_path, records):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_agent_without_movement(self, synthetic_trace, tmp_path):
        recs = [r for r in self.records(synthetic_trace, tmp_path)
                if not (r["type"] == "movement" and r["agent"] == 2)]
        with pytest.raises(TraceError, match="agent 2 has no movement"):
            import_jsonl(self.write(tmp_path, recs))

    def test_wrong_path_length(self, synthetic_trace, tmp_path):
        recs = self.records(synthetic_trace, tmp_path)
        for r in recs:
            if r["type"] == "movement" and r["agent"] == 1:
                r["path"] = r["path"][:-1]
        with pytest.raises(TraceError, match="agent 1 movement path"):
            import_jsonl(self.write(tmp_path, recs))

    def test_malformed_path_values(self, synthetic_trace, tmp_path):
        recs = self.records(synthetic_trace, tmp_path)
        move = next(r for r in recs if r["type"] == "movement")
        move["path"][3] = [1]
        with pytest.raises(TraceError, match="agent 0 movement path"):
            import_jsonl(self.write(tmp_path, recs))
        move["path"][3] = [1.5, 0.0]
        with pytest.raises(TraceError, match="agent 0 movement path"):
            import_jsonl(self.write(tmp_path, recs))
        move["path"][3] = [2 ** 40, 0]
        with pytest.raises(TraceError, match="agent 0 movement path"):
            import_jsonl(self.write(tmp_path, recs))

    def test_movement_for_unknown_agent(self, synthetic_trace, tmp_path):
        recs = self.records(synthetic_trace, tmp_path)
        extra = dict(next(r for r in recs if r["type"] == "movement"),
                     agent=99)
        with pytest.raises(TraceError, match="unknown agent 99"):
            import_jsonl(self.write(tmp_path, [*recs, extra]))

    def test_unknown_header_field(self, synthetic_trace, tmp_path):
        recs = self.records(synthetic_trace, tmp_path)
        recs[0]["colour"] = "red"
        with pytest.raises(TraceError, match="'colour'"):
            import_jsonl(self.write(tmp_path, recs))

    def test_graph_roundtrip_revalidates(self, tmp_path):
        trace = scenario_window_trace("social-graph")
        recs = self.records(trace, tmp_path)
        assert import_jsonl(self.write(tmp_path, recs)).meta == trace.meta
        for r in recs:
            if r["type"] == "movement" and r["agent"] == 4:
                r["path"][9] = [9999, 0]
        with pytest.raises(TraceError, match="agent 4 is on unknown node"):
            import_jsonl(self.write(tmp_path, recs))

