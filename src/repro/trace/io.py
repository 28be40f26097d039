"""Trace persistence: compressed npz (fast path) and jsonl (interchange).

The jsonl format mirrors the event records the paper describes collecting
("input prompt, configurations, LLM response, calling step, and caller's
identity" — here token counts stand in for the text), one JSON object per
call event, plus a header object and a movement record per agent.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from ..errors import TraceError
from .schema import Trace, TraceMeta, _alloc_positions

#: Call-event arrays of the npz layout, alongside ``meta`` and positions.
_CALL_ARRAYS = ("call_step", "call_agent", "call_func", "call_in",
                "call_out")

#: Accepted JSON types per ``TraceMeta`` field annotation.
_META_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _meta_from(record, source: str) -> TraceMeta:
    """``TraceMeta`` from a decoded header, or a ``TraceError`` naming
    the unknown, missing or mistyped field."""
    if not isinstance(record, dict):
        raise TraceError(f"{source}: trace meta is not a JSON object")
    known = {f.name: f for f in fields(TraceMeta)}
    for name, value in record.items():
        field = known.get(name)
        if field is None:
            raise TraceError(f"{source}: unknown trace meta field {name!r}")
        if isinstance(value, bool) or \
                not isinstance(value, _META_TYPES.get(field.type, object)):
            raise TraceError(
                f"{source}: trace meta field {name!r} must be "
                f"{field.type}, got {type(value).__name__}")
    for name, field in known.items():
        if name not in record and field.default is MISSING:
            raise TraceError(
                f"{source}: missing trace meta field {name!r}")
    return TraceMeta(**record)


def _int_array(data, name: str, source: str) -> np.ndarray:
    """Array ``name`` of an npz archive; integer dtype required."""
    if name not in data.files:
        raise TraceError(f"{source}: missing array {name!r}")
    arr = data[name]
    if arr.dtype.kind not in "iu":
        raise TraceError(
            f"{source}: array {name!r} has dtype {arr.dtype}, "
            f"expected integers")
    return arr


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as compressed npz."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        meta=json.dumps(asdict(trace.meta)),
        positions_sa=trace.positions_by_step,
        call_step=trace.call_step,
        call_agent=trace.call_agent,
        call_func=trace.call_func,
        call_in=trace.call_in,
        call_out=trace.call_out,
    )


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace at {path}")
    with np.load(path, allow_pickle=False) as data:
        if "meta" not in data.files:
            raise TraceError(f"{path}: missing array 'meta'")
        try:
            record = json.loads(str(data["meta"]))
        except ValueError as exc:
            raise TraceError(
                f"{path}: trace meta is not JSON: {exc}") from exc
        meta = _meta_from(record, str(path))
        # Step-major is the canonical on-disk layout; files written
        # before the numpy position store carried agent-major arrays.
        step_major = "positions_sa" in data.files
        positions = _int_array(
            data, "positions_sa" if step_major else "positions", str(path))
        calls = [_int_array(data, name, str(path)) for name in _CALL_ARRAYS]
        # Route big stores through the size-thresholded allocator so a
        # million-agent load lands in the same (possibly memmap-backed)
        # kind of store the generator builds, instead of pinning the
        # decompressed npz array in anonymous RAM.
        backed = _alloc_positions(positions.shape, positions.dtype)
        if isinstance(backed, np.memmap):
            np.copyto(backed, positions)
            positions = backed
        trace = Trace(meta, positions, *calls, step_major=step_major)
    # Graph traces: the coordinate speed check does not apply, so the
    # untrusted boundary re-checks movement in hop distance.
    trace.validate_movement()
    return trace


def export_jsonl(trace: Trace, path: str | Path) -> None:
    """Write the interchange jsonl representation."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "header", **asdict(trace.meta)}) + "\n")
        for aid in range(trace.meta.n_agents):
            fh.write(json.dumps({
                "type": "movement", "agent": aid,
                "path": trace.positions[aid].tolist()}) + "\n")
        for i in range(trace.n_calls):
            fh.write(json.dumps({
                "type": "call",
                "step": int(trace.call_step[i]),
                "agent": int(trace.call_agent[i]),
                "func": trace.func_name(int(trace.call_func[i])),
                "input_tokens": int(trace.call_in[i]),
                "output_tokens": int(trace.call_out[i]),
            }) + "\n")


def import_jsonl(path: str | Path) -> Trace:
    """Read the interchange jsonl representation."""
    from ..world.behavior import FUNC_INDEX

    path = Path(path)
    meta = None
    movements: dict[int, list] = {}
    steps, agents, funcs, ins, outs = [], [], [], [], []
    with path.open() as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.pop("type")
            if kind == "header":
                meta = _meta_from(rec, str(path))
            elif kind == "movement":
                movements[rec["agent"]] = rec["path"]
            elif kind == "call":
                steps.append(rec["step"])
                agents.append(rec["agent"])
                funcs.append(FUNC_INDEX[rec["func"]])
                ins.append(rec["input_tokens"])
                outs.append(rec["output_tokens"])
            else:
                raise TraceError(f"unknown record type {kind!r}")
    if meta is None:
        raise TraceError("jsonl trace missing header record")
    shape = (meta.n_steps + 1, 2)
    positions = np.zeros((meta.n_agents, *shape), dtype=np.int32)
    for aid in range(meta.n_agents):
        if aid not in movements:
            raise TraceError(f"{path}: agent {aid} has no movement record")
        try:
            agent_path = np.asarray(movements.pop(aid))
        except ValueError as exc:  # ragged nesting
            raise TraceError(
                f"{path}: agent {aid} movement path is ragged") from exc
        if agent_path.shape != shape or agent_path.dtype.kind not in "iu":
            raise TraceError(
                f"{path}: agent {aid} movement path is "
                f"{agent_path.dtype}{list(agent_path.shape)}, expected "
                f"integer pairs {list(shape)}")
        positions[aid] = agent_path
        if not np.array_equal(positions[aid], agent_path):
            raise TraceError(
                f"{path}: agent {aid} movement path overflows int32")
    if movements:
        aid = next(iter(movements))
        raise TraceError(f"{path}: movement record for unknown agent {aid!r}")
    trace = Trace(
        meta, positions,
        np.asarray(steps, dtype=np.int32), np.asarray(agents, dtype=np.int32),
        np.asarray(funcs, dtype=np.int16), np.asarray(ins, dtype=np.int32),
        np.asarray(outs, dtype=np.int32))
    trace.validate_movement()
    return trace
