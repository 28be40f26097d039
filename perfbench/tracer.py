"""Span tracing around the program's layer boundaries, from outside.

:class:`Tracer` replaces chosen functions and methods of the library
with wrappers that record one span per call — name, start, end, parent
span, thread — and restores the originals afterwards. Spans are kept in
memory and written out once the run ends. Nothing inside ``src/`` is
changed; with tracing off no wrapper is installed at all.

A span's *self time* is its duration minus the time its same-thread
children cover. For the spans under one root on the root's thread, self
times sum exactly to the root's duration, so the per-layer table of a
traced run adds up to the run's wall time; whatever no wrapped span
covers lands in the root's own self time and is reported as
``unattributed_s``. Spans on other threads (live-engine workers) hang
off the root as their parent but overlap the controller's time, so they
are reported as thread-busy seconds outside that sum.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``size(args)`` optionally extracts a work count per call (rows
    committed, ...), summed per span name.
    """

    owner: Any
    attr: str
    name: str
    size: Optional[Callable[[tuple], int]] = None


class Tracer:
    """In-memory span recorder with install/restore of wrappers."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Closed spans: ``(id, name, start, end, parent, thread, size)``.
        self.spans: list[tuple] = []
        #: First instance seen per span name (``self`` of method calls).
        self.instances: dict[str, Any] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Parent of the first span on a thread with no open span.
        self._root = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self._root]
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.name
        size = target.size
        spans = self.spans
        ids = self._ids
        instances = self.instances
        stack_of = self._stack
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and name not in instances:
                instances[name] = args[0]
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, ident(),
                              size(args) if size else 0))
        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def root(self, name: str) -> "_Root":
        """Context manager opening a root span on the calling thread."""
        return _Root(self, name)

    # -- install / restore --------------------------------------------

    def install(self, targets: list[Target],
                counted: list[tuple[Any, str, str]] = ()) -> None:
        for t in targets:
            orig = t.owner.__dict__[t.attr] if isinstance(t.owner, type) \
                else getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, orig))
            setattr(t.owner, t.attr, self._wrap(orig, t))
        for owner, attr, name in counted:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._count(orig, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------

    def tree(self, root_id: int) -> tuple[dict, dict]:
        """Per-name ``(self_s, calls, size)`` on / off the root's thread.

        Returns ``(on_thread, off_thread)``: spans descending from
        ``root_id`` on the root's thread (self times summing to the
        root's duration), and spans on other threads parented to the
        root's subtree (their self times are thread-busy seconds).
        """
        by_id = {s[0]: s for s in self.spans}
        root = by_id[root_id]
        covered: dict[int, float] = defaultdict(float)
        for sid, _, t0, t1, parent, thread, _ in self.spans:
            p = by_id.get(parent)
            if p is not None and p[5] == thread:
                covered[parent] += t1 - t0
        member: dict[int, bool] = {root_id: True}

        def under(sid: int) -> bool:
            path = []
            while sid not in member:
                span = by_id.get(sid)
                if span is None:
                    break
                path.append(sid)
                sid = span[4]
            verdict = member.get(sid, False)
            for p in path:
                member[p] = verdict
            return verdict

        on: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        off: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        for span in self.spans:
            sid, name, t0, t1, _, thread, size = span
            if not under(sid):
                continue
            row = (on if thread == root[5] else off)[name]
            row[0] += (t1 - t0) - covered.get(sid, 0.0)
            row[1] += 1
            row[2] += size
        return dict(on), dict(off)

    def write(self, path: Path) -> None:
        """Dump every span as TSV (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s[2])
        t_base = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            fh.write(f"# workload={self.workload}\n")
            fh.write("id\tparent\tname\tthread\tstart_s\tend_s\tsize\n")
            for sid, name, t0, t1, parent, thread, size in spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{thread}\t"
                         f"{t0 - t_base:.9f}\t{t1 - t_base:.9f}\t{size}\n")


class _Root:
    """A root span; worker-thread spans opened meanwhile hang off it."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.id = 0

    def __enter__(self) -> "_Root":
        tr = self.tracer
        self.id = next(tr._ids)
        stack = tr._stack()
        self._parent = stack[-1]
        stack.append(self.id)
        tr._root = self.id
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        tr = self.tracer
        tr._stack().pop()
        tr._root = 0
        tr.spans.append((self.id, self.name, self._t0, t1, self._parent,
                         threading.get_ident(), 0))
