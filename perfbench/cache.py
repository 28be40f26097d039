"""The benchmark's own trace cache.

Replay workloads are assembled from single-segment day traces. Each
segment is generated once by :func:`repro.trace.generate_trace` and kept
as an npz under ``perfbench/.cache/<digest>/``, where ``<digest>`` hashes
every ``src/repro`` source file: a changed generator or world gets fresh
traces, while runs of one commit reuse them. The shared
``REPRO_TRACE_CACHE`` directory of the library is never read.

Generation happens before any timed set-up, so ``setup_s`` measures the
same work (load, validate, concatenate, window) whether or not an
earlier run filled the cache.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CACHE_ROOT = BENCH_DIR / ".cache"


def source_digest(src_dir: Path) -> str:
    """Hash of every ``*.py`` file under ``src_dir`` (path + bytes)."""
    h = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(path.relative_to(src_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


class SegmentCache:
    """Generated-once segment traces keyed by (scenario, seed, shape)."""

    def __init__(self, src_dir: Path) -> None:
        self.dir = CACHE_ROOT / source_digest(src_dir / "repro")
        self.generated = 0

    def path(self, scenario: str, seed: int, n_agents: int,
             n_steps: int) -> Path:
        return self.dir / f"{scenario}-g{seed}-a{n_agents}-s{n_steps}.npz"

    def ensure(self, scenario: str, seed: int, n_agents: int,
               n_steps: int) -> Path:
        """Path of the segment's npz, generating it if it is missing."""
        path = self.path(scenario, seed, n_agents, n_steps)
        if path.exists():
            return path
        from repro.trace import generate_trace, save_trace
        trace = generate_trace(n_agents, n_steps, seed=seed,
                               scenario=scenario)
        self.dir.mkdir(parents=True, exist_ok=True)
        # Write-then-rename: a run killed mid-write leaves no torn file.
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
        save_trace(trace, tmp)
        os.replace(tmp, path)
        self.generated += 1
        return path
