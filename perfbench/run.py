"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload busy-hour-kv --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --self-test                 # the checks' checks

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics, the layer table and the tracing overhead. Human-readable lines
go first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed.

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"


def _import_library() -> None:
    """Put ``src/`` first on the path; refuse any other ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC}/repro")
    # Traces come only from the benchmark's own cache, and stay in RAM.
    os.environ["REPRO_TRACE_CACHE"] = "0"
    os.environ["REPRO_TRACE_MEMMAP_MB"] = "-1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _declared_metrics(traced: bool) -> list[str]:
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def _print_report(workload: str, seed: int, traced: bool, out) -> None:
    print(f"== {workload} seed={seed} trace={int(traced)}")
    for key, value in out.info.items():
        print(f"   {key}: {value}")
    share = out.failed / out.attempted if out.attempted else 0.0
    print(f"   {'failed_share':<38} {share:>16.6g} ratio "
          f"({out.failed}/{out.attempted})")
    for name, value in out.metrics.items():
        print(f"   {name:<38} {value:>16.6g} {out.units[name]}")
    if out.table:
        print(f"   layer table (self time; rows sum to traced_wall_s):")
        for name, self_s, calls, frac in out.table:
            pct = f"{100 * frac:6.2f}%" if frac is not None else "   n/a "
            print(f"     {name:<40} {self_s:10.4f} s {pct} {calls:>9} calls")
    for err in out.errors:
        print(f"   CHECK FAILED: {err}")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from perfbench.cache import SegmentCache
    from perfbench.workloads import WORKLOADS, AnonPeak, Outcome

    wl = WORKLOADS[workload]
    out = Outcome()
    try:
        with AnonPeak() as memory:
            wl.run(seed, seconds, traced, SegmentCache(SRC), out)
        if not traced:
            out.put("peak_rss_mb", memory.mb, "MiB")
    except Exception as exc:  # the program failed: report, do not hide
        import traceback
        traceback.print_exc()
        out.attempted += 1
        out.failed += 1
        out.errors.append(f"{type(exc).__name__}: {exc}")
    wanted = _declared_metrics(traced)
    missing = [m for m in wanted if m not in out.metrics]
    if missing and not out.errors:
        out.errors.append(f"metrics not produced: {missing}")
    _print_report(workload, seed, traced, out)
    correct = not out.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {m: {"value": out.metrics[m], "unit": out.units[m]}
                    for m in wanted if m in out.metrics},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every BENCHMARK.json workload, each in its own process."""
    status = 0
    for name in (w["name"] for w in
                 json.loads(BENCHMARK.read_text())["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        _import_library()
    except SystemExit as exc:
        return _fail(str(exc))
    if not BENCHMARK.is_file():
        return _fail(f"error: {BENCHMARK} is missing")
    if args.self_test:
        from perfbench.selftest import main as self_test
        return self_test()
    from perfbench.workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        return _fail(f"error: unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
