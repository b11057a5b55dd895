#!/usr/bin/env python3
"""Benchmark the postmortem pipeline on one workload.

    python3 perfbench/run.py --workload replay-wan --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the workload runs untraced and the last line of output holds
the end-to-end metrics.  With ``--trace 1`` it runs untraced for a third of
the time, then twice traced over the same items, and the last line holds
the per-layer metrics.  A report before the last line gives the metrics
under the names README.md uses, the environment and, for a traced run, the
tracing overhead and whether the two traced runs repeated their counts.
Work files go under ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("replay", "replay-wan", "postprocess", "triage")
#: Set-ups before and again after the measurement; setup_s is the median
#: CPU time of both batches.
SETUP_REPEATS = 11
#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10
#: ``ioctl`` requests and the flag that ``chattr +T`` sets (linux/fs.h).
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(work: Path) -> dict[str, Any]:
    try:
        fs_type = subprocess.run(
            ["stat", "-f", "-c", "%T", str(work)],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs_type = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "work_dir_fs": fs_type,
    }


def spread_subdirectories(path: Path) -> None:
    """Have ext4 put each new subdirectory of ``path`` in a fresh block group.

    On ext4 without a journal, creating a file next to inodes freed in the
    last few minutes cost up to 0.4 ms of kernel time, against 0.01-0.03 ms
    in an untouched block group.  Every run deletes its files at exit, so
    without this flag a run's set-up and items would pay for the runs before
    it.  File systems that do not know the flag keep their placement.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            flags = array.array("l", [0])
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags)
        finally:
            os.close(fd)
    except OSError:
        pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: list[float]) -> dict[str, Any]:
    """Nearest-rank p90, withheld when fewer than TAIL_SAMPLES lie beyond it."""
    ordered = sorted(values)
    value = ordered[math.ceil(0.9 * len(ordered)) - 1]
    beyond = sum(1 for v in ordered if v > value)
    return {"value": value if beyond >= TAIL_SAMPLES else None, "samples_beyond": beyond}


def set_up(workloads: Any, name: str, work: Path, seed: int,
           batch: str) -> tuple[Any, list[float], list[float]]:
    """Set the workload up SETUP_REPEATS times; keep the last.

    Returns the workload and the CPU and wall seconds of each set-up.  Every
    set-up keeps its own directory until the run ends, and the file system's
    work on the previous set-up is finished before the next timer starts,
    so that no set-up pays for another's files.
    """
    cpu, wall = [], []
    for k in range(SETUP_REPEATS):
        workload = workloads.WORKLOADS[name]()
        os.sync()
        _, w, c = workloads.timed(workload.setup, work / f"setup_{batch}_{k}", seed)
        cpu.append(c)
        wall.append(w)
    return workload, cpu, wall


def end_to_end(workload: Any, m: Any, counts: dict[str, float],
               setup_cpu: list[float], setup_wall: list[float]) -> tuple[dict, dict]:
    """Contract metrics and the report's named metrics for an untraced run."""
    latencies = m.item_latencies()
    rate = m.rate()
    p50 = statistics.median(latencies)
    cpu = m.cpu / m.items
    rss = peak_rss_mb()
    contract = {
        "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
        "items_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    item = workload.item
    named: dict[str, Any] = {
        f"{item}s_per_s": rate,
        f"{item}s_per_s_overall": m.items / m.wall,
        "rounds": len(m.rounds),
        f"{item}_s_p50": p50,
        f"{item}_s_p90": p90(latencies),
        "latency_samples": len(latencies),
        f"cpu_s_per_{item}": cpu,
        "fail_ratio": m.failed / m.attempted,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_cpu),
        "setup_wall_s": statistics.median(setup_wall),
        "injected_wait_s_per_item": {
            k: v / m.items for k, v in counts.items() if k.endswith(".wait_s")
        },
    }
    if workload.name in ("replay", "replay-wan"):
        chars = counts["agents.prompt_chars"] + counts["agents.message_chars"]
        named["prompt_chars_per_session"] = chars / m.items
    return contract, named


def traced_run(workloads: Any, tracing: Any, workload: Any, work: Path,
               seed: int, seconds: float) -> tuple[dict, dict, list]:
    """Untraced for a third of the time, then the same rounds traced twice."""
    units = {
        metric["name"]: metric["unit"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    base = workloads.measure(workload, work / "untraced", seed, tracing.Meter(),
                             seconds=seconds / 3)
    runs = []
    for label in ("a", "b"):
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            m = workloads.measure(workload, work / f"traced_{label}", seed, tracer,
                                  rounds=len(base.rounds))
        runs.append((tracer, m))
    (tracer, first), (_, second) = runs
    totals = [tracing.layer_totals(t) for t, _ in runs]
    repeated = {
        name: [totals[0][name], totals[1][name]] for name in tracing.REPEATABLE_COUNTS
    }
    per_layer = tracing.per_layer_metrics(totals[0], first.items, list(units))
    shares = {
        name: value * first.items / first.wall
        for name, value in per_layer.items() if units[name] == "s/item"
    }
    report = {
        "rounds": len(base.rounds),
        "items": first.items,
        "untraced_wall_s": base.wall,
        "traced_wall_s": [first.wall, second.wall],
        "tracing_overhead_s": first.wall - base.wall,
        "tracing_overhead_share": (first.wall - base.wall) / base.wall,
        "counts_repeat": all(a == b for a, b in repeated.values()),
        "repeatable_counts": repeated,
        "time_share_of_traced_wall": shares,
        "spans": len(tracer.spans),
    }
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in per_layer.items()
    }
    return metrics, report, [base, first, second]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "txpostmortem" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    spread_subdirectories(work_root)
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload, setup_cpu, setup_wall = set_up(
            workloads, args.workload, work, args.seed, "before"
        )
        report: dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(work),
            "setup_cpu_s_samples": setup_cpu,
            "setup_wall_s_samples": setup_wall,
        }
        # One untimed round first, so that lazy loading and cold caches do
        # not land in the first timed items.
        workloads.measure(workload, work / "warm-up", args.seed, tracing.Meter(), rounds=1)
        counts_repeat = True
        if args.trace:
            metrics, report["traced"], runs = traced_run(
                workloads, tracing, workload, work, args.seed, args.seconds
            )
            counts_repeat = report["traced"]["counts_repeat"]
        else:
            meter = tracing.Meter()
            m = workloads.measure(workload, work / "run", args.seed, meter,
                                  seconds=args.seconds)
            # The host's speed drifts over seconds, so a second batch after
            # the measurement keeps one slow stretch from setting setup_s.
            _, cpu, wall = set_up(workloads, args.workload, work, args.seed, "after")
            setup_cpu += cpu
            setup_wall += wall
            metrics, report["metrics"] = end_to_end(
                workload, m, meter.counts, setup_cpu, setup_wall
            )
            runs = [m]
        report["details"] = workload.details()
        attempted = sum(m.attempted for m in runs)
        failed = sum(m.failed for m in runs)
        correct = failed == 0 and counts_repeat
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Finish the file system's work on this run's deletions now, so that
        # it does not slow the run after this one.
        os.sync()
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
