"""Run one workload: set-up, the timed closed-loop stream, the checks.

One client, one process, one thread: callers of an embedded engine wait
for their reply, so the next operation is issued when the previous one
returned. Only the call into the public entry point is timed; building
the statement, comparing the answer and updating the shadow happen
between operations and are not.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from benchmarks.harness import REPO_ROOT, metrics
from benchmarks.harness.trace import Tracer
from benchmarks.harness.workloads import WORKLOADS, comparable

#: an untraced run sets up at least this often, and goes on (up to the
#: cap) until the set-ups add up to a second, so that a set-up of a few
#: milliseconds gets a steady median too; ``setup_s`` is that median
SETUP_REPEATS_MIN, SETUP_REPEATS_MAX, SETUP_SECONDS_MIN = 3, 30, 1.0

GC_POLICY = "gc.collect() once before the timed stream; collector left on"


@dataclass
class StreamOutcome:
    """What one pass over a workload's operation stream produced."""

    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    #: the first few failures, for the report
    failures: list[str] = field(default_factory=list)
    #: rows of every answer, kept only when asked for (self-tests)
    answers: list[Any] = field(default_factory=list)

    @property
    def busy_seconds(self) -> float:
        return sum(sum(samples) for samples in self.latencies.values())

    def fail(self, index: int, cls: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {index} ({cls}): {reason}")


def run_stream(
    workload: Any, count: int, tracer: Tracer | None = None, keep_answers: bool = False
) -> StreamOutcome:
    """Issue ``count`` operations one after another and check each answer."""
    outcome = StreamOutcome()
    gc.collect()
    for index, op in enumerate(workload.stream(count)):
        outcome.attempted += 1
        if tracer is not None:
            tracer.request = index
        start = perf_counter()
        try:
            answer = op.run()
        except Exception:  # a raised operation is a failed operation, not a crash
            outcome.fail(index, op.cls, traceback.format_exc(limit=3))
            continue
        outcome.latencies[op.cls].append(perf_counter() - start)
        if keep_answers:
            outcome.answers.append(comparable(answer))
        if not op.check(answer):
            outcome.fail(index, op.cls, "wrong answer")
    return outcome


def check_final_count(workload: Any, outcome: StreamOutcome) -> None:
    """One more attempted operation, outside the timed and traced stream:
    the table must hold loaded + inserted - deleted rows."""
    outcome.attempted += 1
    if not workload.final_check():
        outcome.fail(outcome.attempted - 1, "final_count", "row count differs from the shadow")


def set_up(workload: Any) -> float:
    """A fresh set-up, the previous one freed first (peak RSS is a metric)."""
    workload.release()
    gc.collect()
    return workload.setup()


def set_up_repeatedly(workload: Any) -> list[float]:
    seconds = [set_up(workload) for _ in range(SETUP_REPEATS_MIN)]
    while sum(seconds) < SETUP_SECONDS_MIN and len(seconds) < SETUP_REPEATS_MAX:
        seconds.append(set_up(workload))
    return seconds


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python + NumPy loop (best of five),
    so that a change of machine shows up as such in the run header."""
    values = np.arange(400_000, dtype=np.float64)[::-1].copy()
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        total = 0
        for number in range(200_000):
            total += number * number
        np.sort(values).sum()
        best = min(best, perf_counter() - start)
    return best * 1e3


def _git(*args: str) -> str | None:
    if not (REPO_ROOT / ".git").exists():  # an exported checkout: start no process
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(workload: Any, seed: int, seconds: float, count: int, calibration_ms: float) -> dict[str, Any]:
    status = _git("status", "--porcelain")
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "ops": count,
        "git_commit": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "gc_policy": GC_POLICY,
        "calibration_ms": calibration_ms,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    trace_dir: Path | None = None,
) -> dict[str, Any]:
    """One run of one workload in this process.

    Untraced: set up several times (``setup_s`` is the median), run the
    stream on the last set-up, report the end-to-end metrics.
    Traced: run the stream once untraced and once with the shims
    installed, each on a fresh set-up, and report the per-layer metrics;
    the ratio of the two busy times is the tracing overhead.
    """
    workload = WORKLOADS[name](seed)
    count = workload.op_count(seconds)
    calibration_ms = calibrate()
    result: dict[str, Any] = {
        "header": header(workload, seed, seconds, count, calibration_ms),
    }
    if not traced:
        setup_seconds = set_up_repeatedly(workload)
        workload.prepare_checks()
        outcome = run_stream(workload, count)
        check_final_count(workload, outcome)
        result["end_to_end"] = metrics.end_to_end(
            outcome.latencies, workload.classes, outcome.attempted, outcome.failed, setup_seconds
        )
        result["diagnostics"] = metrics.diagnostics(outcome.latencies)
        outcomes = [outcome]
    else:
        set_up(workload)
        workload.prepare_checks()
        untraced = run_stream(workload, count)
        check_final_count(workload, untraced)
        set_up(workload)
        workload.prepare_checks()
        tracer = Tracer()
        with tracer:
            outcome = run_stream(workload, count, tracer)
        check_final_count(workload, outcome)
        stats = workload.public_stats()
        result["per_layer"] = metrics.per_layer(
            tracer.spans,
            tracer.counts,
            stats,
            outcome.busy_seconds,
            untraced.busy_seconds,
            outcome.latencies.get("merge", ()),
            calibration_ms,
        )
        if trace_dir is not None:
            tracer.write(trace_dir / f"TRACE_{name}.json")
        outcomes = [untraced, outcome]
    result["header"]["class_samples"] = {
        cls: len(samples) for cls, samples in sorted(outcome.latencies.items())
    }
    result["attempted"] = sum(each.attempted for each in outcomes)
    result["failed"] = sum(each.failed for each in outcomes)
    result["correct"] = result["failed"] == 0
    result["failures"] = [line for each in outcomes for line in each.failures]
    return result
