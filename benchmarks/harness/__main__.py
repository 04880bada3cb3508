"""Command line of the benchmark; see README.md in this directory."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

from benchmarks.harness import report, runner
from benchmarks.harness.workloads import WORKLOADS

#: run length the op counts were tuned for (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 10.0
#: ``--smoke`` runs every workload at this share of its op count
SMOKE_SHARE = 1 / 50


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Layered benchmark of the HANA core and the SOE. "
        "Also: python -m benchmarks.harness compare OLD.json NEW.json",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only; "
        "default: both, each in a fresh process",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="every workload at 1/50 of its op count, traced and untraced, checks on",
    )
    parser.add_argument("--out", type=Path, default=Path("."), help="directory for result files")
    return parser


def _compare(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: python -m benchmarks.harness compare OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in paths)
    text, passed = report.compare(old, new)
    print(text)
    return 0 if passed else 1


def _smoke(seed: int) -> int:
    start = perf_counter()
    failed = 0
    for name in WORKLOADS:
        result = runner.run_workload(name, seed, RUN_SECONDS * SMOKE_SHARE, traced=True)
        failed += result["failed"]
        print(f"smoke {name}: attempted={result['attempted']} failed={result['failed']}")
        for line in result["failures"]:
            print(f"   FAILED {line}")
    print(f"smoke: {'PASS' if not failed else 'FAIL'} in {perf_counter() - start:.1f} s")
    return 0 if not failed else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    args = _parser().parse_args(argv)
    if args.smoke:
        return _smoke(args.seed)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        if args.workload is None:
            print("--trace needs --workload", file=sys.stderr)
            return 2
        result = runner.run_workload(names[0], args.seed, args.seconds, bool(args.trace), args.out)
        print(report.render(result))
        print(f"wrote {report.write(result, args.out)}")
        print(report.contract_line(result))
        return 0 if result["correct"] else 1
    # each run in a process of its own, so that no workload inherits another's heap or caches
    spawn = multiprocessing.get_context("spawn")
    correct = True
    with ProcessPoolExecutor(1, mp_context=spawn, max_tasks_per_child=1) as pool:
        for name in names:
            untraced, traced = (
                pool.submit(
                    runner.run_workload, name, args.seed, args.seconds, mode, args.out
                ).result()
                for mode in (False, True)
            )
            result = report.merge(untraced, traced)
            print(report.render(result))
            print(f"wrote {report.write(result, args.out)} and TRACE_{name}.json")
            correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
