"""Printing a result, the contract's last stdout line, and ``compare``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from benchmarks.harness import metrics

_SECTIONS = (
    ("end_to_end", "end-to-end (untraced run)"),
    ("diagnostics", "per-class diagnostics (untraced run, not gated)"),
    ("per_layer", "per-layer (traced run)"),
)


def _number(value: float | None) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def render(result: dict[str, Any]) -> str:
    """Every metric by name with its unit and, where it is a statistic
    over samples, the sample count beside it."""
    head = result["header"]
    dirty = " (dirty)" if head["git_dirty"] else ""
    lines = [
        f"== {head['workload']}  seed={head['seed']} seconds={head['seconds']:g} "
        f"ops={head['ops']}  commit={head['git_commit'][:12]}{dirty}  "
        f"python={head['python']} numpy={head['numpy']} nproc={head['nproc']}  "
        f"calibration={head['calibration_ms']:.2f} ms",
        f"   samples per class: {head['class_samples']}",
    ]
    for key, title in _SECTIONS:
        if key not in result:
            continue
        lines.append(f"-- {title}")
        for name, entry in result[key].items():
            count = f"n={entry['n']}" if "n" in entry else ""
            lines.append(f"   {name:<48} {_number(entry['value']):>14} {entry['unit']:<6} {count}")
    lines.append(
        f"-- correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    )
    lines.extend(f"   FAILED {line}" for line in result["failures"])
    return "\n".join(lines)


def contract_line(result: dict[str, Any]) -> str:
    """The one JSON object the benchmark contract wants last on stdout:
    the gated end-to-end metrics of an untraced run, or every declared
    per-layer metric of a traced one."""
    if "per_layer" in result:
        names = [metric.name for metric in metrics.PER_LAYER]
        section = result["per_layer"]
    else:
        names = list(metrics.GATED_END_TO_END)
        section = result["end_to_end"]
    payload = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": section[name]["value"], "unit": section[name]["unit"]}
            for name in names
        },
    }
    return json.dumps(payload)


def merge(untraced: dict[str, Any], traced: dict[str, Any]) -> dict[str, Any]:
    """One result per workload from its untraced and its traced run."""
    merged = dict(untraced)
    merged["per_layer"] = traced["per_layer"]
    merged["attempted"] += traced["attempted"]
    merged["failed"] += traced["failed"]
    merged["correct"] = merged["failed"] == 0
    merged["failures"] = untraced["failures"] + traced["failures"]
    return merged


def write(result: dict[str, Any], directory: Path) -> Path:
    path = directory / f"BENCH_harness_{result['header']['workload']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def _worse_by(old: float, new: float, better: str) -> float:
    """Share of ``old`` by which ``new`` is worse (negative: it is better)."""
    gap = new - old if better == "lower" else old - new
    if old == 0:
        return float("inf") if gap > 0 else 0.0
    return gap / abs(old)


def compare(old: dict[str, Any], new: dict[str, Any]) -> tuple[str, bool]:
    """Each end-to-end metric's ratio with its base and bound; per-layer
    counts that must repeat exactly when both files come from one commit,
    seed and run length. Returns the report and whether every check held."""
    lines = [
        f"compare {old['header']['workload']}: "
        f"old {old['header']['git_commit'][:12]} seed {old['header']['seed']}  ->  "
        f"new {new['header']['git_commit'][:12]} seed {new['header']['seed']}",
        f"   {'metric':<30} {'old':>12} {'new':>12} {'new/old':>8} {'bound':>6}",
    ]
    passed = True
    for metric in metrics.END_TO_END:
        before = old.get("end_to_end", {}).get(metric.name, {}).get("value")
        after = new.get("end_to_end", {}).get(metric.name, {}).get("value")
        if before is None and after is None:
            continue
        if before is None or after is None:
            lines.append(f"   {metric.name:<30} measured on one side only: BREACH")
            passed = False
            continue
        worse = _worse_by(before, after, metric.better)
        breach = worse > metric.bound + 1e-12
        passed &= not breach
        ratio = f"{after / before:.3f}" if before else "-"
        lines.append(
            f"   {metric.name:<30} {_number(before):>12} {_number(after):>12} {ratio:>8} "
            f"{metric.bound:>6.0%} {'BREACH' if breach else 'ok'}"
        )
    same_run = all(
        old["header"][key] == new["header"][key] for key in ("git_commit", "seed", "ops")
    )
    old_layers, new_layers = old.get("per_layer", {}), new.get("per_layer", {})
    differing = [
        name
        for name in metrics.EXACT_COUNTS
        if name in old_layers
        and name in new_layers
        and old_layers[name]["value"] != new_layers[name]["value"]
    ]
    for name in differing:
        verdict = "BREACH (same code and seed)" if same_run else "differs"
        lines.append(
            f"   {name:<48} {_number(old_layers[name]['value']):>14} -> "
            f"{_number(new_layers[name]['value'])}  {verdict}"
        )
    if same_run:
        passed &= not differing
        lines.append(
            f"   exact counts: {len(metrics.EXACT_COUNTS) - len(differing)} of "
            f"{len(metrics.EXACT_COUNTS)} identical (same commit, seed and op count)"
        )
    if old["failed"] < new["failed"]:
        lines.append(f"   failed operations rose {old['failed']} -> {new['failed']}: BREACH")
        passed = False
    lines.append("PASS" if passed else "FAIL")
    return "\n".join(lines), passed
