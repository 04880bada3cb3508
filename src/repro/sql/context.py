"""Execution context threaded through planning and execution.

Carries the snapshot, the owning transaction, the function registry, and a
handle to the database — which is how context-dependent functions (currency
conversion against the rates table, hierarchy functions against registered
hierarchy views, text search against the index) reach their state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.functions import FunctionRegistry


@dataclass
class ExecutionContext:
    """Everything an operator needs besides its input batches."""

    database: Any = None
    snapshot_cid: int = 2**62 - 1
    own_tid: int = 0
    #: the transaction a write plan writes in (a ``WriteNode`` needs one)
    txn: Any = None
    functions: "FunctionRegistry | None" = None
    #: free-form session parameters (e.g. target currency)
    parameters: dict[str, Any] = field(default_factory=dict)
    #: counters filled during execution (rows scanned, partitions pruned, ...)
    metrics: dict[str, float] = field(default_factory=dict)
    #: per-operator profiler installed by ``database.profile()``; the
    #: executor records node timings/row counts on it when not ``None``
    profiler: Any = None
    #: per-query ResourceGovernor installed by ``database.execute(budget=...)``;
    #: both engines charge row production against it at their yield points
    governor: Any = None
    #: the database's CardinalityFeedback store; when present the engines
    #: record every signed operator's actual row count on it
    feedback: Any = None
    #: per-query scan memoisation keyed by scan signature *plus* bound
    #: literal values and column subset — lets a mid-query
    #: re-optimization resume without re-reading (or re-charging) scans
    #: the aborted attempt already completed
    scan_cache: dict[str, Any] | None = None
    #: transient flag a scan operator sets when its batch must not be
    #: recorded as a true observed cardinality — served from the scan
    #: memo (already recorded once) or truncated by the governor (a
    #: degraded count would bias future estimates low). Consumed — read
    #: and reset — by the executor's measurement point right after the
    #: scan dispatch returns.
    feedback_exempt: bool = False
    #: how many mid-query re-optimizations this execution may still
    #: trigger; 0 disables the blow-out check entirely
    replans_remaining: int = 0

    def bump(self, metric: str, amount: float = 1.0) -> None:
        """Increment an execution metric."""
        self.metrics[metric] = self.metrics.get(metric, 0.0) + amount
