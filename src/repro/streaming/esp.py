"""The event stream processor (Figure 4: "HANA Streaming Engine" / ESP).

A :class:`StreamProcessor` pipes events through a chain of stream
operators (filter, project, derive, tumbling/sliding window aggregates)
into sinks — most importantly :class:`TableSink`, which inserts into a
column-store table so that "keywords extracted from high-throughput
twitter streams" (or sensor readings) become queryable relational data
the moment the transaction commits.
"""

from __future__ import annotations

from collections import deque

from typing import Any, Callable, Iterable

from repro.analysis.racecheck import track_fields
from repro.errors import StreamingError
from repro.qos.backpressure import BoundedBuffer

Event = dict[str, Any]


class StreamOperator:
    """Base operator: consumes one event, emits zero or more."""

    def process(self, event: Event) -> Iterable[Event]:
        raise NotImplementedError

    def flush(self) -> Iterable[Event]:
        """Emit whatever is pending at stream end (windows)."""
        return ()


class FilterOperator(StreamOperator):
    """Drop events failing the predicate."""

    def __init__(self, predicate: Callable[[Event], bool]) -> None:
        self.predicate = predicate

    def process(self, event: Event) -> Iterable[Event]:
        if self.predicate(event):
            yield event


class ProjectOperator(StreamOperator):
    """Keep only the named fields."""

    def __init__(self, fields: list[str]) -> None:
        self.fields = fields

    def process(self, event: Event) -> Iterable[Event]:
        yield {field: event.get(field) for field in self.fields}


class DeriveOperator(StreamOperator):
    """Add a computed field."""

    def __init__(self, field: str, function: Callable[[Event], Any]) -> None:
        self.field = field
        self.function = function

    def process(self, event: Event) -> Iterable[Event]:
        enriched = dict(event)
        enriched[self.field] = self.function(event)
        yield enriched


@track_fields("_states")
class TumblingWindowAggregate(StreamOperator):
    """Per-key aggregation over non-overlapping time windows.

    Emits one event per (window, key) when the window closes:
    ``{key_field, window_start, count, sum, min, max, avg}``.
    Events must arrive in non-decreasing time order.
    """

    def __init__(self, time_field: str, key_field: str, value_field: str, width: int) -> None:
        if width <= 0:
            raise StreamingError("window width must be positive")
        self.time_field = time_field
        self.key_field = key_field
        self.value_field = value_field
        self.width = width
        self._window_start: int | None = None
        self._states: dict[Any, list[float]] = {}
        self._last_time: int | None = None

    def process(self, event: Event) -> Iterable[Event]:
        timestamp = int(event[self.time_field])
        if self._last_time is not None and timestamp < self._last_time:
            raise StreamingError("tumbling window requires ordered events")
        self._last_time = timestamp
        window = (timestamp // self.width) * self.width
        if self._window_start is None:
            self._window_start = window
        while window > self._window_start:
            yield from self._emit()
            self._window_start += self.width
        value = float(event[self.value_field])
        state = self._states.get(event[self.key_field])
        if state is None:
            self._states[event[self.key_field]] = [1, value, value, value]
        else:
            state[0] += 1
            state[1] += value
            state[2] = min(state[2], value)
            state[3] = max(state[3], value)

    def _emit(self) -> Iterable[Event]:
        for key, (count, total, minimum, maximum) in sorted(
            self._states.items(), key=lambda kv: repr(kv[0])
        ):
            yield {
                self.key_field: key,
                "window_start": self._window_start,
                "count": int(count),
                "sum": total,
                "min": minimum,
                "max": maximum,
                "avg": total / count,
            }
        # clear in place, never rebind: the container may be a racecheck
        # Shared proxy and a fresh dict would silently drop the tracking
        self._states.clear()

    def flush(self) -> Iterable[Event]:
        if self._states and self._window_start is not None:
            yield from self._emit()
            self._states.clear()


@track_fields("_windows", "_alerted")
class SlidingWindowThreshold(StreamOperator):
    """Emit an alert when the mean over the last N events of a key crosses
    a threshold (the dispenser-refill trigger of Scenario V.3)."""

    def __init__(
        self,
        key_field: str,
        value_field: str,
        size: int,
        threshold: float,
        below: bool = True,
    ) -> None:
        if size <= 0:
            raise StreamingError("window size must be positive")
        self.key_field = key_field
        self.value_field = value_field
        self.size = size
        self.threshold = threshold
        self.below = below
        self._windows: dict[Any, deque[float]] = {}
        self._alerted: set[Any] = set()

    def process(self, event: Event) -> Iterable[Event]:
        key = event[self.key_field]
        window = self._windows.setdefault(key, deque(maxlen=self.size))
        window.append(float(event[self.value_field]))
        if len(window) < self.size:
            return
        mean = sum(window) / len(window)
        crossed = mean < self.threshold if self.below else mean > self.threshold
        if crossed and key not in self._alerted:
            self._alerted.add(key)
            yield {
                self.key_field: key,
                "mean": mean,
                "threshold": self.threshold,
                "alert": "below" if self.below else "above",
            }
        elif not crossed:
            self._alerted.discard(key)


class Sink:
    """Terminal consumer."""

    def consume(self, event: Event) -> None:
        raise NotImplementedError


@track_fields("events")
class CollectSink(Sink):
    """Collects events into a list (tests, debugging)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def consume(self, event: Event) -> None:
        self.events.append(event)


class TableSink(Sink):
    """Inserts events into a database table: each batch is one set,
    written and committed in one transaction."""

    def __init__(self, database: Any, table: str, batch_size: int = 100) -> None:
        self.database = database
        self.table = database.catalog.table(table)
        self.batch_size = batch_size
        self._pending: list[Event] = []
        self.inserted = 0

    def consume(self, event: Event) -> None:
        self._pending.append(event)
        self.inserted += 1
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            txn = self.database.begin()
            try:
                self.table.insert_many(self._pending, txn)
            except Exception:
                self.database.rollback(txn)
                raise
            self.database.commit(txn)
            self._pending = []


class StreamProcessor:
    """An operator chain feeding one or more sinks.

    **Concurrency contract:** one pipeline is single-threaded — operators
    keep per-key window state and sinks batch transactions, none of it
    lock-guarded. The contract is *enforced*, not hoped for: the window
    operators' and collect sink's state is ``racecheck.track_fields``
    tracked, so two threads pushing into one pipeline under
    ``REPRO_RACECHECK=1`` fail with a ``DataRaceError`` naming both
    sites. Fan in upstream (one thread per pipeline) instead.
    """

    def __init__(self, operators: list[StreamOperator], sinks: list[Sink]) -> None:
        self.operators = operators
        self.sinks = sinks
        self.events_in = 0
        self.events_out = 0

    def push(self, event: Event) -> None:
        """Feed one event through the chain."""
        self.events_in += 1
        current = [event]
        for operator in self.operators:
            next_events: list[Event] = []
            for item in current:
                next_events.extend(operator.process(item))
            current = next_events
            if not current:
                return
        for item in current:
            self.events_out += 1
            for sink in self.sinks:
                sink.consume(item)

    def push_many(self, events: Iterable[Event]) -> None:
        for event in events:
            self.push(event)

    def finish(self) -> None:
        """Flush windows and sinks at stream end."""
        for index, operator in enumerate(self.operators):
            # run flushed events through the remaining operators
            current = list(operator.flush())
            for downstream in self.operators[index + 1 :]:
                next_events: list[Event] = []
                for item in current:
                    next_events.extend(downstream.process(item))
                current = next_events
            for item in current:
                self.events_out += 1
                for sink in self.sinks:
                    sink.consume(item)
        for sink in self.sinks:
            if hasattr(sink, "flush"):
                sink.flush()


class BackpressuredProcessor:
    """A :class:`StreamProcessor` with bounded inter-operator buffers.

    Overload protection for the "millions of events" ingest path: every
    stage boundary (ingest → op₀ → … → opₙ → sinks) is a
    :class:`~repro.qos.backpressure.BoundedBuffer` with one shared
    overflow ``policy`` — ``drop_oldest`` (freshness wins),
    ``drop_newest`` (order wins), or ``block`` (lossless: a full buffer
    forces a synchronous downstream drain before the producer's event is
    admitted, the single-threaded meaning of "the producer blocks").

    Events accumulate in the ingest buffer and move when :meth:`pump`
    runs — at the *consumer's* cadence (and at :meth:`finish`), so a
    producer outrunning the pump sees the overflow policy bite; only
    ``block`` pumps automatically instead of ever dropping. The pump
    drains downstream-first, freeing sink-side capacity before upstream
    stages refill it, which minimises drops under the drop policies. Same
    single-threaded contract as :class:`StreamProcessor`; buffer state is
    race-tracked, drops and watermarks surface on each buffer's
    ``qos.buffer.*`` metrics and :meth:`snapshot`.
    """

    def __init__(
        self,
        operators: list[StreamOperator],
        sinks: list[Sink],
        capacity: int = 64,
        policy: str = "drop_oldest",
    ) -> None:
        self.operators = operators
        self.sinks = sinks
        self.policy = policy
        #: buffers[i] feeds operators[i]; buffers[len(operators)] feeds sinks
        self.buffers = [
            BoundedBuffer(f"esp.stage{index}", capacity, policy)
            for index in range(len(operators) + 1)
        ]
        self.events_in = 0
        self.events_out = 0

    def offer(self, event: Event) -> bool:
        """Admit one event into the ingest buffer; returns False when a
        drop policy rejected it. With ``block``, a full ingest buffer is
        pumped (never dropped) before the event is admitted."""
        self.events_in += 1
        ingest = self.buffers[0]
        if self.policy == "block" and ingest.full:
            self.pump()
        return ingest.offer(event)

    def offer_many(self, events: Iterable[Event]) -> int:
        """Offer a batch; returns how many were admitted."""
        return sum(1 for event in events if self.offer(event))

    def _emit(self, event: Event) -> None:
        self.events_out += 1
        for sink in self.sinks:
            sink.consume(event)

    def _offer_downstream(self, stage: int, event: Event) -> None:
        buffer = self.buffers[stage]
        if self.policy == "block" and buffer.full:
            # lossless mode: make room by draining the consumer side now
            self._drain_stage(stage)
        buffer.offer(event)

    def _drain_stage(self, stage: int) -> None:
        buffer = self.buffers[stage]
        while len(buffer):
            event = buffer.take()
            if stage == len(self.operators):
                self._emit(event)
            else:
                for produced in self.operators[stage].process(event):
                    self._offer_downstream(stage + 1, produced)

    def pump(self) -> None:
        """Move every buffered event through the chain to the sinks."""
        # free downstream capacity first, then cascade front to back
        for stage in reversed(range(len(self.buffers))):
            self._drain_stage(stage)
        for stage in range(len(self.buffers)):
            self._drain_stage(stage)

    def finish(self) -> None:
        """Drain the buffers, flush windows and sinks at stream end."""
        self.pump()
        for index, operator in enumerate(self.operators):
            for event in operator.flush():
                self._offer_downstream(index + 1, event)
            for stage in range(index + 1, len(self.buffers)):
                self._drain_stage(stage)
        for sink in self.sinks:
            if hasattr(sink, "flush"):
                sink.flush()

    @property
    def dropped(self) -> int:
        return sum(
            buffer.dropped_oldest + buffer.dropped_newest for buffer in self.buffers
        )

    def snapshot(self) -> dict[str, Any]:
        """Per-stage buffer depths, watermarks, and drop counts."""
        return {
            "events_in": self.events_in,
            "events_out": self.events_out,
            "dropped": self.dropped,
            "stages": [buffer.snapshot() for buffer in self.buffers],
        }
