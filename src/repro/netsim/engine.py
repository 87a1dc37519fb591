"""A minimal discrete-event simulation engine.

Events are ``[time, sequence, callback]`` triples; ties break in
scheduling order, which keeps runs deterministic.  Components (DHCP
clients, scanners, sweeps) schedule callbacks; the engine drives the
:class:`~repro.netsim.simtime.SimClock`.

:class:`SimulationEngine` stores events in a *calendar queue*: a dict
of time buckets (each a small binary heap) plus a heap of live bucket
indexes.  The simulation's workloads are dominated by periodic timers —
lease renewals every half lease-time, expiry sweeps every few minutes,
hourly measurement sweeps — so tens of thousands of events are pending
at once but each is near its neighbours in time.  Bucketing keeps every
``heappush``/``heappop`` on a list of a few dozen entries instead of
the whole queue, which is what made the single global heap the
scheduler's cost centre on six-week campaigns.

:class:`SimulationEngine` is pinned bit-for-bit (same callback order,
same clock trace) to a single-heap oracle scheduler kept in
``tests/oracles.py``.

Heap entries are plain lists rather than dataclass instances: a
six-week supplemental campaign pushes and pops millions of events, and
rich-comparison dispatch on an ``order=True`` dataclass dominated
``heappush``/``heappop`` in profiles.  Lists compare element-wise in C
(the unique sequence number guarantees the callback slot is never
reached), and the mutable third slot doubles as the cancellation flag.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional

from repro.netsim.simtime import SimClock

Callback = Callable[[], None]

_CANCELLED = object()
_EXECUTED = object()

#: Heap-entry slots (an entry is ``[at, seq, callback]``).
_AT, _SEQ, _CALLBACK = 0, 1, 2

#: Default calendar-queue bucket span in simulation seconds.  The
#: dominant periodic workloads tick every 300-3600 seconds, so 1024 s
#: buckets hold one sweep generation's worth of events each — big
#: enough that bucket turnover is rare, small enough that the
#: per-bucket heaps stay shallow.
DEFAULT_BUCKET_WIDTH = 1024


class EventHandle:
    """Returned by :meth:`SimulationEngine.schedule`; allows cancellation."""

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: list, engine: "SimulationEngine"):
        self._entry = entry
        self._engine = engine

    def cancel(self) -> None:
        """Drop the event; a no-op if it already ran or was cancelled."""
        if self._entry[_CALLBACK] is _CANCELLED or self._entry[_CALLBACK] is _EXECUTED:
            return
        self._entry[_CALLBACK] = _CANCELLED
        self._engine._live -= 1

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is _CANCELLED

    @property
    def at(self) -> int:
        return self._entry[_AT]


class RecurringHandle:
    """Returned by :meth:`SimulationEngine.schedule_every`.

    Wraps whichever :class:`EventHandle` currently carries the stream's
    next tick; ``cancel()`` stops the stream for good, whether called
    between ticks or from inside the recurring callback itself.
    """

    __slots__ = ("_handle", "_stopped")

    def __init__(self) -> None:
        self._handle: Optional[EventHandle] = None
        self._stopped = False

    def cancel(self) -> None:
        """Stop the stream; pending and future ticks are dropped."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._stopped

    @property
    def next_at(self) -> Optional[int]:
        """When the next tick fires, or None once the stream is done."""
        if self._stopped or self._handle is None:
            return None
        return self._handle.at


class SimulationEngine:
    """The event loop, over a calendar queue of time buckets."""

    def __init__(self, start: int = 0, *, bucket_width: int = DEFAULT_BUCKET_WIDTH):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.clock = SimClock(start)
        self.bucket_width = bucket_width
        #: Live buckets: index -> heap of ``[at, seq, callback]``.  An
        #: index is in ``_bucket_heap`` iff its bucket is in the dict;
        #: buckets are removed only when drained, so the index heap
        #: never holds duplicates or stale entries.
        self._buckets: Dict[int, List[list]] = {}
        self._bucket_heap: List[int] = []
        self._seq = itertools.count()
        self._live = 0
        self.events_run = 0
        #: Highest number of live events ever queued at once — the
        #: engine's memory high-water mark.  Maintained with one
        #: comparison per ``schedule`` call, so the hot path stays
        #: instrumentation-free.
        self.queue_high_water = 0

    @property
    def now(self) -> int:
        return self.clock.now

    def schedule(self, at: int, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute time ``at``."""
        if at < self.now:
            raise ValueError(f"cannot schedule in the past ({at} < {self.now})")
        entry = [at, next(self._seq), callback]
        index = at // self.bucket_width
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heapq.heappush(self._bucket_heap, index)
        else:
            heapq.heappush(bucket, entry)
        self._live += 1
        if self._live > self.queue_high_water:
            self.queue_high_water = self._live
        return EventHandle(entry, self)

    def schedule_every(
        self, interval: int, callback: Callback, *, until: Optional[int] = None
    ) -> RecurringHandle:
        """Run ``callback`` periodically, starting one interval from now.

        Returns a :class:`RecurringHandle`; cancelling it mid-stream
        stops all future ticks (including a tick already scheduled).
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        handle = RecurringHandle()

        def tick() -> None:
            callback()
            if handle._stopped:
                return  # cancelled from inside the callback
            next_at = self.now + interval
            if until is None or next_at <= until:
                handle._handle = self.schedule(next_at, tick)
            else:
                handle._handle = None

        first = self.now + interval
        if until is None or first <= until:
            handle._handle = self.schedule(first, tick)
        return handle

    def _pop_due(self, end: Optional[int]) -> Optional[Callback]:
        """The next runnable callback with ``at <= end``, clock advanced.

        All events in the minimum live bucket precede every event in any
        later bucket, so the scan only ever touches the front bucket.
        """
        bucket_heap = self._bucket_heap
        buckets = self._buckets
        while bucket_heap:
            index = bucket_heap[0]
            bucket = buckets[index]
            while bucket:
                if end is not None and bucket[0][_AT] > end:
                    return None
                entry = heapq.heappop(bucket)
                callback = entry[_CALLBACK]
                if callback is _CANCELLED:
                    continue
                entry[_CALLBACK] = _EXECUTED
                self._live -= 1
                self.clock.advance_to(entry[_AT])
                return callback
            # Bucket drained: retire it and move to the next index.
            heapq.heappop(bucket_heap)
            del buckets[index]
        return None

    def run_until(self, end: int) -> int:
        """Run all events with ``at <= end``; returns events executed.

        The clock lands on ``end`` afterwards even if the queue empties
        earlier.
        """
        executed = 0
        while True:
            callback = self._pop_due(end)
            if callback is None:
                break
            callback()
            executed += 1
            self.events_run += 1
        self.clock.advance_to(max(self.now, end))
        return executed

    def run(self) -> int:
        """Run until the queue is exhausted; returns events executed."""
        executed = 0
        while True:
            callback = self._pop_due(None)
            if callback is None:
                break
            callback()
            executed += 1
            self.events_run += 1
        return executed

    @property
    def pending(self) -> int:
        """Live (scheduled, uncancelled, unexecuted) events — O(1).

        Maintained as a counter on schedule/cancel/pop; the old
        implementation scanned the whole heap per call, which analysis
        loops polling it turned into accidental O(n²).
        """
        return self._live

    def export_metrics(self, registry) -> None:
        """Publish event totals into a :class:`repro.obs.MetricsRegistry`.

        Called at run boundaries (not per event), so the event loop
        itself carries no instrumentation cost.
        """
        registry.counter("engine_events_total").inc(self.events_run)
        registry.gauge("engine_queue_high_water").set_max(self.queue_high_water)
