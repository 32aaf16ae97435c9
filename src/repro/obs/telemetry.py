"""Zero-dependency telemetry core: counters, gauges, histograms, spans.

The measurement plane every hot layer reports into.  A
:class:`Telemetry` instance is a registry of named instruments —

* **counters** — monotonically increasing totals (samples drawn,
  uniforms consumed, cache hits);
* **gauges** — last-written values (current energy, chain count);
* **histograms** — streaming ``count/total/min/max`` summaries of an
  observed quantity (per-sweep acceptance rate, task latency);
* **spans** — nested timed regions recorded against the monotonic
  clock, each closing into a ``span.<name>`` histogram plus a bounded
  ring of :class:`SpanEvent` records for the JSONL trace exporter.

Instrumented code never holds a Telemetry directly; it asks for the
process-wide ambient instance through :func:`active`, which returns
``None`` unless someone called :func:`enable` (or entered
:func:`use_telemetry`).  The disabled path is therefore a single module
read plus an ``is None`` check per instrumentation site — no objects,
no dict lookups, no clock reads — which is what keeps the sweep hot
loop within its 2% overhead bound (``tests/test_obs_integration.py``
asserts it).

Snapshots are plain JSON-serializable dicts (:meth:`Telemetry.snapshot`)
and merge associatively (:meth:`Telemetry.merge`), so worker processes
can meter independently and the parent can fold their counts into one
run-wide view — the experiment engine does exactly that.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.util.errors import ConfigError, DataError

#: Snapshot schema version (bump when the dict shape changes).
SNAPSHOT_VERSION = 1

#: Default capacity of the span-event ring buffer.
DEFAULT_MAX_SPAN_EVENTS = 65_536


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0):
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value (NaN until first set)."""

    __slots__ = ("value",)

    def __init__(self, value: float = float("nan")):
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of an observed quantity."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_dict(self, other: dict) -> None:
        count = int(other["count"])
        if count == 0:
            return
        self.count += count
        self.total += float(other["total"])
        if other["min"] is not None and float(other["min"]) < self.min:
            self.min = float(other["min"])
        if other["max"] is not None and float(other["max"]) > self.max:
            self.max = float(other["max"])


@dataclass(frozen=True)
class SpanEvent:
    """One closed span: name, start offset (s), duration (s), nest depth."""

    name: str
    start_s: float
    duration_s: float
    depth: int


class Telemetry:
    """Registry of named counters, gauges, histograms, and spans.

    Instruments are created on first use; names are free-form but the
    convention is dotted ``layer.metric`` (``solver.flips``,
    ``entropy.uniforms`` — see docs/observability.md for the catalogue).
    ``ops`` counts every recording operation performed while enabled;
    the tests use it to bound what the *disabled* path would have paid
    in ``active()`` checks.
    """

    def __init__(self, max_span_events: int = DEFAULT_MAX_SPAN_EVENTS):
        if max_span_events < 1:
            raise ConfigError(
                f"max_span_events must be >= 1, got {max_span_events}"
            )
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Deque[SpanEvent] = deque(maxlen=max_span_events)
        self.spans_dropped = 0
        self.merged_snapshots = 0
        self.ops = 0
        self._epoch = time.perf_counter()
        self._depth = 0

    # ------------------------------------------------------------------
    # Instrument access

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # Recording

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.ops += 1
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Write gauge ``name``."""
        self.ops += 1
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        self.ops += 1
        self.histogram(name).observe(value)

    @contextmanager
    def span(self, name: str):
        """Timed, nestable region; closes into ``span.<name>``.

        The duration lands in the ``span.<name>`` histogram and the
        event (with its start offset and nesting depth) in the bounded
        span ring — oldest events are dropped and counted once the ring
        is full, so a long run's telemetry stays O(ring size).
        """
        self.ops += 1
        depth = self._depth
        self._depth = depth + 1
        start = time.perf_counter()
        try:
            yield self
        finally:
            duration = time.perf_counter() - start
            self._depth = depth
            self.histogram(f"span.{name}").observe(duration)
            if len(self.spans) == self.spans.maxlen:
                self.spans_dropped += 1
            self.spans.append(
                SpanEvent(name, start - self._epoch, duration, depth)
            )

    def time_call(self, name: str, func):
        """Run ``func()`` inside :meth:`span`; returns its result."""
        with self.span(name):
            return func()

    # ------------------------------------------------------------------
    # Snapshot / merge

    def snapshot(self) -> dict:
        """JSON-serializable summary (no span events — see exporters).

        The snapshot is what crosses process boundaries: counters,
        gauges, histogram summaries, and the span-ring drop count.  It
        pickles/JSON-encodes cheaply and merges associatively.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(self.histograms.items())
            },
            "spans_dropped": self.spans_dropped,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this.

        Counters and histogram summaries add; gauges take the incoming
        value (last write wins — the merged snapshot is the newer
        observation).  Merging is associative and order-insensitive for
        everything except gauges.
        """
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            raise DataError(f"not a telemetry snapshot: {snapshot!r}")
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise DataError(
                f"telemetry snapshot version {version!r} != {SNAPSHOT_VERSION}"
            )
        for name, value in snapshot["counters"].items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_dict(summary)
        self.spans_dropped += int(snapshot.get("spans_dropped", 0))
        self.merged_snapshots += 1

    # ------------------------------------------------------------------
    # Convenience reads

    def value(self, name: str, default: float = 0) -> float:
        """Counter value by name (``default`` when never incremented)."""
        instrument = self.counters.get(name)
        return instrument.value if instrument is not None else default


# ----------------------------------------------------------------------
# Process-wide enable switch

_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The ambient :class:`Telemetry`, or ``None`` when disabled.

    This is *the* hot-path hook: instrumented code does
    ``tel = active()`` and skips everything on ``None``.
    """
    return _ACTIVE


def enabled() -> bool:
    """Whether telemetry is currently collecting."""
    return _ACTIVE is not None


def enable(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install ``telemetry`` (or a fresh instance) as the ambient one."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else Telemetry()
    return _ACTIVE


def disable() -> Optional[Telemetry]:
    """Stop collecting; returns the instance that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def use_telemetry(telemetry: Optional[Telemetry] = None):
    """Scope an ambient Telemetry for a ``with`` block (nestable)."""
    global _ACTIVE
    previous = _ACTIVE
    instance = telemetry if telemetry is not None else Telemetry()
    _ACTIVE = instance
    try:
        yield instance
    finally:
        _ACTIVE = previous
