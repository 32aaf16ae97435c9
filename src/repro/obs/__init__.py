"""repro.obs — the unified telemetry subsystem.

Counters, gauges, histogram timers, and nestable spans behind a
process-wide enable switch (:func:`enable` / :func:`use_telemetry`),
plus exporters (JSONL trace, human report table).
See docs/observability.md for the metric catalogue.
"""

from repro.obs.exporters import (
    derived_metrics,
    load_trace,
    parse_jsonl,
    render_report,
    telemetry_from_events,
    to_jsonl,
    write_jsonl,
)
from repro.obs.telemetry import (
    DEFAULT_MAX_SPAN_EVENTS,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    SpanEvent,
    Telemetry,
    active,
    disable,
    enable,
    enabled,
    use_telemetry,
)

__all__ = [
    "Counter",
    "DEFAULT_MAX_SPAN_EVENTS",
    "Gauge",
    "Histogram",
    "SNAPSHOT_VERSION",
    "SpanEvent",
    "Telemetry",
    "active",
    "derived_metrics",
    "disable",
    "enable",
    "enabled",
    "load_trace",
    "parse_jsonl",
    "render_report",
    "telemetry_from_events",
    "to_jsonl",
    "use_telemetry",
    "write_jsonl",
]
