"""Telemetry exporters: JSONL event stream and report table.

Two consumers, two formats:

* :func:`to_jsonl` / :func:`write_jsonl` — one JSON object per line
  (``meta``, ``counter``, ``gauge``, ``histogram``, ``span`` records),
  machine-readable and streamable; :func:`parse_jsonl` and
  :func:`telemetry_from_events` round-trip it back into a
  :class:`~repro.obs.telemetry.Telemetry` for offline reporting
  (``rsu-experiments obs report --trace run.jsonl``).
* :func:`render_report` — the human summary table the ``obs report``
  CLI prints: counters, gauges, histograms with count/mean/min/max,
  plus derived headline rates (acceptance rate, cache hit rate,
  µarch stall fraction) when their inputs are present.
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, Iterable, List, Optional

from repro.obs.telemetry import SNAPSHOT_VERSION, SpanEvent, Telemetry
from repro.util.errors import DataError

#: JSONL trace format version.
TRACE_VERSION = 1

#: Record types a JSONL trace may contain.
RECORD_TYPES = ("meta", "counter", "gauge", "histogram", "span")


# ----------------------------------------------------------------------
# JSONL event stream


def iter_records(telemetry: Telemetry) -> Iterable[dict]:
    """The trace records of one Telemetry, meta line first."""
    yield {
        "type": "meta",
        "version": TRACE_VERSION,
        "snapshot_version": SNAPSHOT_VERSION,
        "spans_dropped": telemetry.spans_dropped,
        "merged_snapshots": telemetry.merged_snapshots,
    }
    for name, counter in sorted(telemetry.counters.items()):
        yield {"type": "counter", "name": name, "value": counter.value}
    for name, gauge in sorted(telemetry.gauges.items()):
        value = gauge.value
        yield {
            "type": "gauge",
            "name": name,
            "value": None if value != value else value,  # NaN -> null
        }
    for name, histogram in sorted(telemetry.histograms.items()):
        yield {"type": "histogram", "name": name, **histogram.to_dict()}
    for event in telemetry.spans:
        yield {
            "type": "span",
            "name": event.name,
            "start_s": round(event.start_s, 9),
            "duration_s": round(event.duration_s, 9),
            "depth": event.depth,
        }


def to_jsonl(telemetry: Telemetry) -> str:
    """Serialize to the JSONL trace format (trailing newline included)."""
    out = io.StringIO()
    for record in iter_records(telemetry):
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    return out.getvalue()


def write_jsonl(telemetry: Telemetry, path: os.PathLike) -> None:
    """Write the JSONL trace to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(telemetry))


#: Required fields per record type (beyond ``type``).
_REQUIRED_FIELDS = {
    "meta": ("version",),
    "counter": ("name", "value"),
    "gauge": ("name", "value"),
    "histogram": ("name", "count", "total", "min", "max"),
    "span": ("name", "start_s", "duration_s", "depth"),
}


def parse_jsonl(text: str) -> List[dict]:
    """Parse and validate a JSONL trace; raises :class:`DataError`.

    Every line must be a JSON object with a known ``type`` and that
    type's required fields — a truncated or hand-mangled trace fails
    loudly instead of silently reporting partial metrics.
    """
    records: List[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"trace line {lineno} is not JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"trace line {lineno} is not an object")
        kind = record.get("type")
        if kind not in RECORD_TYPES:
            raise DataError(f"trace line {lineno} has unknown type {kind!r}")
        missing = [f for f in _REQUIRED_FIELDS[kind] if f not in record]
        if missing:
            raise DataError(
                f"trace line {lineno} ({kind}) is missing fields {missing}"
            )
        records.append(record)
    if not records or records[0].get("type") != "meta":
        raise DataError("trace must start with a meta record")
    return records


def telemetry_from_events(records: List[dict]) -> Telemetry:
    """Rebuild a Telemetry from parsed trace records (for offline reports)."""
    telemetry = Telemetry()
    for record in records:
        kind = record["type"]
        if kind == "meta":
            telemetry.spans_dropped += int(record.get("spans_dropped", 0))
        elif kind == "counter":
            telemetry.counter(record["name"]).inc(record["value"])
        elif kind == "gauge":
            if record["value"] is not None:
                telemetry.gauge(record["name"]).set(record["value"])
        elif kind == "histogram":
            telemetry.histogram(record["name"]).merge_dict(record)
        elif kind == "span":
            telemetry.spans.append(
                SpanEvent(
                    record["name"],
                    float(record["start_s"]),
                    float(record["duration_s"]),
                    int(record["depth"]),
                )
            )
    return telemetry


def load_trace(path: os.PathLike) -> Telemetry:
    """Read a JSONL trace file back into a Telemetry."""
    with open(path, encoding="utf-8") as handle:
        return telemetry_from_events(parse_jsonl(handle.read()))


# ----------------------------------------------------------------------
# Human report


def _rate(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def derived_metrics(telemetry: Telemetry) -> Dict[str, float]:
    """Headline rates computable from the recorded counters."""
    derived: Dict[str, float] = {}
    pairs = (
        ("acceptance_rate", "solver.flips", "solver.site_updates"),
        ("swap_accept_rate", "tempering.swaps_accepted", "tempering.swap_attempts"),
        ("uarch_stall_fraction", "uarch.stalls", "uarch.cycles"),
    )
    for label, num, den in pairs:
        value = _rate(telemetry.value(num), telemetry.value(den))
        if value is not None:
            derived[label] = value
    hits = telemetry.value("engine.cache_hits")
    misses = telemetry.value("engine.cache_misses")
    if hits or misses:
        derived["cache_hit_rate"] = hits / (hits + misses)
    samples = telemetry.value("sampler.samples")
    uniforms = telemetry.value("entropy.uniforms")
    if samples and uniforms:
        derived["entropy_uniforms_per_sample"] = uniforms / samples
    return derived


def _table(title: str, rows: List[tuple], header: tuple) -> List[str]:
    if not rows:
        return []
    widths = [
        max(len(str(header[col])), max(len(str(row[col])) for row in rows))
        for col in range(len(header))
    ]
    lines = [title]
    lines.append("  " + "  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for row in rows:
        cells = [str(row[0]).ljust(widths[0])]
        cells += [str(c).rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  " + "  ".join(cells))
    return lines


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_report(telemetry: Telemetry) -> str:
    """The ``obs report`` summary: one text block, deterministic order."""
    sections: List[str] = []
    derived = derived_metrics(telemetry)
    if derived:
        sections += _table(
            "derived",
            [(name, _fmt(value)) for name, value in sorted(derived.items())],
            ("metric", "value"),
        )
        sections.append("")
    counter_rows = [
        (name, _fmt(c.value)) for name, c in sorted(telemetry.counters.items())
    ]
    sections += _table("counters", counter_rows, ("counter", "value"))
    if counter_rows:
        sections.append("")
    gauge_rows = [
        (name, _fmt(g.value))
        for name, g in sorted(telemetry.gauges.items())
        if g.value == g.value
    ]
    sections += _table("gauges", gauge_rows, ("gauge", "value"))
    if gauge_rows:
        sections.append("")
    histogram_rows = [
        (name, h.count, _fmt(h.mean), _fmt(h.min), _fmt(h.max))
        for name, h in sorted(telemetry.histograms.items())
        if h.count
    ]
    sections += _table(
        "histograms", histogram_rows, ("histogram", "count", "mean", "min", "max")
    )
    if telemetry.spans_dropped:
        sections.append("")
        sections.append(f"(span ring dropped {telemetry.spans_dropped} oldest events)")
    if not sections:
        return "telemetry is empty (nothing was recorded)"
    return "\n".join(sections).rstrip()
