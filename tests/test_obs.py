"""Unit tests for the telemetry core and its exporters."""

import json
import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import telemetry as obs
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
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.util import ConfigError, DataError


@pytest.fixture(autouse=True)
def _no_ambient_telemetry():
    """Each test starts and ends with telemetry disabled."""
    obs.disable()
    yield
    obs.disable()


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigError):
            Counter().inc(-1)

    def test_gauge_nan_until_set(self):
        gauge = Gauge()
        assert math.isnan(gauge.value)
        gauge.set(3)
        assert gauge.value == 3.0

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (2.0, 1.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(7.0 / 3)
        assert (histogram.min, histogram.max) == (1.0, 4.0)

    def test_empty_histogram_to_dict_has_null_bounds(self):
        assert Histogram().to_dict() == {
            "count": 0, "total": 0.0, "min": None, "max": None,
        }

    def test_histogram_merge(self):
        left, right = Histogram(), Histogram()
        left.observe(1.0)
        right.observe(5.0)
        right.observe(3.0)
        left.merge_dict(right.to_dict())
        assert left.count == 3
        assert (left.min, left.max) == (1.0, 5.0)
        left.merge_dict(Histogram().to_dict())  # empty merge is a no-op
        assert left.count == 3


class TestTelemetry:
    def test_instruments_created_on_demand(self):
        tel = Telemetry()
        tel.inc("a.b", 2)
        tel.set_gauge("c", 1.5)
        tel.observe("d", 0.25)
        assert tel.value("a.b") == 2
        assert tel.value("never.touched") == 0
        assert tel.value("never.touched", default=-1) == -1
        assert tel.gauges["c"].value == 1.5
        assert tel.histograms["d"].count == 1

    def test_ops_counts_every_recording(self):
        tel = Telemetry()
        tel.inc("a")
        tel.set_gauge("b", 1)
        tel.observe("c", 1)
        with tel.span("d"):
            pass
        assert tel.ops == 4

    def test_rejects_bad_ring_capacity(self):
        with pytest.raises(ConfigError):
            Telemetry(max_span_events=0)

    def test_span_nesting_depths(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        events = list(tel.spans)
        # Inner closes first; depths record the nesting.
        assert [(e.name, e.depth) for e in events] == [("inner", 1), ("outer", 0)]
        assert tel.histograms["span.outer"].count == 1
        assert tel.histograms["span.inner"].count == 1
        assert all(e.duration_s >= 0 for e in events)

    def test_span_ring_drops_oldest(self):
        tel = Telemetry(max_span_events=2)
        for _ in range(5):
            with tel.span("s"):
                pass
        assert len(tel.spans) == 2
        assert tel.spans_dropped == 3
        assert tel.histograms["span.s"].count == 5  # histogram never drops

    def test_time_call_returns_result(self):
        tel = Telemetry()
        assert tel.time_call("f", lambda: 42) == 42
        assert tel.histograms["span.f"].count == 1


class TestAmbientSwitch:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.enabled()

    def test_enable_disable(self):
        tel = obs.enable()
        assert obs.active() is tel
        assert obs.enabled()
        assert obs.disable() is tel
        assert obs.active() is None

    def test_use_telemetry_restores_previous(self):
        outer = obs.enable()
        with obs.use_telemetry() as inner:
            assert obs.active() is inner
            assert inner is not outer
        assert obs.active() is outer

    def test_use_telemetry_accepts_instance(self):
        mine = Telemetry()
        with obs.use_telemetry(mine) as tel:
            assert tel is mine
        assert obs.active() is None


def _metered_worker(amount):
    """Meter inside a worker process and ship the snapshot home."""
    with obs.use_telemetry() as tel:
        tel.inc("worker.units", amount)
        tel.observe("worker.latency", amount / 10.0)
    return tel.snapshot()


class TestSnapshotMerge:
    def test_counters_add_gauges_last_write_wins(self):
        a, b = Telemetry(), Telemetry()
        a.inc("n", 2)
        a.set_gauge("g", 1)
        b.inc("n", 3)
        b.set_gauge("g", 9)
        b.observe("h", 4)
        a.merge(b.snapshot())
        assert a.value("n") == 5
        assert a.gauges["g"].value == 9
        assert a.histograms["h"].count == 1
        assert a.merged_snapshots == 1

    def test_snapshot_is_json_serializable(self):
        tel = Telemetry()
        tel.inc("n")
        tel.set_gauge("g", 2)
        with tel.span("s"):
            pass
        round_tripped = json.loads(json.dumps(tel.snapshot()))
        fresh = Telemetry()
        fresh.merge(round_tripped)
        assert fresh.value("n") == 1

    def test_merge_rejects_wrong_version(self):
        tel = Telemetry()
        snapshot = tel.snapshot()
        snapshot["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(DataError):
            Telemetry().merge(snapshot)

    def test_merge_rejects_non_snapshot(self):
        with pytest.raises(DataError):
            Telemetry().merge({"bogus": True})

    def test_merge_across_processes(self):
        parent = Telemetry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for snapshot in pool.map(_metered_worker, [10, 20, 30]):
                parent.merge(snapshot)
        assert parent.value("worker.units") == 60
        assert parent.histograms["worker.latency"].count == 3
        assert parent.merged_snapshots == 3


def _sample_telemetry():
    tel = Telemetry()
    tel.inc("solver.flips", 30)
    tel.inc("solver.site_updates", 100)
    tel.set_gauge("solver.temperature", 0.01)
    tel.observe("engine.task_seconds", 0.5)
    with tel.span("solver.sweep"):
        pass
    return tel


class TestJsonlTrace:
    def test_round_trip(self, tmp_path):
        tel = _sample_telemetry()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tel, path)
        reloaded = load_trace(path)
        assert reloaded.value("solver.flips") == 30
        assert reloaded.gauges["solver.temperature"].value == 0.01
        assert reloaded.histograms["engine.task_seconds"].count == 1
        assert [e.name for e in reloaded.spans] == ["solver.sweep"]

    def test_meta_record_comes_first(self):
        lines = to_jsonl(_sample_telemetry()).splitlines()
        assert json.loads(lines[0])["type"] == "meta"

    def test_parse_rejects_bad_json(self):
        with pytest.raises(DataError, match="not JSON"):
            parse_jsonl('{"type": "meta", "version": 1}\nnot json\n')

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(DataError, match="unknown type"):
            parse_jsonl('{"type": "meta", "version": 1}\n{"type": "surprise"}\n')

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(DataError, match="missing fields"):
            parse_jsonl('{"type": "meta", "version": 1}\n{"type": "counter", "name": "n"}\n')

    def test_parse_requires_leading_meta(self):
        with pytest.raises(DataError, match="meta"):
            parse_jsonl('{"type": "counter", "name": "n", "value": 1}\n')

    def test_unset_gauge_round_trips_as_null(self):
        tel = Telemetry()
        tel.gauge("never.set")
        records = parse_jsonl(to_jsonl(tel))
        gauge_records = [r for r in records if r["type"] == "gauge"]
        assert gauge_records == [{"type": "gauge", "name": "never.set", "value": None}]
        assert math.isnan(telemetry_from_events(records).gauge("never.set").value)


class TestReport:
    def test_derived_metrics(self):
        tel = _sample_telemetry()
        tel.inc("engine.cache_hits", 3)
        tel.inc("engine.cache_misses", 1)
        derived = derived_metrics(tel)
        assert derived["acceptance_rate"] == pytest.approx(0.3)
        assert derived["cache_hit_rate"] == pytest.approx(0.75)
        assert "swap_accept_rate" not in derived  # no tempering counters

    def test_render_report_sections(self):
        report = render_report(_sample_telemetry())
        assert "acceptance_rate" in report
        assert "solver.flips" in report
        assert "span.solver.sweep" in report

    def test_render_report_empty(self):
        assert "empty" in render_report(Telemetry())

    def test_render_report_notes_dropped_spans(self):
        tel = Telemetry(max_span_events=1)
        for _ in range(3):
            with tel.span("s"):
                pass
        assert "dropped 2 oldest" in render_report(tel)
