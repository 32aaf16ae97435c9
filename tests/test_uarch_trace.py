"""Tests for pipeline tracing and rendering."""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

import repro.uarch.trace as trace_module
from repro.core import legacy_design_config, new_design_config
from repro.core.convert import boundary_codes, boundary_table
from repro.core.pipeline import sampling_window_cycles
from repro.uarch import LegacyMachine, NewMachine
from repro.uarch.trace import STAGE_LETTERS, PipelineTrace
from repro.util import ConfigError
from tests.oracles import run_per_cycle

#: SHA-256 of ``examples/uarch_trace.py``'s stdout, recorded when the
#: traces came from the per-cycle machines.
EXAMPLE_STDOUT_SHA256 = (
    "2a9b7a4b0a9907803c8c50d634c7edc0e01e6f97b3b0dcf6c70d1bfe203e0725"
)


def fixture_energies(n_vars=2, labels=4, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n_vars, labels))


def traced_new_run(n_vars=2, labels=4, seed=0):
    trace = PipelineTrace()
    machine = NewMachine(
        new_design_config(), 40.0, np.random.default_rng(seed + 1), trace=trace
    )
    result = machine.run_matrix(fixture_energies(n_vars, labels, seed))
    return trace, result


class TestRecording:
    def test_every_evaluation_passes_all_new_stages(self):
        # Cut-off (code 0) labels are scheduled like live ones — the
        # engine and the per-cycle reference both give them a full RET
        # window — but their TTF is the cut-off bin, so they never win.
        trace, result = traced_new_run()
        config = new_design_config()
        energies = fixture_energies()
        scaled = energies - energies.min(axis=1, keepdims=True)
        codes = boundary_codes(boundary_table(40.0, config), scaled, config.lambda_max_code)
        assert np.count_nonzero(codes == 0) >= 1
        grouped = trace.by_evaluation()
        assert len(grouped) == 2 * 4
        for events in grouped.values():
            stages = [e.stage for e in events]
            for required in ("issue", "energy", "fifo", "scale", "convert", "select"):
                assert required in stages
            assert stages.count("ret") == sampling_window_cycles(config)
        for variable, winner in enumerate(result.winners):
            assert codes[variable, winner] > 0

    def test_stage_order_monotone_in_cycles(self):
        trace, _ = traced_new_run()
        order = ["issue", "energy", "fifo", "scale", "convert"]
        for events in trace.by_evaluation().values():
            cycles = {e.stage: e.cycle for e in events if e.stage in order}
            observed = [cycles[s] for s in order if s in cycles]
            assert observed == sorted(observed)

    def test_legacy_trace_records_stalls(self):
        trace = PipelineTrace()
        quantized = np.random.default_rng(0).integers(0, 256, (3, 4))
        machine = LegacyMachine(
            legacy_design_config(), 40.0, np.random.default_rng(1), trace=trace
        )
        machine.run_matrix(quantized, temperature_schedule={1: 20.0})
        stalls = [e for e in trace.events if e.stage == "stall"]
        assert len(stalls) == 128

    def test_bounded_events(self):
        trace = PipelineTrace(max_events=5)
        for cycle in range(20):
            trace.record(cycle, "issue", 0, 0)
        assert len(trace.events) == 5

    def test_rejects_unknown_stage(self):
        with pytest.raises(ConfigError):
            PipelineTrace().record(0, "teleport", 0, 0)


class TestRendering:
    def test_render_contains_stage_letters(self):
        trace, _ = traced_new_run()
        text = trace.render()
        for letter in ("I", "E", "F", "S", "C", "R", "W"):
            assert letter in text

    def test_render_row_cap(self):
        trace, _ = traced_new_run(n_vars=4, labels=8)
        text = trace.render(max_rows=3)
        assert "more evaluations" in text

    def test_render_window(self):
        trace, _ = traced_new_run()
        text = trace.render(start_cycle=0, end_cycle=5)
        header = text.splitlines()[0]
        assert header.endswith("012345")

    def test_render_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            PipelineTrace().render()

    def test_occupancy_profile(self):
        trace, result = traced_new_run()
        ret = trace.occupancy("ret")
        # Steady state: at most `window` concurrent RET observations.
        assert max(ret.values()) <= 4
        assert sum(ret.values()) > 0

    def test_stage_letter_table_complete(self):
        assert set(STAGE_LETTERS) >= {
            "issue", "energy", "convert", "fifo", "scale", "ret", "select", "stall",
        }


class TestWindowedTrace:
    """Dropped-event surfacing: render note and machine stats keys."""

    def test_render_notes_dropped_events(self):
        trace = PipelineTrace(max_events=3)
        for cycle in range(10):
            trace.record(cycle, "issue", 0, 0)
        assert trace.dropped == 7
        text = trace.render()
        assert "windowed trace: 7 oldest events dropped, 3 retained" in text

    def test_render_of_complete_trace_has_no_note(self):
        trace, _ = traced_new_run()
        assert trace.dropped == 0
        assert "windowed" not in trace.render()

    def test_traced_run_reports_trace_stats(self):
        trace, result = traced_new_run()
        assert result.stats["trace_events"] == len(trace.events)
        assert result.stats["trace_dropped"] == 0

    def test_traced_run_counts_drops_in_stats(self):
        trace = PipelineTrace(max_events=8)
        quantized = np.random.default_rng(0).integers(0, 256, (3, 4))
        machine = NewMachine(
            new_design_config(), 40.0, np.random.default_rng(1), trace=trace
        )
        result = machine.run_matrix(quantized)
        assert result.stats["trace_dropped"] == trace.dropped > 0
        assert result.stats["trace_events"] == 8

    def test_untraced_run_has_no_trace_stats(self):
        """The event-vs-scalar stats identity must not change: untraced
        runs (the event path) carry no trace keys."""
        quantized = np.random.default_rng(0).integers(0, 256, (2, 4))
        machine = NewMachine(new_design_config(), 40.0, np.random.default_rng(1))
        result = machine.run_matrix(quantized)
        assert "trace_events" not in result.stats
        assert "trace_dropped" not in result.stats


def test_example_stdout_unchanged(capsys):
    example = Path(__file__).resolve().parents[1] / "examples" / "uarch_trace.py"
    runpy.run_path(str(example), run_name="__main__")
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == EXAMPLE_STDOUT_SHA256


def make_machine(design, rng, trace=None, time_bits=5, tie="random", float_time=False):
    if design == "legacy":
        config = legacy_design_config(
            time_bits=time_bits, tie_policy=tie, float_time=float_time
        )
        return LegacyMachine(config, 40.0, rng, trace=trace)
    config = new_design_config(time_bits=time_bits, tie_policy=tie, float_time=float_time)
    return NewMachine(config, 40.0, rng, conflict_policy=design, trace=trace)


def event_tuples(trace):
    return [(e.cycle, e.stage, e.variable, e.label) for e in trace.events]


def traced_pair(design, quantized, runs=({},), max_events=100_000, **config):
    """Event-engine and per-cycle runs of ``quantized``, each into one trace."""
    outcomes = []
    for engine in ("event", "per-cycle"):
        rng = np.random.default_rng(23)
        trace = PipelineTrace(max_events=max_events)
        machine = make_machine(design, rng, trace, **config)
        results = [
            machine.run_matrix(quantized, schedule)
            if engine == "event"
            else run_per_cycle(machine, quantized, schedule)
            for schedule in runs
        ]
        outcomes.append((results, trace, rng))
    return outcomes


def assert_same_results(result, reference):
    assert np.array_equal(result.winners, reference.winners)
    assert np.array_equal(result.winner_cycle, reference.winner_cycle)
    assert np.array_equal(result.issue_cycle, reference.issue_cycle)
    assert result.total_cycles == reference.total_cycles
    assert result.stats == reference.stats


DESIGNS = ["legacy", "count", "stall"]


class TestTracedEventEngineMatchesPerCycle:
    """The event engine's traces equal the per-cycle machine's, event
    for event, ring window and drop count included."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("time_bits", [3, 5, 8])
    @pytest.mark.parametrize("tie", ["first", "last", "random"])
    @pytest.mark.parametrize("with_updates", [False, True])
    @pytest.mark.parametrize("max_events", [5, 64, 100_000])
    @pytest.mark.parametrize("float_time", [False, True])
    def test_matrix(self, design, time_bits, tie, with_updates, max_events, float_time):
        quantized = np.random.default_rng(31).integers(0, 256, (8, 6))
        schedule = {0: 20.0, 3: 60.0, 6: 30.0} if with_updates else {}
        (event, event_trace, event_rng), (oracle, oracle_trace, oracle_rng) = (
            traced_pair(
                design,
                quantized,
                (schedule,),
                max_events,
                time_bits=time_bits,
                tie=tie,
                float_time=float_time,
            )
        )
        assert_same_results(event[0], oracle[0])
        assert event_tuples(event_trace) == event_tuples(oracle_trace)
        assert event_trace.dropped == oracle_trace.dropped
        assert event_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_matrix_exercises_conflict_stalls(self):
        quantized = np.random.default_rng(31).integers(0, 256, (8, 6))
        (event, _, _), _ = traced_pair("stall", quantized)
        assert event[0].stats["conflict_stalls"] > 0

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("max_events", [40, 100_000])
    def test_two_runs_into_one_trace(self, design, max_events):
        quantized = np.random.default_rng(4).integers(0, 256, (4, 3))
        (event, event_trace, _), (oracle, oracle_trace, _) = traced_pair(
            design, quantized, ({1: 25.0}, {2: 50.0}), max_events
        )
        for result, reference in zip(event, oracle):
            assert_same_results(result, reference)
        assert event_tuples(event_trace) == event_tuples(oracle_trace)
        assert event_trace.dropped == oracle_trace.dropped


class TestTracingChangesNothingElse:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("float_time", [False, True])
    def test_traced_result_equals_untraced(self, design, float_time):
        quantized = np.random.default_rng(8).integers(0, 256, (10, 5))
        outcomes = []
        for trace in (None, PipelineTrace(max_events=16)):
            rng = np.random.default_rng(2)
            machine = make_machine(design, rng, trace, float_time=float_time)
            result = machine.run_matrix(quantized, {4: 15.0})
            outcomes.append((result, rng.bit_generator.state))
        (untraced, untraced_rng), (traced, traced_rng) = outcomes
        assert traced.stats.pop("trace_events") == 16
        assert traced.stats.pop("trace_dropped") > 0
        assert_same_results(traced, untraced)
        assert traced_rng == untraced_rng

    @pytest.mark.parametrize("design", DESIGNS)
    def test_long_run_builds_only_the_kept_events(self, design, monkeypatch):
        built = []

        class CountingEvent(trace_module.TraceEvent):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(trace_module, "TraceEvent", CountingEvent)
        trace = PipelineTrace(max_events=64)
        machine = make_machine(design, np.random.default_rng(0), trace)
        machine.run_matrix(np.random.default_rng(1).integers(0, 256, (200, 6)))
        assert len(trace.events) == 64
        assert trace.dropped > 200 * 6
        assert 0 < len(built) <= 64
