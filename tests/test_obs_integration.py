"""End-to-end telemetry: metered solves stay byte-identical and the
counters the report promises (acceptance, entropy, cache, µarch stalls)
actually fill in."""

import json
import time

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.apps.stereo import StereoParams, build_stereo_mrf, solve_stereo
from repro.core.params import new_design_config
from repro.data import load_stereo
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import ExperimentEngine, TelemetryEnvelope, solve_task
from repro.experiments.journal import RunJournal
from repro.mrf.annealing import geometric_for_span
from repro.mrf.solver import MCMCSolver
from repro.obs import telemetry as obs
from repro.obs.exporters import (
    parse_jsonl,
    render_report,
    telemetry_from_events,
    to_jsonl,
    write_jsonl,
)
from repro.obs.telemetry import Telemetry
from repro.uarch import MachineBackend


@pytest.fixture(autouse=True)
def _no_ambient_telemetry():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def dataset():
    return load_stereo("poster", scale=0.15)


PARAMS = StereoParams(iterations=8)


class TestMeteredSolve:
    def test_byte_identity_and_counters(self, dataset):
        plain = solve_stereo(
            dataset, "rsu", PARAMS, rsu_config=new_design_config(), seed=3
        )
        tel = Telemetry()
        metered = solve_stereo(
            dataset, "rsu", PARAMS, rsu_config=new_design_config(), seed=3,
            telemetry=tel,
        )
        assert np.array_equal(plain.disparity, metered.disparity)
        assert plain.bad_pixel == metered.bad_pixel
        assert tel.value("solver.sweeps") == PARAMS.iterations
        assert tel.value("solver.site_updates") == (
            PARAMS.iterations * plain.disparity.size
        )
        assert 0 < tel.value("solver.flips") <= tel.value("solver.site_updates")
        assert tel.histograms["solver.acceptance_rate"].count == PARAMS.iterations
        assert tel.value("sampler.samples") > 0
        assert tel.value("entropy.uniforms") > 0
        assert tel.histograms["span.solver.sweep"].count == PARAMS.iterations

    def test_disabled_path_overhead_is_bounded(self):
        """Every metering site costs one ``obs.active()`` probe when
        telemetry is off, so the metered run's op count times the
        measured probe cost bounds the disabled overhead — no comparison
        of two noisy solve timings needed."""
        params = StereoParams(iterations=20)
        model = build_stereo_mrf(load_stereo("poster", scale=0.2), params)
        schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

        def solve():
            sampler = make_backend(
                "rsu", model.max_energy(), seed=3, config=new_design_config()
            )
            return MCMCSolver(
                model, sampler, schedule, seed=3, track_energy=False
            ).run(params.iterations)

        disabled = solve()
        with obs.use_telemetry() as tel:
            enabled = solve()
        assert np.array_equal(disabled.labels, enabled.labels)
        assert tel.value("solver.sweeps") == params.iterations
        assert tel.value("entropy.uniforms") > 0
        assert tel.ops > 0
        reloaded = telemetry_from_events(parse_jsonl(to_jsonl(tel)))
        assert reloaded.value("solver.flips") == tel.value("solver.flips")

        def timed_solve():
            started = time.perf_counter()
            solve()
            return time.perf_counter() - started

        disabled_s = min(timed_solve() for _ in range(2))
        probes = 200_000
        started = time.perf_counter()
        for _ in range(probes):
            obs.active()
        probe_s = (time.perf_counter() - started) / probes
        assert tel.ops * probe_s / disabled_s < 0.02

    def test_report_shows_headline_rates(self, dataset):
        tel = Telemetry()
        solve_stereo(
            dataset, "rsu", PARAMS, rsu_config=new_design_config(), seed=3,
            telemetry=tel,
        )
        report = render_report(tel)
        assert "acceptance_rate" in report
        assert "entropy.uniforms" in report

    def test_software_backend_counts_uniforms(self, dataset):
        tel = Telemetry()
        solve_stereo(dataset, "software", PARAMS, seed=3, telemetry=tel)
        assert tel.value("entropy.uniforms") > 0
        assert tel.value("sampler.samples") > 0

    def test_ensemble_counters(self, dataset):
        tel = Telemetry()
        solve_stereo(
            dataset, "software", PARAMS, seed=3, chains=2, telemetry=tel
        )
        assert tel.value("ensemble.sweeps") > 0
        assert tel.gauges["ensemble.chains"].value == 2

    def test_buffered_lfsr_slab_refills(self, dataset):
        model = build_stereo_mrf(dataset, PARAMS)
        schedule = geometric_for_span(
            PARAMS.t0, PARAMS.t_final, PARAMS.iterations
        )
        with obs.use_telemetry() as tel:
            sampler = make_backend("cdf_lfsr", model.max_energy(), seed=3)
            MCMCSolver(
                model, sampler, schedule, seed=3, track_energy=False
            ).run(PARAMS.iterations)
        assert tel.value("entropy.slab_refills") > 0
        assert tel.value("entropy.slab_uniforms") > 0
        assert tel.value("entropy.uniforms") > 0


class TestUarchCounters:
    @pytest.fixture(scope="class")
    def machine_run(self):
        dataset = load_stereo("poster", scale=0.08)
        params = StereoParams(iterations=4)
        model = build_stereo_mrf(dataset, params)
        schedule = geometric_for_span(
            params.t0, params.t_final, params.iterations
        )
        with obs.use_telemetry() as tel:
            backend = MachineBackend(
                new_design_config(), model.max_energy(),
                np.random.default_rng(5), conflict_policy="stall",
            )
            MCMCSolver(
                model, backend, schedule, seed=3, track_energy=False
            ).run(params.iterations)
        return tel

    def test_machine_solve_fills_uarch_counters(self, machine_run):
        tel = machine_run
        assert tel.value("uarch.batches") > 0
        assert tel.value("uarch.cycles") > 0
        assert tel.value("uarch.labels") > 0
        assert tel.value("uarch.stalls") > 0
        assert tel.value("uarch.network_conflicts") > 0

    def test_stall_fraction_derived(self, machine_run):
        from repro.obs.exporters import derived_metrics

        derived = derived_metrics(machine_run)
        assert 0 < derived["uarch_stall_fraction"] < 1


TASK_PARAMS = StereoParams(iterations=6)
TASK_SPEC = {"name": "poster", "scale": 0.12}


def _tiny_task(seed=3):
    return solve_task(
        "stereo", TASK_SPEC, config=new_design_config(),
        params=TASK_PARAMS, seed=seed,
    )


class TestEngineTelemetry:
    def test_worker_snapshots_merge_into_parent(self, tmp_path):
        engine = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True, telemetry=True
        )
        with obs.use_telemetry() as tel:
            [result] = engine.run_tasks([_tiny_task()])
        assert tel.value("solver.sweeps") == TASK_PARAMS.iterations
        assert tel.value("engine.tasks") == 1
        assert tel.value("engine.executed") == 1
        assert tel.value("engine.cache_misses") == 1
        assert tel.histograms["engine.task_seconds"].count == 1
        telemetry_events = engine.journal.of_kind("telemetry")
        assert len(telemetry_events) == 1
        detail = dict(telemetry_events[0].detail)
        assert detail["sweeps"] == TASK_PARAMS.iterations
        assert detail["uniforms"] > 0
        assert not isinstance(result, TelemetryEnvelope)

    def test_cache_stores_raw_values(self, tmp_path):
        task = _tiny_task()
        cold = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True, telemetry=True
        )
        with obs.use_telemetry():
            [first] = cold.run_tasks([task])
        # A telemetry-free engine must read the same cache entries.
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        [second] = warm.run_tasks([task])
        assert warm.stats.cache_hits == 1
        assert not isinstance(second, TelemetryEnvelope)
        assert np.array_equal(first.disparity, second.disparity)

    def test_warm_cache_counts_hits_not_misses(self, tmp_path):
        task = _tiny_task()
        cold = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True, telemetry=True
        )
        with obs.use_telemetry():
            cold.run_tasks([task])
        warm = ExperimentEngine(
            jobs=1, cache_dir=tmp_path, use_cache=True, telemetry=True
        )
        with obs.use_telemetry() as tel:
            warm.run_tasks([task])
        assert tel.value("engine.cache_hits") == 1
        assert tel.value("engine.cache_misses") == 0

    def test_parallel_workers_merge(self, tmp_path):
        engine = ExperimentEngine(
            jobs=2, cache_dir=tmp_path, use_cache=False, telemetry=True
        )
        tasks = [_tiny_task(seed=3), _tiny_task(seed=4)]
        with obs.use_telemetry() as tel:
            results = engine.run_tasks(tasks)
        assert len(results) == 2
        assert tel.value("solver.sweeps") == 2 * TASK_PARAMS.iterations
        assert tel.histograms["engine.task_seconds"].count == 2
        assert tel.merged_snapshots == 2

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        plain_engine = ExperimentEngine(jobs=1, use_cache=False)
        [plain] = plain_engine.run_tasks([_tiny_task()])
        metered_engine = ExperimentEngine(
            jobs=1, use_cache=False, telemetry=True
        )
        with obs.use_telemetry():
            [metered] = metered_engine.run_tasks([_tiny_task()])
        assert np.array_equal(plain.disparity, metered.disparity)


class TestJournalMirror:
    def test_ts_monotonic_and_context_manager(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            for batch in range(5):
                journal.record("telemetry", batch=batch, elapsed_s=0.1)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 5
        stamps = [line["ts"] for line in lines]
        assert stamps == sorted(stamps)
        assert all(line["kind"] == "telemetry" for line in lines)
        journal.close()  # idempotent

    def test_clock_step_cannot_reorder_stream(self, tmp_path, monkeypatch):
        import repro.experiments.journal as journal_module

        ticks = iter([100.0, 50.0, 75.0])  # clock steps backwards mid-run
        monkeypatch.setattr(journal_module.time, "time", lambda: next(ticks))
        with RunJournal(tmp_path / "j.jsonl") as journal:
            for batch in range(3):
                journal.record("pool_rebuild", batch=batch)
        lines = [
            json.loads(line)
            for line in (tmp_path / "j.jsonl").read_text().splitlines()
        ]
        assert [line["ts"] for line in lines] == [100.0, 100.0, 100.0]

    def test_incidents_stay_timestamp_free(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        incident = journal.record("interrupted")
        assert "ts" not in incident.to_dict()
        journal.close()

    def test_reopen_after_close_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record("interrupted")
        journal.close()
        journal.record("interrupted")
        journal.close()
        assert len(path.read_text().splitlines()) == 2


class TestCliTelemetry:
    def test_sweep_with_telemetry_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = cli_main([
            "sweep", "--param", "time_bits", "--values", "3,5",
            "--profile", "quick", "--no-cache",
            "--telemetry", "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "solver.sweeps" in out
        records = parse_jsonl(trace.read_text())
        assert records[0]["type"] == "meta"
        counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert counters["solver.sweeps"] > 0
        assert counters["entropy.uniforms"] > 0

    def test_trace_out_implies_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = cli_main([
            "run", "table4", "--profile", "quick", "--no-cache",
            "--trace-out", str(trace),
        ])
        assert code == 0
        assert trace.exists()  # empty-but-valid trace: table4 runs no solves
        assert parse_jsonl(trace.read_text())[0]["type"] == "meta"

    def test_obs_report_subcommand(self, tmp_path, capsys):
        tel = Telemetry()
        tel.inc("solver.flips", 5)
        tel.inc("solver.site_updates", 10)
        trace = tmp_path / "t.jsonl"
        write_jsonl(tel, trace)
        assert cli_main(["obs", "report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "acceptance_rate" in out
        assert "solver.flips" in out

    def test_repro_obs_entry_point(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        tel = Telemetry()
        tel.inc("n", 2)
        trace = tmp_path / "t.jsonl"
        write_jsonl(tel, trace)
        assert obs_main(["report", "--trace", str(trace), "--format", "jsonl"]) == 0
        assert '{"name":"n","type":"counter","value":2}' in capsys.readouterr().out

    def test_repro_obs_reports_bad_trace(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        trace = tmp_path / "bad.jsonl"
        trace.write_text("not json\n")
        assert obs_main(["report", "--trace", str(trace)]) == 2
        assert "error:" in capsys.readouterr().err
