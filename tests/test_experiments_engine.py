"""Tests for the parallel experiment engine and its result cache.

The load-bearing guarantee: a registry experiment produces byte-identical
results whether its solves run sequentially, over a ``jobs=4`` process
pool, or out of a warm content-addressed cache.
"""

import numpy as np
import pytest

from repro.apps.stereo import StereoParams
from repro.core.params import new_design_config
from repro.experiments import QUICK, run_experiment
from repro.experiments.ablations import run as run_ablations
from repro.experiments.engine import (
    ExperimentEngine,
    SolveTask,
    _load_dataset,
    execute_task,
    get_engine,
    set_default_engine,
    solve_task,
    use_engine,
)
from repro.experiments.sweep import run_sweep
from repro.util import ConfigError

#: Minutes-scale profile shrunk to seconds for engine plumbing tests.
SUPERTINY = QUICK.with_(
    sweep_scale=0.12,
    sweep_iterations=6,
    motion_scale=0.2,
    motion_iterations=4,
    seg_shape=(14, 18),
    seg_iterations=3,
)

PARAMS = StereoParams(iterations=6)
SPEC = {"name": "poster", "scale": 0.12}


def tiny_task(seed=3, **config_overrides):
    return solve_task(
        "stereo", SPEC, config=new_design_config(**config_overrides),
        params=PARAMS, seed=seed,
    )


class TestSolveTask:
    def test_key_is_stable(self):
        assert tiny_task().key() == tiny_task().key()

    def test_key_depends_on_seed_and_config(self):
        keys = {tiny_task().key(), tiny_task(seed=4).key(), tiny_task(time_bits=3).key()}
        assert len(keys) == 3

    def test_key_ignores_dict_ordering(self):
        a = solve_task("stereo", {"name": "poster", "scale": 0.12},
                       config=new_design_config(), params=PARAMS)
        b = solve_task("stereo", {"scale": 0.12, "name": "poster"},
                       config=new_design_config(), params=PARAMS)
        assert a.key() == b.key()

    def test_rejects_unknown_app(self):
        with pytest.raises(ConfigError):
            solve_task("ray_tracing", SPEC, config=new_design_config())

    def test_rsu_backend_requires_config(self):
        with pytest.raises(ConfigError):
            SolveTask(app="stereo", dataset=(("name", "poster"),))

    def test_execute_task_solves(self):
        result = execute_task(tiny_task())
        assert np.isfinite(result.bad_pixel)


class TestEngineExecution:
    def test_duplicate_tasks_solved_once(self):
        engine = ExperimentEngine(jobs=1)
        first, second = engine.run_tasks([tiny_task(), tiny_task()])
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1
        assert np.array_equal(first.disparity, second.disparity)

    def test_parallel_results_match_sequential(self):
        tasks = [tiny_task(time_bits=bits) for bits in (3, 4, 5, 6)]
        sequential = ExperimentEngine(jobs=1).run_tasks(tasks)
        parallel = ExperimentEngine(jobs=4).run_tasks(tasks)
        for seq, par in zip(sequential, parallel):
            assert seq.bad_pixel == par.bad_pixel
            assert np.array_equal(seq.disparity, par.disparity)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigError):
            ExperimentEngine(jobs=0)

    def test_ambient_engine_scoping(self):
        default = get_engine()
        engine = ExperimentEngine(jobs=1)
        with use_engine(engine):
            assert get_engine() is engine
        assert get_engine() is default

    def test_set_default_engine_returns_previous(self):
        engine = ExperimentEngine(jobs=1)
        previous = set_default_engine(engine)
        try:
            assert get_engine() is engine
        finally:
            set_default_engine(previous)


class TestResultCache:
    def test_cold_then_warm_cache_identical(self, tmp_path):
        tasks = [tiny_task(time_bits=bits) for bits in (4, 5)]
        cold_engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        cold = cold_engine.run_tasks(tasks)
        assert cold_engine.stats.executed == 2

        warm_engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        warm = warm_engine.run_tasks(tasks)
        assert warm_engine.stats.cache_hits == 2
        assert warm_engine.stats.executed == 0
        for a, b in zip(cold, warm):
            assert a.bad_pixel == b.bad_pixel
            assert np.array_equal(a.disparity, b.disparity)

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        task = tiny_task()
        engine.run_tasks([task])
        engine.cache.path(task.key()).write_bytes(b"not a pickle")
        again = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        result = again.run_tasks([task])[0]
        assert again.stats.executed == 1
        assert np.isfinite(result.bad_pixel)


class TestRegistryDeterminism:
    """Satellite regression: jobs=1 == jobs=4 == warm cache, byte for byte."""

    def _rows(self, engine):
        with use_engine(engine):
            return run_ablations(profile=SUPERTINY, seed=3)

    def test_parallel_and_cached_rows_byte_identical(self, tmp_path):
        sequential = self._rows(ExperimentEngine(jobs=1, use_cache=False))
        parallel = self._rows(ExperimentEngine(jobs=4, use_cache=False))
        cold = self._rows(ExperimentEngine(jobs=4, cache_dir=tmp_path, use_cache=True))
        warm_engine = ExperimentEngine(jobs=4, cache_dir=tmp_path, use_cache=True)
        warm = self._rows(warm_engine)
        assert warm_engine.stats.cache_hits == warm_engine.stats.tasks
        baseline = sequential.to_json()
        assert parallel.to_json() == baseline
        assert cold.to_json() == baseline
        assert warm.to_json() == baseline

    def test_parallel_and_cached_sweep_byte_identical(self, tmp_path):
        def sweep(engine):
            with use_engine(engine):
                return run_sweep(
                    "time_bits", [4, 5, 6], app="stereo", profile=SUPERTINY, seed=3
                )

        baseline = sweep(ExperimentEngine(jobs=1, use_cache=False)).to_json()
        cold = sweep(ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True))
        warm_engine = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        warm = sweep(warm_engine)
        assert warm_engine.stats.cache_hits == warm_engine.stats.tasks > 0
        assert cold.to_json() == baseline
        assert warm.to_json() == baseline

    def test_run_experiment_accepts_engine(self):
        engine = ExperimentEngine(jobs=1)
        result = run_experiment("table3", profile="quick", engine=engine)
        assert result.experiment_id == "table3"


class TestSweepDatasetHoisting:
    def test_sweep_loads_dataset_once(self):
        _load_dataset.cache_clear()
        result = run_sweep("time_bits", [4, 5, 6], app="stereo", profile=SUPERTINY)
        info = _load_dataset.cache_info()
        assert info.misses == 1
        assert info.hits == 2
        assert len(result.rows) == 3
