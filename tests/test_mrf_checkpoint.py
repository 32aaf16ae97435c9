"""Kill-and-resume determinism for the MCMC solver front ends.

The contract (see ``repro/mrf/checkpoint.py``): a solve interrupted at
any checkpoint and resumed from it produces *byte-identical* labels,
histories, and downstream RNG draws to an uninterrupted oracle — for
the single-chain solver across backends (software, LFSR/MT19937-fed CDF
samplers, both RSU-G designs), for parallel tempering (also resumed in
the reference chains of ``tests/oracles.py``), and for ensembles of one
or more chains.  Plus: on-disk round trip through the
checksummed envelope, and corrupt/foreign checkpoint files are refused
rather than resumed from garbage.
"""

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import label_distance_matrix, new_design_config
from repro.mrf import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointWriter,
    EnsembleSolver,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    ParallelTempering,
    SolveCheckpoint,
    geometric_ladder,
    load_checkpoint,
    save_checkpoint,
)
from repro.util.errors import ConfigError
from repro.util.integrity import EnvelopeError
from tests.oracles import run_ensemble_reference, run_tempering_reference

FULL_SCALE = 12.0

BACKENDS = ["software", "new_rsug", "prev_rsug", "rsu", "cdf_lfsr", "cdf_mt19937"]


def tiny_model(seed=0, shape=(10, 12), n_labels=5):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=4)


def make_solver(kind, model, seed=7):
    sampler = make_backend(kind, FULL_SCALE, seed=seed, config=new_design_config())
    return MCMCSolver(
        model, sampler, GeometricSchedule(2.0, 0.8), init="random", seed=seed
    )


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.energy_history, b.energy_history)
    np.testing.assert_array_equal(a.temperature_history, b.temperature_history)


class TestSolverResume:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_kill_and_resume_matches_oracle(self, kind):
        model = tiny_model()
        oracle = make_solver(kind, model).run(8)

        captured = []
        interrupted = make_solver(kind, model)
        interrupted.run(3, checkpoint_every=3, checkpoint_sink=captured.append)
        assert len(captured) == 1 and captured[0].sweep == 3

        resumed = make_solver(kind, model).run(8, resume=captured[0])
        assert_results_identical(oracle, resumed)

    def test_resume_from_every_checkpoint(self):
        # Not just one cut point: every interval of a chunked run
        # rejoins the oracle trajectory.
        model = tiny_model(seed=3)
        oracle = make_solver("software", model).run(9)
        captured = []
        make_solver("software", model).run(
            9, checkpoint_every=2, checkpoint_sink=captured.append
        )
        assert [c.sweep for c in captured] == [2, 4, 6, 8]
        for checkpoint in captured:
            resumed = make_solver("software", model).run(9, resume=checkpoint)
            assert_results_identical(oracle, resumed)

    def test_on_disk_round_trip(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        oracle = make_solver("new_rsug", model).run(6)
        make_solver("new_rsug", model).run(4, checkpoint_every=2, checkpoint_path=path)
        resumed = make_solver("new_rsug", model).run(6, resume=path)
        assert_results_identical(oracle, resumed)

    def test_corrupt_checkpoint_is_refused(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        make_solver("software", model).run(4, checkpoint_every=2, checkpoint_path=path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(EnvelopeError) as excinfo:
            make_solver("software", model).run(6, resume=path)
        assert excinfo.value.reason == "checksum_mismatch"

    def test_truncated_checkpoint_is_refused(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        make_solver("software", model).run(4, checkpoint_every=2, checkpoint_path=path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(EnvelopeError):
            make_solver("software", model).run(6, resume=path)

    def test_wrong_kind_checkpoint_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=2, checkpoint_sink=captured.append
        )
        ladder = ParallelTempering(
            model,
            lambda i: make_backend("software", FULL_SCALE, seed=50 + i),
            geometric_ladder(0.5, 4.0, 3),
            seed=9,
        )
        with pytest.raises(ConfigError):
            ladder.run(6, resume=captured[0])

    def test_mismatched_sampler_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=2, checkpoint_sink=captured.append
        )
        with pytest.raises(ConfigError):
            make_solver("new_rsug", model).run(8, resume=captured[0])

    def test_exhausted_checkpoint_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        with pytest.raises(ConfigError):
            make_solver("software", model).run(4, resume=captured[0])


def ladder_under_test(model):
    return ParallelTempering(
        model,
        lambda i: make_backend("new_rsug", FULL_SCALE, seed=40 + i),
        geometric_ladder(0.5, 4.0, 3),
        swap_interval=2,
        seed=11,
    )


def assert_tempering_identical(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.energy_history, b.energy_history)
    assert a.swap_attempts == b.swap_attempts
    assert a.swaps_accepted == b.swaps_accepted


class TestTemperingResume:
    @pytest.mark.parametrize("oracle", ["batched", "sequential"])
    def test_kill_and_resume_matches_oracle(self, oracle):
        # "sequential": the uninterrupted oracle is K independent
        # reference chains instead of the batched ladder.
        model = tiny_model(seed=4)
        if oracle == "batched":
            expected = ladder_under_test(model).run(8)
        else:
            expected = run_tempering_reference(ladder_under_test(model), 8)
        captured = []
        ladder_under_test(model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ladder_under_test(model).run(8, resume=captured[0])
        assert_tempering_identical(expected, resumed)

    def test_cross_path_resume(self):
        # A checkpoint taken on the batched ladder resumes in the
        # reference chains — the snapshot holds the complete state.
        model = tiny_model(seed=4)
        oracle = ladder_under_test(model).run(8)
        captured = []
        ladder_under_test(model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = run_tempering_reference(
            ladder_under_test(model), 8, resume=captured[0]
        )
        assert_tempering_identical(oracle, resumed)


def ensemble_under_test(model, chains=3):
    return EnsembleSolver(
        model,
        lambda i: make_backend("software", FULL_SCALE, seed=60 + i),
        GeometricSchedule(2.0, 0.85),
        chains=chains,
        init="random",
        seed=21,
    )


def assert_ensembles_identical(a, b):
    assert a.best_chain == b.best_chain
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.chain_labels, b.chain_labels)
    for x, y in zip(a.energy_histories, b.energy_histories):
        np.testing.assert_array_equal(x, y)


class TestEnsembleResume:
    def test_kill_and_resume_matches_oracle(self):
        model = tiny_model(seed=8)
        oracle = ensemble_under_test(model).run(8)
        captured = []
        ensemble_under_test(model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ensemble_under_test(model).run(8, resume=captured[0])
        assert_ensembles_identical(oracle, resumed)

    def test_cross_path_resume_into_sequential(self):
        # An ensemble snapshot splits into per-chain solver checkpoints;
        # each chain resumes on its own MCMCSolver and matches K
        # independent uninterrupted reference chains.
        model = tiny_model(seed=8)
        oracle = run_ensemble_reference(ensemble_under_test(model), 8)
        captured = []
        ensemble_under_test(model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        snapshot = captured[0]
        resumed = []
        for k, solver in enumerate(ensemble_under_test(model)._solvers):
            chain_checkpoint = SolveCheckpoint(
                kind="solver",
                sweep=snapshot.sweep,
                labels=snapshot.labels[k],
                rng=snapshot.rng["chains"][k],
                history={
                    "energy": snapshot.history["energy"][k],
                    "temperature": snapshot.history["temperature"],
                },
            )
            resumed.append(solver.run(8, resume=chain_checkpoint))
        np.testing.assert_array_equal(
            oracle.chain_labels, np.stack([result.labels for result in resumed])
        )
        for history, result in zip(oracle.energy_histories, resumed):
            assert history == result.energy_history

    def test_single_chain_kill_and_resume_matches_oracle(self):
        # chains=1 sweeps on the batched workspace, so it checkpoints
        # like any ensemble, and it matches the plain solver run.
        model = tiny_model(seed=8)
        oracle = ensemble_under_test(model, chains=1).run(8)
        solo = MCMCSolver(
            model,
            make_backend("software", FULL_SCALE, seed=60),
            GeometricSchedule(2.0, 0.85),
            init="random",
            seed=21,
        ).run(8)
        np.testing.assert_array_equal(oracle.labels, solo.labels)
        assert oracle.energy_histories[0] == solo.energy_history
        captured = []
        ensemble_under_test(model, chains=1).run(
            6, checkpoint_every=2, checkpoint_sink=captured.append
        )
        assert [checkpoint.sweep for checkpoint in captured] == [2, 4, 6]
        for checkpoint in captured[:2]:
            resumed = ensemble_under_test(model, chains=1).run(8, resume=checkpoint)
            assert_ensembles_identical(oracle, resumed)


class TestCheckpointPlumbing:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = SolveCheckpoint(
            kind="solver",
            sweep=3,
            labels=np.arange(12, dtype=np.int64).reshape(3, 4),
            rng={"solver": {"kind": "numpy"}},
            history={"energy": [1.0, 2.0]},
            meta={"shape": (3, 4)},
        )
        path = tmp_path / "x.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == "solver" and loaded.sweep == 3
        np.testing.assert_array_equal(loaded.labels, checkpoint.labels)

    def test_writer_requires_destination(self):
        with pytest.raises(ConfigError):
            CheckpointWriter(2, None, None)

    def test_writer_cadence(self):
        emitted = []
        writer = CheckpointWriter(3, None, emitted.append)
        for completed in range(1, 10):
            writer.maybe_emit(completed, lambda: completed)
        assert emitted == [3, 6, 9]

    def test_disabled_writer_never_emits(self):
        writer = CheckpointWriter(0, None, None)
        writer.maybe_emit(5, lambda: pytest.fail("must not build a snapshot"))

    def test_format_version_gates_load(self, tmp_path):
        checkpoint = SolveCheckpoint(
            kind="solver",
            sweep=1,
            labels=np.zeros((2, 2), dtype=np.int64),
            rng={},
            history={},
            meta={},
        )
        path = tmp_path / "x.ckpt"
        save_checkpoint(checkpoint, path)
        assert CHECKPOINT_FORMAT_VERSION >= 1
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0xFF  # flip the version word
        path.write_bytes(bytes(blob))
        with pytest.raises(EnvelopeError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.reason == "version_mismatch"
