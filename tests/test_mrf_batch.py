"""Batched multi-chain execution: byte-identity + allocation guard.

The contract under test (see ``repro/mrf/kernel.py`` and
``repro/mrf/batch.py``): running K chains through one
:class:`BatchedSweepWorkspace` — whether as a parallel tempering ladder
or a multi-seed ensemble — produces *byte-identical* results to K
independent reference chains (``tests/oracles.py``): same label grids,
same energy histories, same swap decisions, same consumption of every
RNG stream.  Checked across backends (a replaced, noisy TTF stage
included), tie policies and connectivities, with the reference chains
converting by the direct per-site ``exp`` rather than the λ-table, plus
a tracemalloc bound on the batched kernel's steady-state allocations.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import (
    NoisyTTFSampler,
    RSUGSampler,
    RSUMHSampler,
    label_distance_matrix,
    new_design_config,
)
from repro.mrf import (
    BatchedSweepWorkspace,
    EnsembleResult,
    EnsembleSolver,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    ParallelTempering,
    coloring_masks,
    geometric_ladder,
)
from repro.util.errors import ConfigError, DataError
from tests.oracles import run_ensemble_reference, run_tempering_reference

FULL_SCALE = 12.0


def tiny_model(connectivity=4, seed=0, shape=(12, 14), n_labels=6):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=connectivity)


def chain_factory(kind, tie="first", base_seed=100):
    """Per-chain sampler factory matching the tempering/ensemble contract."""

    def factory(index):
        if kind == "rsu_mh":
            cfg = new_design_config().with_(tie_policy=tie)
            return RSUMHSampler(cfg, FULL_SCALE, np.random.default_rng(base_seed + index))
        if kind == "rsu":
            cfg = new_design_config().with_(tie_policy=tie)
            return make_backend("rsu", FULL_SCALE, seed=base_seed + index, config=cfg)
        if kind == "noisy_rsu" or (kind == "mixed_ttf" and index % 2 == 0):
            cfg = new_design_config().with_(tie_policy=tie)
            rng = np.random.default_rng(base_seed + index)
            ttf = NoisyTTFSampler(cfg, rng, dark_prob=0.02, bleed_prob=0.01)
            return RSUGSampler(cfg, FULL_SCALE, rng, ttf_sampler=ttf)
        if kind == "mixed_ttf":
            cfg = new_design_config().with_(tie_policy=tie)
            return make_backend("rsu", FULL_SCALE, seed=base_seed + index, config=cfg)
        if kind == "mixed":
            inner = "software" if index % 2 == 0 else "new_rsug"
            return make_backend(inner, FULL_SCALE, seed=base_seed + index)
        return make_backend(kind, FULL_SCALE, seed=base_seed + index)

    return factory


def run_tempering(batched, kind, tie="first", connectivity=4,
                  sweeps=12, swap_interval=2, replicas=4):
    model = tiny_model(connectivity)
    pt = ParallelTempering(
        model,
        chain_factory(kind, tie),
        geometric_ladder(0.3, 2.5, replicas),
        swap_interval=swap_interval,
        seed=3,
    )
    if batched:
        return pt.run(sweeps)
    return run_tempering_reference(pt, sweeps)


def assert_tempering_identical(kind, **kwargs):
    batched = run_tempering(True, kind, **kwargs)
    sequential = run_tempering(False, kind, **kwargs)
    assert np.array_equal(batched.labels, sequential.labels)
    assert batched.energy_history == sequential.energy_history
    assert batched.swap_attempts == sequential.swap_attempts
    assert batched.swaps_accepted == sequential.swaps_accepted


# ---------------------------------------------------------------------------
# Tempering: batched ladder vs K independent reference replicas
# ---------------------------------------------------------------------------


class TestTemperingIdentity:
    @pytest.mark.parametrize(
        "kind", ["software", "rsu", "new_rsug", "cdf_ideal", "noisy_rsu", "mixed_ttf"]
    )
    def test_backends_match(self, kind):
        assert_tempering_identical(kind)

    def test_random_tie_matches(self):
        assert_tempering_identical("rsu", tie="random")

    def test_eight_connectivity_matches(self):
        assert_tempering_identical("rsu", connectivity=8)

    def test_wants_current_backend_matches(self):
        # MH samplers need the sites' current labels; the batched
        # workspace must route them through the per-chain loop.
        assert_tempering_identical("rsu_mh")

    def test_mixed_backend_ladder_matches(self):
        # Heterogeneous chain types cannot share one batched dispatch;
        # the per-chain fallback must still be byte-identical.
        assert_tempering_identical("mixed")

    def test_swap_every_sweep_matches(self):
        assert_tempering_identical("software", swap_interval=1, replicas=5)

    def test_two_replicas_with_odd_rounds(self):
        # K=2 alternating rounds: the odd-aligned round proposes no
        # pairs, which must consume no swap randomness in either path.
        assert_tempering_identical("software", replicas=2, swap_interval=1)

    def test_eight_replica_stereo_ladder_matches(self):
        from repro.apps.stereo import StereoParams, build_stereo_mrf
        from repro.data import load_stereo

        model = build_stereo_mrf(load_stereo("poster", scale=0.06), StereoParams())

        def ladder():
            return ParallelTempering(
                model,
                lambda index: make_backend(
                    "rsu", model.max_energy(), seed=100 + index,
                    config=new_design_config(),
                ),
                geometric_ladder(0.05, 0.6, 8),
                swap_interval=2,
                seed=3,
            )

        batched = ladder().run(8)
        sequential = run_tempering_reference(ladder(), 8)
        assert np.array_equal(batched.labels, sequential.labels)
        assert batched.energy_history == sequential.energy_history
        assert (batched.swap_attempts, batched.swaps_accepted) == (
            sequential.swap_attempts, sequential.swaps_accepted
        )

    def test_swaps_are_actually_exercised(self):
        result = run_tempering(True, "software", sweeps=20, swap_interval=1)
        assert result.swaps_accepted > 0


# ---------------------------------------------------------------------------
# Ensembles: batched restarts vs K independent reference chains
# ---------------------------------------------------------------------------


def ensemble_pair(kind="rsu", chains=5, iterations=10, track_energy=True):
    model = tiny_model()
    schedule = GeometricSchedule(2.0, 0.85)

    def build():
        return EnsembleSolver(
            model, chain_factory(kind), schedule, chains=chains,
            seed=7, track_energy=track_energy,
        )

    batched = build().run(iterations)
    sequential = run_ensemble_reference(build(), iterations)
    return model, schedule, batched, sequential


class TestEnsembleIdentity:
    @pytest.mark.parametrize("kind", ["software", "rsu", "noisy_rsu"])
    def test_matches_sequential_solvers(self, kind):
        _, _, batched, sequential = ensemble_pair(kind)
        assert np.array_equal(batched.chain_labels, sequential.chain_labels)
        assert batched.energy_histories == sequential.energy_histories
        assert batched.best_chain == sequential.best_chain
        assert batched.best_energy == sequential.best_energy

    def test_chain_zero_reproduces_single_solver(self):
        model, schedule, batched, _ = ensemble_pair("rsu")
        solo = MCMCSolver(
            model, chain_factory("rsu")(0), schedule, seed=7, track_energy=True
        ).run(10)
        assert np.array_equal(batched.chain_labels[0], solo.labels)
        assert batched.energy_histories[0] == solo.energy_history
        assert batched.temperature_history == solo.temperature_history

    def test_best_selection_without_energy_tracking(self):
        model, _, batched, sequential = ensemble_pair("rsu", track_energy=False)
        assert np.array_equal(batched.chain_labels, sequential.chain_labels)
        assert batched.best_chain == sequential.best_chain
        # Selection must fall back to explicit energy evaluation.
        assert batched.best_energy == pytest.approx(
            model.total_energy(batched.labels)
        )

    def test_best_result_is_the_lowest_energy_chain(self):
        model, _, batched, _ = ensemble_pair("software")
        finals = [history[-1] for history in batched.energy_histories]
        assert batched.best_energy == min(finals)
        assert batched.best_chain == int(np.argmin(finals))
        solve = batched.best_result()
        assert np.array_equal(solve.labels, batched.labels)
        assert solve.energy_history == batched.energy_histories[batched.best_chain]

    def test_single_chain_runs_batched_and_matches_solver(self):
        # chains=1 runs on the batched workspace too (so it can
        # checkpoint) and is byte-identical to the plain solver run.
        model = tiny_model()
        schedule = GeometricSchedule(2.0, 0.85)
        result = EnsembleSolver(
            model, chain_factory("rsu", tie="random"), schedule, chains=1, seed=7,
        ).run(5)
        assert result.n_chains == 1
        assert result.best_chain == 0
        solo = MCMCSolver(
            model, chain_factory("rsu", tie="random")(0), schedule, seed=7
        ).run(5)
        assert np.array_equal(result.chain_labels[0], solo.labels)
        assert result.energy_histories[0] == solo.energy_history

    def test_validation(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            EnsembleSolver(
                model, chain_factory("software"), GeometricSchedule(2.0, 0.85),
                chains=0,
            )
        ensemble = EnsembleSolver(
            model, chain_factory("software"), GeometricSchedule(2.0, 0.85), chains=2
        )
        with pytest.raises(ConfigError):
            ensemble.run(0)


class TestEnsembleResult:
    def test_properties(self):
        labels = np.zeros((3, 2, 2), dtype=np.int64)
        labels[1] += 1
        result = EnsembleResult(
            chain_labels=labels,
            energy_histories=[[5.0], [3.0], [4.0]],
            temperature_history=[1.0],
            best_chain=1,
            best_energy=3.0,
        )
        assert result.n_chains == 3
        assert np.array_equal(result.labels, labels[1])
        assert result.best_result().final_energy == 3.0


# ---------------------------------------------------------------------------
# Workspace-level checks
# ---------------------------------------------------------------------------


class TestBatchedWorkspace:
    def test_matches_single_chain_workspaces_per_sweep(self):
        """Sweep-by-sweep lockstep against K independent single-chain
        (K=1) workspaces, with a distinct temperature per chain (the
        stacked-LUT path)."""
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        chains = 3
        temps = [0.4, 0.9, 1.7]
        batched_samplers = [chain_factory("rsu")(k) for k in range(chains)]
        single_samplers = [chain_factory("rsu")(k) for k in range(chains)]
        rng = np.random.default_rng(11)
        stacked = rng.integers(0, model.n_labels, size=(chains,) + model.shape,
                               dtype=np.int64)
        singles = [stacked[k:k + 1].copy() for k in range(chains)]
        batched_ws = BatchedSweepWorkspace(model, masks, chains)
        batched_ws.bind(stacked)
        single_ws = [BatchedSweepWorkspace(model, masks, 1) for _ in range(chains)]
        for k in range(chains):
            single_ws[k].bind(singles[k])
        for _ in range(6):
            batched_ws.sweep(stacked, temps, batched_samplers, [False] * chains)
            for k in range(chains):
                single_ws[k].sweep(
                    singles[k], [temps[k]], [single_samplers[k]], [False]
                )
            assert np.array_equal(stacked, np.concatenate(singles))

    def test_bind_rejects_bad_shapes(self):
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        workspace = BatchedSweepWorkspace(model, masks, 2)
        with pytest.raises(DataError):
            workspace.bind(np.zeros(model.shape, dtype=np.int64))
        with pytest.raises(DataError):
            workspace.bind(np.zeros((3,) + model.shape, dtype=np.int64))
        stacked = np.zeros((2,) + model.shape, dtype=np.int64)
        with pytest.raises(DataError):
            workspace.bind(np.asfortranarray(stacked).transpose(0, 2, 1).transpose(0, 2, 1))

    def test_sweep_rejects_wrong_sampler_count(self):
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        workspace = BatchedSweepWorkspace(model, masks, 2)
        stacked = np.zeros((2,) + model.shape, dtype=np.int64)
        with pytest.raises(DataError):
            workspace.sweep(stacked, [1.0], [chain_factory("software")(0)], [False])

    @pytest.mark.parametrize("kind", ["rsu", "software"])
    def test_sweep_rejects_wrong_temperature_count(self, kind):
        # Regression: a 3-chain sweep given one temperature used to run
        # silently on rsu and divide by an unfilled buffer on software.
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        workspace = BatchedSweepWorkspace(model, masks, 3)
        stacked = np.zeros((3,) + model.shape, dtype=np.int64)
        samplers = [chain_factory(kind)(k) for k in range(3)]
        states = [sampler.getstate() for sampler in samplers]
        with pytest.raises(DataError, match="temperatures"):
            workspace.sweep(stacked, [0.5], samplers, [False] * 3)
        with pytest.raises(DataError):
            workspace.sweep(stacked, [0.5] * 4, samplers, [False] * 3)
        # Nothing was drawn or written before the check.
        assert [sampler.getstate() for sampler in samplers] == states
        assert not stacked.any()

    def test_rejects_non_partition_masks(self):
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        with pytest.raises(DataError):
            BatchedSweepWorkspace(model, masks[:1], 2)
        with pytest.raises(ConfigError):
            BatchedSweepWorkspace(model, masks, 0)

    def test_nbytes_reports_buffers(self):
        model = tiny_model()
        masks = coloring_masks(model.shape, model.connectivity)
        small = BatchedSweepWorkspace(model, masks, 2).nbytes
        large = BatchedSweepWorkspace(model, masks, 8).nbytes
        assert 0 < small < large


# ---------------------------------------------------------------------------
# Allocation guard
# ---------------------------------------------------------------------------


def test_batched_sweeps_have_bounded_steady_state_allocations():
    """Steady-state batched sweeps stay within the transient footprint of
    the fancy-gather results — the same budget as the single-chain
    kernel, scaled by the chain count."""
    model = tiny_model(shape=(24, 32), n_labels=8)
    chains = 4
    masks = coloring_masks(model.shape, model.connectivity)
    samplers = [chain_factory("rsu")(k) for k in range(chains)]
    workspace = BatchedSweepWorkspace(model, masks, chains)
    rng = np.random.default_rng(5)
    stacked = rng.integers(0, model.n_labels, size=(chains,) + model.shape,
                           dtype=np.int64)
    workspace.bind(stacked)
    temps = [1.0] * chains
    wants = [False] * chains

    def one_sweep():
        workspace.sweep(stacked, temps, samplers, wants)

    for _ in range(3):  # warm up every scratch buffer and LUT
        one_sweep()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    for _ in range(5):
        one_sweep()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    per_class_bytes = (
        chains * (model.shape[0] * model.shape[1] // 2) * model.n_labels * 8
    )
    assert peak - base <= 4.5 * per_class_bytes, (
        f"batched steady-state peak {peak - base} exceeds transient budget "
        f"({per_class_bytes} bytes per chain-spanning class buffer)"
    )
