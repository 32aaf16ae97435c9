"""Sweep engine at K=1: byte-identity with the reference path + allocation guard.

The contract under test (see ``repro/mrf/kernel.py``): a solver run —
one chain on the batched sweep workspace — produces *byte-identical*
results to the reference per-sweep pipeline in ``tests/oracles.py`` —
same final label grid, same energy history, same consumption of every
RNG stream — across every backend, tie policy and ``float_time``
setting, and against both the memoized λ-table and the direct per-site
conversion, while performing no large steady-state allocations.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import (
    NoisyTTFSampler,
    RSUMHSampler,
    SampleScratch,
    SoftwareMHSampler,
    TTFSampler,
    label_distance_matrix,
    legacy_design_config,
    new_design_config,
    select_first_to_fire,
    select_first_to_fire_chains_into,
)
from repro.core.rsu import RSUGSampler
from repro.mrf import (
    BatchedSweepWorkspace,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    coloring_masks,
)
from repro.util.errors import DataError
from tests.oracles import first_to_fire, reference_sweep, run_reference

FULL_SCALE = 12.0


def tiny_model(connectivity=4, seed=0, shape=(12, 14), n_labels=6):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=connectivity)


def build_sampler(kind, tie="first", float_time=False, config=None):
    if kind == "software_mh":
        return SoftwareMHSampler(np.random.default_rng(7))
    if kind == "rsu_mh":
        cfg = (config or new_design_config()).with_(tie_policy=tie, float_time=float_time)
        return RSUMHSampler(cfg, FULL_SCALE, np.random.default_rng(7))
    if kind == "rsu":
        cfg = (config or new_design_config()).with_(tie_policy=tie, float_time=float_time)
        return make_backend("rsu", FULL_SCALE, seed=7, config=cfg)
    return make_backend(kind, FULL_SCALE, seed=7)


def run_solver(kind, fused, tie="first", float_time=False, lut=True,
               config=None, connectivity=4, iterations=10, callback=None):
    sampler = build_sampler(kind, tie, float_time, config)
    solver = MCMCSolver(
        tiny_model(connectivity),
        sampler,
        GeometricSchedule(t0=4.0, rate=0.85),
        seed=3,
    )
    if fused:
        return solver.run(iterations, callback=callback)
    return run_reference(solver, iterations, callback=callback, lut=lut)


def assert_fused_matches_reference(**kwargs):
    fused = run_solver(fused=True, **kwargs)
    reference = run_solver(fused=False, **kwargs)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history
    assert fused.temperature_history == reference.temperature_history


# ---------------------------------------------------------------------------
# Byte-identity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tie", ["first", "last", "random"])
@pytest.mark.parametrize("float_time", [False, True])
def test_identity_rsu_tie_and_float_time(tie, float_time):
    assert_fused_matches_reference(kind="rsu", tie=tie, float_time=float_time)


@pytest.mark.parametrize("lut", [True, False])
def test_identity_rsu_lut_switch(lut):
    # The engine always gathers from the memoized λ-table; the reference
    # converts with either the table or the direct per-site exp.
    assert_fused_matches_reference(kind="rsu", lut=lut)


@pytest.mark.parametrize(
    "kind",
    ["software", "greedy", "new_rsug", "prev_rsug", "cdf_ideal", "cdf_lfsr"],
)
def test_identity_non_rsu_backends(kind):
    assert_fused_matches_reference(kind=kind)


@pytest.mark.parametrize("kind", ["software_mh", "rsu_mh"])
def test_identity_mh_backends_via_sample_given_current(kind):
    # MH backends set wants_current_labels: the fused sweep must route
    # them through sample_given_current on the workspace energy buffer.
    assert_fused_matches_reference(kind=kind)


@pytest.mark.parametrize(
    "config",
    [legacy_design_config(), legacy_design_config().with_(clamp_to_tmax=True)],
    ids=["legacy", "legacy_clamped"],
)
def test_identity_legacy_design_points(config):
    assert_fused_matches_reference(kind="rsu", config=config)


@pytest.mark.parametrize("lut", [True, False], ids=["lut", "direct"])
def test_identity_stereo_solve(lut):
    # A stereo-shaped annealed solve: the engine matches the reference
    # sweep with the λ-table and with the direct per-site conversion.
    from repro.apps.stereo import StereoParams, build_stereo_mrf
    from repro.data import load_stereo
    from repro.mrf import geometric_for_span

    params = StereoParams(iterations=20)
    model = build_stereo_mrf(load_stereo("poster", scale=0.2), params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solver():
        sampler = make_backend(
            "rsu", model.max_energy(), seed=3, config=new_design_config()
        )
        return MCMCSolver(model, sampler, schedule, seed=3, track_energy=False)

    engine = solver().run(params.iterations)
    reference = run_reference(solver(), params.iterations, lut=lut)
    np.testing.assert_array_equal(engine.labels, reference.labels)


def test_identity_eight_connectivity():
    assert_fused_matches_reference(kind="rsu", connectivity=8)


def test_identity_with_label_mutating_callback():
    # A callback may rewrite the label grid it is handed; the solver
    # must resynchronize the workspace's padded mirror afterwards.
    def scramble(iteration, labels, temperature):
        if iteration == 3:
            labels[::2, ::3] = 0

    fused = run_solver(kind="rsu", fused=True, callback=scramble)
    reference = run_solver(kind="rsu", fused=False, callback=scramble)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history


def test_noisy_ttf_stage_falls_back_and_stays_identical():
    # A replaced TTF stage overrides sample(); the fused shortcut would
    # bypass the noise injection, so the sampler must fall back to the
    # reference pipeline — and stay byte-identical while doing so.
    def noisy_solver(fused):
        cfg = new_design_config()
        rng = np.random.default_rng(7)
        ttf = NoisyTTFSampler(cfg, rng, dark_prob=0.02, bleed_prob=0.01)
        sampler = RSUGSampler(cfg, FULL_SCALE, rng, ttf_sampler=ttf)
        assert not sampler._ttf_fusable
        solver = MCMCSolver(
            tiny_model(), sampler, GeometricSchedule(4.0, 0.85), seed=3
        )
        return solver.run(8) if fused else run_reference(solver, 8)

    fused = noisy_solver(True)
    reference = noisy_solver(False)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history


# ---------------------------------------------------------------------------
# Stage-level fused equivalence
# ---------------------------------------------------------------------------


def ttf_chains(cfg, codes, seed):
    """``TTFSampler.sample_chains_into`` over ``codes`` (K, sites, labels)
    against K reference ``sample`` calls on same-seeded samplers: the
    bins, and the generators' states afterwards."""
    seeds = [seed + k for k in range(codes.shape[0])]
    chains = [TTFSampler(cfg, np.random.default_rng(s)) for s in seeds]
    out = np.empty(codes.shape, dtype=np.float64 if cfg.float_time else np.int64)
    TTFSampler.sample_chains_into(chains, codes, out, SampleScratch())
    references = [TTFSampler(cfg, np.random.default_rng(s)) for s in seeds]
    expected = np.stack([r.sample(c) for r, c in zip(references, codes)])
    np.testing.assert_array_equal(out, expected)
    for chain, reference in zip(chains, references):
        assert chain.getstate() == reference.getstate()


@pytest.mark.parametrize("chains", [1, 3])
def test_ttf_sample_chains_into_matches_sample(chains):
    cfg = new_design_config()
    codes = np.random.default_rng(5).integers(
        0, cfg.lambda_max_code + 1, (chains, 40, 9)
    )
    ttf_chains(cfg, codes, seed=11)


def test_ttf_sample_preserves_rng_stream():
    # The restructured sample() must consume exactly one
    # rng.random(codes.shape) block per call: after sampling, both
    # generators must be in the same state.
    cfg = new_design_config()
    rng_a = np.random.default_rng(13)
    rng_b = np.random.default_rng(13)
    codes = np.random.default_rng(5).integers(0, cfg.lambda_max_code + 1, (25, 7))
    TTFSampler(cfg, rng_a).sample(codes)
    rng_b.random(codes.shape)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))


@pytest.mark.parametrize("float_time", [False, True])
def test_ttf_sample_chains_into_all_codes_cut_off(float_time):
    cfg = new_design_config().with_(float_time=float_time)
    for chains in (1, 3):
        ttf_chains(cfg, np.zeros((chains, 6, 4), dtype=np.int64), seed=2)


@pytest.mark.parametrize("tie", ["first", "last", "random"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_select_into_matches_reference(tie, dtype):
    rng = np.random.default_rng(3)
    ttf = rng.integers(1, 40, (3, 30, 8)).astype(dtype)
    if dtype == np.float64:
        ttf[rng.random(ttf.shape) < 0.2] = np.inf
        ttf[0, :4] = np.inf  # rows with every label cut off
    for chains in (1, 3):
        seeds = range(9, 9 + chains)
        expected = [
            first_to_fire(ttf[k], tie, np.random.default_rng(s))
            for k, s in enumerate(seeds)
        ]
        out = np.empty((chains, ttf.shape[1]), dtype=np.intp)
        select_first_to_fire_chains_into(
            ttf[:chains], tie, [np.random.default_rng(s) for s in seeds], out,
            SampleScratch(),
        )
        np.testing.assert_array_equal(out, expected)
    single = select_first_to_fire(ttf[0], tie, np.random.default_rng(9))
    np.testing.assert_array_equal(single, expected[0])


def test_sample_scratch_reuses_buffers():
    scratch = SampleScratch()
    first = scratch.buf("a", (4, 5), np.float64)
    again = scratch.buf("a", (4, 5), np.float64)
    assert first is again
    other = scratch.buf("a", (4, 5), np.int64)
    assert other is not first
    assert scratch.nbytes == first.nbytes + other.nbytes


# ---------------------------------------------------------------------------
# Workspace unit behaviour
# ---------------------------------------------------------------------------


def single_chain_workspace(model, masks=None):
    if masks is None:
        masks = coloring_masks(model.shape, model.connectivity)
    return BatchedSweepWorkspace(model, masks, 1)


def test_workspace_class_energies_match_model():
    model = tiny_model()
    masks = coloring_masks(model.shape, model.connectivity)
    workspace = single_chain_workspace(model, masks)
    labels = np.random.default_rng(4).integers(0, model.n_labels, model.shape)
    workspace.bind(labels[np.newaxis])
    for index, mask in enumerate(masks):
        np.testing.assert_array_equal(
            workspace.class_energies(index)[0], model.site_energies(labels, mask)
        )


def test_workspace_rejects_bad_labels():
    model = tiny_model()
    workspace = single_chain_workspace(model)
    with pytest.raises(DataError):
        workspace.bind(np.zeros((1, 3, 3), dtype=np.int64))
    with pytest.raises(DataError):
        workspace.bind(np.zeros(model.shape, dtype=np.int64))  # missing chain axis
    wide = np.zeros((model.shape[0], 2 * model.shape[1]), dtype=np.int64)
    with pytest.raises(DataError):
        workspace.bind(wide[np.newaxis, :, ::2])  # non-contiguous view
    # MCMCSolver.sweep binds the grid as an aliasing view, so it refuses
    # a grid it could not write through.
    solver = MCMCSolver(model, build_sampler("software"), GeometricSchedule(2.0, 0.9))
    with pytest.raises(DataError):
        solver.sweep(wide[:, ::2], 1.0)


def test_workspace_rejects_non_partition_masks():
    model = tiny_model()
    mask = np.zeros(model.shape, dtype=bool)
    mask[0, 0] = True
    with pytest.raises(DataError):
        single_chain_workspace(model, [mask])
    with pytest.raises(DataError):
        single_chain_workspace(model, [np.ones((3, 3), dtype=bool)])


def test_workspace_nbytes_reports_footprint():
    model = tiny_model()
    workspace = single_chain_workspace(model)
    assert workspace.nbytes > model.shape[0] * model.shape[1] * 8


def test_solver_sweep_writes_through_and_matches_reference():
    # The public sweep() binds the caller's grid as a (1, H, W) view and
    # rebinds on every call, so edits between sweeps are seen.
    model = tiny_model()
    solver = MCMCSolver(model, build_sampler("rsu", tie="random"),
                        GeometricSchedule(2.0, 0.9), seed=1)
    reference_sampler = build_sampler("rsu", tie="random")
    labels = solver.initial_labels()
    expected = labels.copy()
    for step in range(4):
        if step == 2:
            labels[::3, ::2] = 1
            expected[::3, ::2] = 1
        assert solver.sweep(labels, 1.5) is labels
        reference_sweep(model, reference_sampler, expected, 1.5)
        np.testing.assert_array_equal(labels, expected)


# ---------------------------------------------------------------------------
# Allocation guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tie", ["first", "random"])
def test_fused_sweeps_allocate_less_than_reference(tie):
    """Steady-state fused sweeps must stay within a small transient
    footprint (the fancy-gather results and, for ``random``, one argsort
    temporary) — far below the reference path's per-sweep allocations."""
    model = tiny_model(shape=(24, 32), n_labels=8)
    per_class_bytes = (model.shape[0] * model.shape[1] // 2) * model.n_labels * 8

    def steady_state_peak(fused):
        cfg = new_design_config().with_(tie_policy=tie)
        sampler = build_sampler("rsu", tie=tie, config=cfg)
        solver = MCMCSolver(
            model, sampler, GeometricSchedule(2.0, 0.9), seed=2,
            track_energy=False,
        )
        labels = solver.initial_labels()
        stacked = labels[np.newaxis]
        solver.workspace.bind(stacked)

        def one_sweep():
            if fused:
                solver.workspace.sweep(stacked, [1.0], [sampler], [False])
            else:
                reference_sweep(model, sampler, labels, 1.0)

        for _ in range(3):  # warm up every scratch buffer and LUT
            one_sweep()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            one_sweep()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak - base

    fused_peak = steady_state_peak(True)
    reference_peak = steady_state_peak(False)
    assert fused_peak < reference_peak
    assert fused_peak <= 4.5 * per_class_bytes, (
        f"fused steady-state peak {fused_peak} exceeds transient budget "
        f"({per_class_bytes} bytes per class buffer)"
    )
