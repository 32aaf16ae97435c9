"""Tests for the Metropolis-Hastings sampler backends."""

import numpy as np
import pytest

from repro.core import (
    RSUMHSampler,
    SoftwareMHSampler,
    legacy_design_config,
    new_design_config,
)
from repro.core.mh import SoftwareMHSampler as _SW
from repro.util import ConfigError, DataError
from tests.oracles import rsu_mh_steps


def two_state_energies(n, gap):
    energies = np.zeros((n, 2))
    energies[:, 1] = gap
    return energies


class TestSoftwareMH:
    def test_detailed_balance_two_states(self):
        """Long-run occupancy of a 2-label site matches Boltzmann."""
        temperature, gap = 0.5, 0.4
        backend = SoftwareMHSampler(np.random.default_rng(0), steps_per_update=1)
        n = 20_000
        energies = two_state_energies(n, gap)
        current = np.zeros(n, dtype=np.int64)
        for _ in range(60):
            current = backend.sample_given_current(energies, temperature, current)
        expected = 1.0 / (1.0 + np.exp(-gap / temperature))  # P(label 0)
        assert abs((current == 0).mean() - expected) < 0.02

    def test_zero_temperature_limit_descends(self):
        backend = SoftwareMHSampler(np.random.default_rng(1), steps_per_update=20)
        energies = two_state_energies(500, 5.0)
        current = np.ones(500, dtype=np.int64)
        out = backend.sample_given_current(energies, 1e-3, current)
        assert (out == 0).mean() > 0.95

    def test_standalone_sample_contract(self):
        backend = SoftwareMHSampler(np.random.default_rng(2))
        labels = backend.sample(np.random.default_rng(0).random((10, 4)), 0.5)
        assert labels.shape == (10,)

    def test_rejects_bad_current(self):
        backend = SoftwareMHSampler(np.random.default_rng(3))
        with pytest.raises(DataError):
            backend.sample_given_current(
                np.zeros((4, 2)), 1.0, np.array([0, 1, 2, 0])
            )

    def test_rejects_bad_steps(self):
        with pytest.raises(ConfigError):
            SoftwareMHSampler(np.random.default_rng(0), steps_per_update=0)

    def test_wants_current_labels_flag(self):
        assert _SW.wants_current_labels is True


class TestRSUMH:
    def test_barker_acceptance_two_states(self):
        """First-to-fire acceptance realizes Barker's rule: stationary
        occupancy follows the quantized code ratio."""
        config = new_design_config()
        backend = RSUMHSampler(config, 1.0, np.random.default_rng(4))
        n = 30_000
        # Energies chosen so codes quantize to (8, 2) -> odds 4:1.
        temperature = 0.1
        t_grid = backend.energy_stage.quantized_temperature(temperature)
        gap_grid = t_grid * np.log(8.0 / 2.0)
        gap = gap_grid / backend.energy_stage.grid_max  # back to raw units
        energies = two_state_energies(n, gap)
        current = np.zeros(n, dtype=np.int64)
        for _ in range(50):
            current = backend.sample_given_current(energies, temperature, current)
        share0 = (current == 0).mean()
        assert abs(share0 - 0.8) < 0.05  # 8 / (8 + 2)

    def test_solver_integration(self):
        from repro.core import label_distance_matrix
        from repro.mrf import ConstantSchedule, GridMRF, MCMCSolver

        rng = np.random.default_rng(5)
        unary = rng.random((10, 12, 3))
        model = GridMRF(unary, label_distance_matrix(3, "binary"), 0.2)
        config = new_design_config()
        backend = RSUMHSampler(
            config, model.max_energy(), np.random.default_rng(6), steps_per_update=4
        )
        solver = MCMCSolver(model, backend, ConstantSchedule(0.05), seed=1)
        result = solver.run(30)
        assert result.energy_history[-1] < result.energy_history[0]

    def test_mh_vs_gibbs_quality_on_stereo(self):
        """MH mixes slower but reaches comparable quality with more steps."""
        from repro.apps.stereo import StereoParams, build_stereo_mrf
        from repro.data import load_stereo
        from repro.metrics import bad_pixel_percentage
        from repro.mrf import MCMCSolver, geometric_for_span

        dataset = load_stereo("poster", scale=0.25)
        params = StereoParams(iterations=60)
        model = build_stereo_mrf(dataset, params)
        config = new_design_config()
        backend = RSUMHSampler(
            config, model.max_energy(), np.random.default_rng(7), steps_per_update=8
        )
        schedule = geometric_for_span(params.t0, params.t_final, params.iterations)
        solver = MCMCSolver(model, backend, schedule, seed=2, track_energy=False)
        labels = solver.run(params.iterations).labels
        bp = bad_pixel_percentage(labels, dataset.gt_disparity)
        assert bp < 40.0  # converges to a sensible map


@pytest.mark.parametrize(
    "config",
    [
        new_design_config(),
        new_design_config(scaling=False),
        new_design_config(tie_policy="random"),
        legacy_design_config(),
    ],
    ids=["new", "unscaled", "random_ties", "legacy"],
)
@pytest.mark.parametrize("temperature", [0.05, 0.4, 3.0])
def test_rsu_mh_table_gather_matches_direct_conversion(config, temperature):
    # The accept step gathers its pair codes from the memoized table;
    # the per-step direct conversion must give the same labels and leave
    # the generator in the same state.
    energies = np.random.default_rng(5).uniform(0.0, 9.0, size=(200, 7))
    current = np.random.default_rng(6).integers(0, 7, size=200)

    def sampler():
        return RSUMHSampler(config, 9.0, np.random.default_rng(9), steps_per_update=3)

    table, direct = sampler(), sampler()
    labels = table.sample_given_current(energies, temperature, current)
    expected = rsu_mh_steps(direct, energies, temperature, current)
    np.testing.assert_array_equal(labels, expected)
    assert table.getstate() == direct.getstate()
