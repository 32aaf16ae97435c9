"""Tests for parallel tempering."""

import numpy as np
import pytest

from repro.core import NewRSUG, SoftwareSampler, label_distance_matrix
from repro.mrf import GridMRF
from repro.mrf.tempering import ParallelTempering, TemperingResult, geometric_ladder
from repro.util import ConfigError


def frustrated_model(h=8, w=8, m=2, seed=0):
    """A two-basin Potts problem: deep local minima trap cold chains."""
    rng = np.random.default_rng(seed)
    unary = rng.random((h, w, m)) * 0.2
    # Strong smoothing makes half-and-half states metastable.
    return GridMRF(unary, label_distance_matrix(m, "binary"), weight=0.5)


def software_factory(base_seed=100):
    def factory(index):
        return SoftwareSampler(np.random.default_rng(base_seed + index))

    return factory


class TestLadder:
    def test_geometric_spacing(self):
        ladder = geometric_ladder(0.1, 0.8, 4)
        assert len(ladder) == 4
        assert ladder[0] == pytest.approx(0.1)
        assert ladder[-1] == pytest.approx(0.8)
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_validation(self):
        with pytest.raises(ConfigError):
            geometric_ladder(0.5, 0.1, 3)
        with pytest.raises(ConfigError):
            geometric_ladder(0.1, 0.5, 1)


class TestConstruction:
    def test_rejects_bad_ladders(self):
        model = frustrated_model()
        with pytest.raises(ConfigError):
            ParallelTempering(model, software_factory(), [0.5])
        with pytest.raises(ConfigError):
            ParallelTempering(model, software_factory(), [0.5, 0.4])
        with pytest.raises(ConfigError):
            ParallelTempering(model, software_factory(), [0.2, 0.5], swap_interval=0)


class TestRun:
    def test_histories_and_swap_accounting(self):
        model = frustrated_model()
        pt = ParallelTempering(
            model, software_factory(), geometric_ladder(0.05, 0.6, 3), seed=1
        )
        result = pt.run(20)
        assert len(result.energy_history) == 20
        assert all(len(row) == 3 for row in result.energy_history)
        assert result.swap_attempts > 0
        assert 0.0 <= result.swap_rate <= 1.0

    def test_swaps_do_happen_with_close_temperatures(self):
        model = frustrated_model()
        pt = ParallelTempering(
            model, software_factory(), [0.3, 0.32, 0.34], seed=2
        )
        result = pt.run(30)
        assert result.swap_rate > 0.5  # near-equal temperatures swap freely

    def test_cold_chain_reaches_low_energy(self):
        model = frustrated_model(seed=3)
        pt = ParallelTempering(
            model, software_factory(), geometric_ladder(0.02, 0.5, 4), seed=3
        )
        result = pt.run(40)
        # Compare against a single cold chain with the same budget.
        from repro.mrf import ConstantSchedule, MCMCSolver

        single = MCMCSolver(
            model,
            SoftwareSampler(np.random.default_rng(200)),
            ConstantSchedule(0.02),
            init="random",
            seed=3,
        ).run(40)
        assert result.final_energy <= single.final_energy + 1.0

    def test_runs_on_rsu_backends(self):
        model = frustrated_model(seed=4)

        def rsu_factory(index):
            return NewRSUG(model.max_energy(), np.random.default_rng(300 + index))

        pt = ParallelTempering(
            model, rsu_factory, geometric_ladder(0.03, 0.4, 3), seed=4
        )
        result = pt.run(15)
        assert result.labels.shape == model.shape

    def test_rejects_zero_sweeps(self):
        model = frustrated_model()
        pt = ParallelTempering(model, software_factory(), [0.1, 0.3], seed=0)
        with pytest.raises(ConfigError):
            pt.run(0)

    def test_result_swap_rate_empty(self):
        result = TemperingResult(
            labels=np.zeros((2, 2)), temperatures=[0.1, 0.2], energy_history=[[0, 0]]
        )
        assert result.swap_rate == 0.0


class TestSwapProbability:
    """The acceptance exponent is clamped before exp, so extreme ladders
    can never overflow and favourable swaps accept with probability 1."""

    def test_favourable_swap_is_certain(self):
        from repro.mrf import swap_log_alpha, swap_probability

        assert swap_log_alpha(0.1, 0.5, 10.0, 2.0) > 0
        assert swap_probability(0.1, 0.5, 10.0, 2.0) == 1.0

    def test_huge_positive_log_alpha_does_not_overflow(self):
        from repro.mrf import swap_log_alpha, swap_probability

        # (1/1e-3 - 1/1e3) * 2e6 ~ 2e9: exp() of that would raise
        # OverflowError without the clamp.
        assert swap_log_alpha(1e-3, 1e3, 1e6, -1e6) > 1e8
        assert swap_probability(1e-3, 1e3, 1e6, -1e6) == 1.0

    def test_huge_negative_log_alpha_underflows_to_zero(self):
        from repro.mrf import swap_probability

        assert swap_probability(1e-3, 1e3, -1e6, 1e6) == 0.0

    def test_moderate_penalty_matches_exp(self):
        import math

        from repro.mrf import swap_probability

        t_cold, t_hot, e_cold, e_hot = 0.2, 0.4, 3.0, 5.0
        expected = math.exp((1 / t_cold - 1 / t_hot) * (e_cold - e_hot))
        assert swap_probability(t_cold, t_hot, e_cold, e_hot) == pytest.approx(expected)

    def test_accept_swap_uses_clamped_log_alpha(self):
        model = frustrated_model()
        pt = ParallelTempering(model, software_factory(), [1e-3, 1e3], seed=0)
        # A wildly favourable swap must be accepted deterministically —
        # and must not overflow on the way.
        result = TemperingResult(labels=None, temperatures=pt.temperatures,
                                 energy_history=[])
        energies = [1e6, -1e6]
        assert pt._swap_round(0, energies, result) == [0]
        assert energies == [-1e6, 1e6]
        assert (result.swap_attempts, result.swaps_accepted) == (1, 1)
        # The round compares against the same clamped log-alpha the
        # public helper exposes: a hopeless swap is refused.
        from repro.mrf import swap_log_alpha

        assert swap_log_alpha(1e-3, 1e3, -1e6, 1e6) < -1e8
        assert pt._swap_round(0, [-1e6, 1e6], result) == []
        assert (result.swap_attempts, result.swaps_accepted) == (2, 1)
