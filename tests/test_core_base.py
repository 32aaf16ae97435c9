"""Unit tests for the sampler-backend contract and first-to-fire selection."""

import numpy as np
import pytest

from repro.core import SamplerBackend, SampleScratch, select_first_to_fire
from repro.util import DataError
from repro.util.errors import ConfigError


class _Constant(SamplerBackend):
    name = "constant"

    def _sample_batch(self, energies, temperature):
        return np.zeros(energies.shape[0], dtype=np.int64)


class _Kernel(SamplerBackend):
    name = "kernel"
    calls = []

    @classmethod
    def sample_chains_into(cls, samplers, energies, temperatures, out, scratch):
        cls.calls.append((energies.shape, tuple(temperatures)))
        out[...] = 1
        return out


class _NoDraw(SamplerBackend):
    name = "no-draw"


class TestSampleContract:
    def test_validates_shape(self):
        with pytest.raises(DataError):
            _Constant().sample(np.zeros(3), 1.0)

    def test_validates_temperature(self):
        with pytest.raises(ConfigError):
            _Constant().sample(np.zeros((2, 3)), 0.0)

    def test_returns_int64(self):
        out = _Constant().sample(np.zeros((2, 3)), 1.0)
        assert out.dtype == np.int64 and out.shape == (2,)

    def test_kernel_backend_serves_sample_as_its_one_chain_case(self):
        _Kernel.calls.clear()
        out = _Kernel().sample(np.zeros((2, 3)), 0.5)
        assert out.tolist() == [1, 1] and out.dtype == np.int64
        assert _Kernel.calls == [((1, 2, 3), (0.5,))]

    def test_base_chain_loop_draws_through_sample(self):
        out = np.full((2, 3), 7, dtype=np.int64)
        SamplerBackend.sample_chains_into(
            [_Constant(), _Constant()], np.ones((2, 3, 4)), [1.0, 2.0], out,
            SampleScratch(),
        )
        assert out.tolist() == [[0, 0, 0], [0, 0, 0]]

    def test_backend_without_a_draw_fails_clearly(self):
        with pytest.raises(NotImplementedError, match="neither"):
            _NoDraw().sample(np.zeros((2, 3)), 1.0)
        with pytest.raises(NotImplementedError, match="neither"):
            SamplerBackend.sample_chains_into(
                [_NoDraw()], np.zeros((1, 2, 3)), [1.0],
                np.empty((1, 2), dtype=np.int64), SampleScratch(),
            )


class TestSelection:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_unique_minimum_wins_any_policy(self):
        ttf = np.array([[5, 2, 9], [1, 3, 3]])
        for policy in ("first", "last", "random"):
            winners = select_first_to_fire(ttf, policy, self.rng)
            assert winners.tolist() == [1, 0]

    def test_tie_first_policy(self):
        ttf = np.array([[4, 4, 7]])
        assert select_first_to_fire(ttf, "first", self.rng)[0] == 0

    def test_tie_last_policy(self):
        ttf = np.array([[4, 4, 7]])
        assert select_first_to_fire(ttf, "last", self.rng)[0] == 1

    def test_tie_random_policy_is_roughly_uniform(self):
        ttf = np.tile([3, 3], (20_000, 1))
        winners = select_first_to_fire(ttf, "random", self.rng)
        share = winners.mean()
        assert 0.47 < share < 0.53

    def test_unknown_policy_rejected(self):
        with pytest.raises(DataError):
            select_first_to_fire(np.array([[1, 2]]), "coinflip", self.rng)

    def test_float_ttf_supported(self):
        ttf = np.array([[0.5, 0.2], [np.inf, 1.0]])
        winners = select_first_to_fire(ttf, "first", self.rng)
        assert winners.tolist() == [1, 1]

    def test_all_infinite_row_respects_random_policy(self):
        ttf = np.full((10_000, 2), np.inf)
        winners = select_first_to_fire(ttf, "random", self.rng)
        assert 0.45 < winners.mean() < 0.55
