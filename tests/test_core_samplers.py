"""Unit tests for the sampler backends (software, RSU-G, CDF).

``SamplerBackend.sample`` serves every kernel backend through its
chain-batched draw, so these distribution checks run the code the
sweeps run.
"""

import numpy as np
import pytest

from repro.core import (
    CDFSampler,
    GreedySampler,
    LegacyRSUG,
    NewRSUG,
    RSUGSampler,
    SoftwareSampler,
    new_design_config,
)
from repro.rng import LFSR, MT19937, NumpyBitSource
from repro.rng.streams import LFSRBitSource, MTBitSource
from repro.util import ConfigError
from tests.oracles import cdf_weights


def softmax(energies, temperature):
    logits = -np.asarray(energies) / temperature
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


class TestSoftwareSampler:
    def test_matches_softmax_distribution(self):
        energies = np.array([0.0, 1.0, 2.0])
        temperature = 1.0
        backend = SoftwareSampler(np.random.default_rng(0))
        labels = backend.sample(np.tile(energies, (100_000, 1)), temperature)
        empirical = np.bincount(labels, minlength=3) / len(labels)
        assert np.allclose(empirical, softmax(energies, temperature), atol=0.01)

    def test_low_temperature_concentrates_on_minimum(self):
        backend = SoftwareSampler(np.random.default_rng(0))
        labels = backend.sample(np.tile([5.0, 0.0, 5.0], (2000, 1)), 1e-3)
        assert np.all(labels == 1)

    def test_handles_huge_energies_without_overflow(self):
        backend = SoftwareSampler(np.random.default_rng(0))
        labels = backend.sample(np.array([[1e9, 1e9 + 1.0]]), 1.0)
        assert labels[0] in (0, 1)


class TestGreedySampler:
    def test_picks_argmin(self):
        labels = GreedySampler().sample(np.array([[3.0, 1.0, 2.0]]), 1.0)
        assert labels.tolist() == [1]


class TestRSUGSampler:
    def test_new_design_tracks_softmax_roughly(self):
        energies = np.array([0.0, 0.05, 0.4])
        temperature = 0.1
        backend = NewRSUG(energy_full_scale=1.0, rng=np.random.default_rng(1))
        labels = backend.sample(np.tile(energies, (50_000, 1)), temperature)
        empirical = np.bincount(labels, minlength=3) / len(labels)
        exact = softmax(energies, temperature)
        # Coarse lambda quantization: same ordering, same ballpark.
        assert np.argmax(empirical) == np.argmax(exact)
        assert abs(empirical[0] - exact[0]) < 0.2

    def test_minimum_energy_label_always_selectable(self):
        backend = NewRSUG(energy_full_scale=1.0, rng=np.random.default_rng(2))
        labels = backend.sample(np.tile([0.0, 0.9, 0.9], (500, 1)), 0.001)
        assert np.all(labels == 0)

    def test_legacy_uniform_when_all_energies_large(self):
        # Without scaling, large absolute energies collapse every label
        # to lambda0 -> near-uniform sampling (the paper's failure mode).
        backend = LegacyRSUG(energy_full_scale=255.0, rng=np.random.default_rng(3))
        labels = backend.sample(np.tile([200.0, 210.0, 220.0], (60_000, 1)), 5.0)
        empirical = np.bincount(labels, minlength=3) / len(labels)
        assert np.all(np.abs(empirical - 1 / 3) < 0.02)

    def test_custom_config_respected(self):
        config = new_design_config(lambda_bits=6)
        backend = RSUGSampler(config, 1.0, np.random.default_rng(0))
        assert backend.config.lambda_max_code == 32

    def test_deterministic_given_seed(self):
        energies = np.random.default_rng(9).random((50, 4))
        a = NewRSUG(1.0, np.random.default_rng(5)).sample(energies, 0.1)
        b = NewRSUG(1.0, np.random.default_rng(5)).sample(energies, 0.1)
        assert np.array_equal(a, b)


class TestCDFSampler:
    def test_ideal_source_matches_quantized_softmax(self):
        energies = np.array([0.0, 0.2, 0.6])
        temperature = 0.2
        backend = CDFSampler(
            NumpyBitSource(np.random.default_rng(0)), energy_full_scale=1.0
        )
        labels = backend.sample(np.tile(energies, (80_000, 1)), temperature)
        empirical = np.bincount(labels, minlength=3) / len(labels)
        expected = cdf_weights(backend, energies[None, :], temperature)[0]
        expected = expected / expected.sum()
        assert np.allclose(empirical, expected, atol=0.01)

    def test_lfsr_and_mt_sources_work(self):
        energies = np.tile([0.0, 0.5], (512, 1))
        for source in (
            LFSRBitSource(LFSR(width=19, seed=7)),
            MTBitSource(MT19937(7)),
        ):
            labels = CDFSampler(source, energy_full_scale=1.0).sample(energies, 0.3)
            assert set(np.unique(labels)).issubset({0, 1})

    def test_weight_bits_quantization(self):
        backend = CDFSampler(
            NumpyBitSource(np.random.default_rng(0)),
            energy_full_scale=1.0,
            weight_bits=4,
        )
        weights = cdf_weights(backend, np.array([[0.0, 0.1, 0.9]]), 0.2)
        assert weights.max() == 15
        assert np.all(weights == np.rint(weights))

    def test_rejects_bad_weight_bits(self):
        with pytest.raises(ConfigError):
            CDFSampler(NumpyBitSource(np.random.default_rng(0)), weight_bits=0)
