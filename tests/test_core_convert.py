"""Unit tests for the energy-to-lambda conversion stage."""

import numpy as np
import pytest

from repro.core import (
    RSUConfig,
    boundary_table,
    conversion_lut,
    conversion_memory_bits,
    lambda_codes,
    lambda_codes_lut_into,
    legacy_design_config,
    new_design_config,
    stacked_conversion_lut,
)
from repro.util import ConfigError
from tests.oracles import lambda_codes_by_boundaries

NEW = new_design_config()


def codes_for(energy_rows, temperature, config):
    return lambda_codes(np.asarray(energy_rows, dtype=float), temperature, config)


def gather(energies, temperatures, config):
    """:func:`lambda_codes_lut_into` over a ``(K, sites, labels)`` block,
    chain ``k`` at ``temperatures[k]``; the table is shared when every
    chain sits at one temperature, as the sampler passes it."""
    energies = np.array(energies, dtype=np.int64)
    chains, sites, _ = energies.shape
    if len(set(temperatures)) == 1:
        table = conversion_lut(temperatures[0], config)
    else:
        table = stacked_conversion_lut(temperatures, config)
    out = np.empty_like(energies)
    row_min = np.empty((chains * sites, 1), dtype=np.int64)
    return lambda_codes_lut_into(energies, table, config, out, row_min)


class TestScaling:
    def test_min_energy_label_gets_max_code(self):
        codes = codes_for([[40.0, 42.0, 90.0]], 5.0, NEW)
        assert codes[0, 0] == NEW.lambda_max_code

    def test_scaling_is_per_row(self):
        codes = codes_for([[40.0, 60.0], [200.0, 220.0]], 10.0, NEW)
        # Both rows have the same energy differences, so identical codes.
        assert np.array_equal(codes[0], codes[1])

    def test_without_scaling_absolute_energy_matters(self):
        config = NEW.with_(scaling=False, cutoff=False, pow2_lambda=False)
        low = codes_for([[0.0, 1.0]], 10.0, config)
        high = codes_for([[200.0, 201.0]], 10.0, config)
        assert not np.array_equal(low, high)


class TestCutoff:
    def test_cutoff_zeroes_tiny_probabilities(self):
        codes = codes_for([[0.0, 500.0]], 5.0, NEW)
        assert codes[0, 1] == 0

    def test_without_cutoff_rounds_up_to_lambda0(self):
        config = NEW.with_(cutoff=False, pow2_lambda=False)
        codes = codes_for([[0.0, 500.0]], 5.0, config)
        assert codes[0, 1] == 1

    def test_cutoff_boundary_value(self):
        # floor(8 * exp(-E/T)) < 1 exactly when E > T ln 8.
        temperature = 10.0
        threshold = temperature * np.log(8)
        config = NEW.with_(pow2_lambda=False)
        codes = codes_for([[0.0, threshold - 0.5, threshold + 0.5]], temperature, config)
        assert codes[0, 1] == 1
        assert codes[0, 2] == 0


class TestPow2Approximation:
    def test_codes_are_powers_of_two_or_zero(self):
        energies = np.linspace(0, 255, 64)[None, :]
        codes = lambda_codes(energies, 30.0, NEW)
        nonzero = codes[codes > 0]
        assert np.all((nonzero & (nonzero - 1)) == 0)

    def test_unique_codes_bounded_by_lambda_bits(self):
        energies = np.linspace(0, 255, 256)[None, :]
        codes = lambda_codes(energies, 40.0, NEW)
        unique_nonzero = set(np.unique(codes)) - {0}
        assert len(unique_nonzero) <= NEW.unique_lambdas


class TestBoundaryConversion:
    @pytest.mark.parametrize("temperature", [0.7, 1.34, 5.0, 40.0, 200.0])
    def test_matches_lut_conversion_exactly(self, temperature):
        energies = np.arange(256, dtype=float)[None, :]
        lut_codes = lambda_codes(energies, temperature, NEW)
        cmp_codes = lambda_codes_by_boundaries(energies, temperature, NEW)
        assert np.array_equal(lut_codes, cmp_codes)

    def test_boundaries_are_increasing(self):
        bounds = boundary_table(10.0, NEW)
        assert np.all(np.diff(bounds) > 0)

    def test_boundary_count_matches_unique_lambdas(self):
        assert len(boundary_table(10.0, NEW)) == NEW.unique_lambdas

    def test_requires_full_technique_stack(self):
        with pytest.raises(ConfigError):
            boundary_table(10.0, NEW.with_(cutoff=False))


class TestMemoizedLutFastPath:
    """LUT, direct and boundary conversions must agree code for code."""

    DESIGN_GRID = [
        new_design_config(),
        new_design_config(lambda_bits=3),
        new_design_config(lambda_bits=6),
        new_design_config(energy_bits=6),
        new_design_config(cutoff=False),
        new_design_config(scaling=False),
        new_design_config(pow2_lambda=False),
        new_design_config(scaling=False, cutoff=False, pow2_lambda=False),
    ]

    @pytest.mark.parametrize("temperature", [0.7, 1.34, 5.0, 40.0, 200.0])
    def test_lut_matches_direct_across_design_grid(self, temperature):
        rng = np.random.default_rng(7)
        for config in self.DESIGN_GRID:
            energies = rng.integers(
                0, 2 ** config.energy_bits, size=(40, 9), dtype=np.int64
            )
            direct = lambda_codes(energies.astype(float), temperature, config)
            lut = gather(energies[None], [temperature], config)[0]
            assert np.array_equal(direct, lut), (config, temperature)

    @pytest.mark.parametrize("temperature", [0.7, 5.0, 40.0])
    def test_lut_direct_and_boundaries_all_agree(self, temperature):
        energies = np.arange(256, dtype=np.int64)[None, :]
        direct = lambda_codes(energies.astype(float), temperature, NEW)
        lut = gather(energies[None], [temperature], NEW)[0]
        boundaries = lambda_codes_by_boundaries(
            energies.astype(float), temperature, NEW
        )
        assert np.array_equal(direct, lut)
        assert np.array_equal(direct, boundaries)

    def test_table_codes_lie_in_code_range(self):
        """The sweep kernel's TTF stage takes its codes straight from
        these tables without a range check of its own."""
        temperatures = (0.01, 0.7, 5.0, 40.0, 1e6)
        for config in self.DESIGN_GRID + [legacy_design_config()]:
            tables = [conversion_lut(t, config) for t in temperatures]
            tables.append(stacked_conversion_lut(temperatures, config))
            for table in tables:
                assert table.min() >= 0, config
                assert table.max() <= config.lambda_max_code, config

    def test_table_is_memoized_and_readonly(self):
        first = conversion_lut(12.5, NEW)
        second = conversion_lut(12.5, NEW)
        assert first is second
        assert not first.flags.writeable
        assert first.shape == (2 ** NEW.energy_bits,)

    def test_rejects_1d_and_bad_temperature(self):
        # The table is built by lambda_codes, which takes 2-D energies;
        # the builders reject non-positive temperatures themselves.
        with pytest.raises(ConfigError):
            lambda_codes(np.zeros(4), 1.0, NEW)
        with pytest.raises(ConfigError):
            conversion_lut(0.0, NEW)
        with pytest.raises(ConfigError):
            stacked_conversion_lut([1.0, 0.0], NEW)

    def test_sampler_codes_identical_with_and_without_lut(self):
        # The sampler gathers from the table at its quantized
        # temperature; the direct per-site conversion of the same
        # quantized energies must agree.
        from repro.core import RSUGSampler

        energies = np.random.default_rng(11).uniform(0, 9.0, size=(30, 6))
        sampler = RSUGSampler(NEW, 9.0, np.random.default_rng(0))
        quantized = sampler.energy_stage.quantize(energies)
        for temperature in (0.3, 0.05, 2.0):
            t_grid, table = sampler._stage_constants(temperature)
            direct = lambda_codes(quantized, t_grid, NEW)
            codes = np.empty((1,) + quantized.shape, dtype=np.int64)
            lambda_codes_lut_into(
                quantized[None].copy(), table, NEW, codes, np.empty((30, 1), np.int64)
            )
            assert np.array_equal(codes[0], direct)


class TestGather:
    """The one energy-to-code gather against per-chain lambda_codes."""

    CONFIGS = [NEW, NEW.with_(scaling=False), legacy_design_config()]

    @staticmethod
    def per_chain(energies, temperatures, config):
        return np.stack(
            [
                lambda_codes(chain.astype(float), temperature, config)
                for chain, temperature in zip(energies, temperatures)
            ]
        )

    @staticmethod
    def block(chains, seed=3):
        return np.random.default_rng(seed).integers(
            0, 256, size=(chains, 25, 7), dtype=np.int64
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["scaled", "unscaled", "legacy"])
    def test_single_chain(self, config):
        energies = self.block(1)
        assert np.array_equal(
            gather(energies, [6.0], config), self.per_chain(energies, [6.0], config)
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["scaled", "unscaled", "legacy"])
    def test_chains_at_one_shared_temperature(self, config):
        energies = self.block(4)
        temperatures = [9.0] * 4
        assert np.array_equal(
            gather(energies, temperatures, config),
            self.per_chain(energies, temperatures, config),
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["scaled", "unscaled", "legacy"])
    def test_ladder_of_distinct_temperatures(self, config):
        energies = self.block(5)
        temperatures = [0.7, 3.0, 12.0, 40.0, 200.0]
        assert np.array_equal(
            gather(energies, temperatures, config),
            self.per_chain(energies, temperatures, config),
        )

    def test_ladder_chains_with_a_repeated_temperature(self):
        # Two chains at one temperature inside a ladder read the same
        # slice contents from different offsets.
        energies = self.block(3)
        temperatures = [5.0, 5.0, 20.0]
        assert np.array_equal(
            gather(energies, temperatures, NEW),
            self.per_chain(energies, temperatures, NEW),
        )


@pytest.mark.parametrize(
    "config",
    TestMemoizedLutFastPath.DESIGN_GRID + [legacy_design_config()],
    ids=lambda config: (
        f"s{int(config.scaling)}c{int(config.cutoff)}p{int(config.pow2_lambda)}"
        f"-e{config.energy_bits}l{config.lambda_bits}"
    ),
)
@pytest.mark.parametrize("temperature", [0.7, 5.0, 40.0, 200.0])
def test_table_is_the_conversion_of_every_energy(config, temperature):
    # The table, built unscaled, equals lambda_codes of the whole grid
    # under the config's own scaling flag: the row minimum of arange is
    # zero, so scaling shifts nothing and the table is also the
    # previous design's energy-indexed LUT.
    energies = np.arange(2**config.energy_bits, dtype=np.float64)[None, :]
    assert np.array_equal(
        conversion_lut(temperature, config),
        lambda_codes(energies, temperature, config)[0],
    )


class TestLegacyLut:
    """The previous design's LUT is the conversion table of its config."""

    def test_lut_size(self):
        config = NEW.with_(scaling=False, cutoff=False, pow2_lambda=False)
        lut = conversion_lut(50.0, config)
        assert lut.shape == (256,)

    def test_lut_monotonically_nonincreasing(self):
        config = NEW.with_(scaling=False, cutoff=False, pow2_lambda=False)
        lut = conversion_lut(50.0, config)
        assert np.all(np.diff(lut) <= 0)

    def test_lut_never_below_lambda0(self):
        config = NEW.with_(scaling=False, cutoff=False, pow2_lambda=False)
        lut = conversion_lut(5.0, config)
        assert lut.min() == 1


class TestConversionMemory:
    def test_lut_memory_is_1k_bits(self):
        assert conversion_memory_bits(NEW, "lut") == 256 * 4  # the paper's 1024 bits

    def test_boundary_memory_is_32_bits(self):
        assert conversion_memory_bits(NEW, "boundaries") == 4 * 8  # the paper's 32 bits

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            conversion_memory_bits(NEW, "cam")


class TestInputValidation:
    def test_rejects_1d_energy(self):
        with pytest.raises(ConfigError):
            lambda_codes(np.zeros(4), 1.0, NEW)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            lambda_codes(np.zeros((1, 4)), 0.0, NEW)
