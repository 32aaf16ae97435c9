"""RSU-G functional simulators: the new design and the previous one.

These backends replace the float sampling inner loop of the MCMC solver
with bit-accurate RSU-G semantics: quantize the energy
(``Energy_bits``), convert it to an integer decay-rate code
(``Lambda_bits`` with optional scaling / cut-off / 2^n approximation),
draw a binned exponential TTF (``Time_bits``, ``Truncation``) per
label, and select the first label to fire.

The reference :meth:`~SamplerBackend.sample` allocates its
intermediates; the fused :meth:`RSUGSampler.sample_chains_into` used by
the sweep engine (and :meth:`RSUGSampler.sample_into` for one chain)
chains quantize -> LUT gather -> TTF -> first-to-fire through reusable
workspace buffers.  All are byte-identical, including RNG consumption.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.base import (
    SamplerBackend,
    SampleScratch,
    record_sampler_batch,
    select_first_to_fire,
    select_first_to_fire_chains_into,
    select_first_to_fire_into,
)
from repro.core.convert import (
    conversion_lut,
    lambda_codes_lut,
    lambda_codes_lut_into,
    lambda_codes_lut_stacked_into,
    stacked_conversion_lut,
)
from repro.core.energy import EnergyStage
from repro.core.params import RSUConfig, legacy_design_config, new_design_config
from repro.core.ttf import TTFSampler
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import DataError
from repro.util.validation import check_positive


class RSUGSampler(SamplerBackend):
    """Functional model of an RSU-G unit with an arbitrary design point.

    Parameters
    ----------
    config:
        The design point to simulate (see :class:`RSUConfig`).
    energy_full_scale:
        Raw energy mapping to the top of the ``Energy_bits`` grid;
        applications derive it from their MRF model's maximum energy.
    rng:
        Generator supplying the RET entropy (and random tie-breaks).
    ttf_sampler:
        Optional replacement for the RET-circuit stage model, e.g. a
        :class:`repro.core.nonideal.NoisyTTFSampler` for failure
        injection.  Defaults to the ideal :class:`TTFSampler`.

    The λ-conversion always gathers from the memoized
    :func:`~repro.core.convert.conversion_lut`, which is bit-identical
    to the direct :func:`~repro.core.convert.lambda_codes` conversion by
    construction.
    """

    name = "rsu"

    def __init__(
        self,
        config: RSUConfig,
        energy_full_scale: float,
        rng: np.random.Generator,
        ttf_sampler: Optional[TTFSampler] = None,
    ):
        self.config = config
        self.energy_stage = EnergyStage(config.energy_bits, energy_full_scale)
        self._ttf = ttf_sampler if ttf_sampler is not None else TTFSampler(config, rng)
        self._rng = rng
        # The fused path may only shortcut the TTF stage when the ideal
        # sampler semantics apply; a replacement stage (noise injection,
        # fault models) overriding ``sample`` must keep its own path.
        self._ttf_fusable = type(self._ttf).sample is TTFSampler.sample
        # Per-temperature stage constants, hoisted out of the
        # per-colour-class loop: one annealing step touches the quantized
        # temperature and conversion table twice (once per checkerboard
        # class) with identical values.
        self._stage_cache: Optional[Tuple[float, float, np.ndarray]] = None

    def getstate(self) -> dict:
        """Snapshot the selection rng and the TTF stage's entropy stream.

        The two are usually one shared :class:`numpy.random.Generator`;
        both snapshots are taken at the same instant, so restoring both
        is correct whether or not they alias.
        """
        return {"rng": generator_state(self._rng), "ttf": self._ttf.getstate()}

    def setstate(self, state: dict) -> None:
        set_generator_state(self._rng, state["rng"])
        self._ttf.setstate(state["ttf"])

    def _stage_constants(self, temperature: float) -> Tuple[float, np.ndarray]:
        """(grid temperature, conversion table) for this call."""
        cached = self._stage_cache
        if cached is not None and cached[0] == temperature:
            return cached[1], cached[2]
        t_grid = self.energy_stage.quantized_temperature(temperature)
        table = conversion_lut(t_grid, self.config)
        self._stage_cache = (temperature, t_grid, table)
        return t_grid, table

    def codes_for(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Decay-rate codes the unit would use (exposed for analysis)."""
        quantized = self.energy_stage.quantize(energies)
        t_grid = self.energy_stage.quantized_temperature(temperature)
        return lambda_codes_lut(quantized, t_grid, self.config)

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        codes = self.codes_for(energies, temperature)
        ttf = self._ttf.sample(codes)
        return select_first_to_fire(ttf, self.config.tie_policy, self._rng)

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Fused RSU pipeline through workspace buffers (byte-identical).

        quantize -> LUT gather -> TTF -> select, with zero steady-state
        allocations beyond the gather results.  A replaced TTF stage
        (e.g. noise injection) falls back to the reference path
        wholesale so its semantics are preserved.
        """
        if not self._ttf_fusable:
            return super().sample_into(energies, temperature, out, scratch)
        if energies.ndim != 2 or energies.shape[1] < 1 or energies.shape[0] < 1:
            raise DataError(
                f"energies must be (n_sites, n_labels), got shape {energies.shape}"
            )
        check_positive("temperature", temperature)
        record_sampler_batch(energies.shape[0])
        temperature = float(temperature)
        _, table = self._stage_constants(temperature)
        shape = energies.shape
        work = scratch.buf("rsu_quantize_work", shape, np.float64)
        quantized = scratch.buf("rsu_quantized", shape, np.int64)
        self.energy_stage.quantize_into(energies, quantized, work)
        codes = scratch.buf("rsu_codes", shape, np.int64)
        row_min = scratch.buf("rsu_row_min", (shape[0], 1), np.int64)
        lambda_codes_lut_into(quantized, table, self.config, codes, row_min)
        ttf = scratch.buf("rsu_ttf", shape, self._ttf_dtype(shape[1]))
        self._ttf.sample_into(codes, ttf, scratch)
        return select_first_to_fire_into(
            ttf, self.config.tie_policy, self._rng, out, scratch
        )

    def _ttf_dtype(self, n_labels: int):
        """Output dtype of the fused TTF stage.

        Bins and selection keys are tiny integers; the integer stages
        run in int32 when ``ttf * n_labels + order`` provably fits —
        half the memory traffic, identical values, so the selected
        labels are unchanged.
        """
        if self.config.float_time:
            return np.float64
        key_bound = (self.config.time_bins + 2 + 1) * n_labels
        return np.int32 if key_bound < 2**31 else np.int64

    @classmethod
    def sample_chains_into(
        cls,
        samplers,
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Chain-batched RSU pipeline over a ``(K, sites, labels)`` block.

        quantize -> λ-LUT gather -> TTF -> first-to-fire, each stage run
        once over the stacked block with one RNG stream per chain.  The
        energy quantization is elementwise; the LUT gather uses the
        shared table when every chain sits at one grid temperature
        (ensembles) and a :func:`stacked_conversion_lut` with per-chain
        index offsets when the ladder differs (tempering); the TTF and
        selection stages fill per-chain entropy slabs and batch the
        rest.  Byte-identical to K sequential :meth:`sample_into` calls.

        Chains whose design points differ — different config, energy
        stage or replaced TTF stage — fall back to the base per-chain
        loop, which is byte-identical by the :meth:`sample_into`
        contract.  A single chain (one solve) skips the comparison.
        """
        first = samplers[0]
        compatible = first._ttf_fusable and all(
            sampler._ttf_fusable
            and sampler.config == first.config
            and sampler.energy_stage == first.energy_stage
            and sampler._ttf.config == first._ttf.config
            for sampler in samplers[1:]
        )
        if not compatible:
            return super().sample_chains_into(
                samplers, energies, temperatures, out, scratch
            )
        if energies.ndim != 3 or energies.shape[2] < 1 or energies.shape[1] < 1:
            raise DataError(
                f"energies must be (chains, n_sites, n_labels), got shape {energies.shape}"
            )
        for temperature in temperatures:
            check_positive("temperature", temperature)
        constants = [
            sampler._stage_constants(float(temperature))
            for sampler, temperature in zip(samplers, temperatures)
        ]
        shape = energies.shape
        flat_rows = shape[0] * shape[1]
        record_sampler_batch(flat_rows)
        work = scratch.buf("rsu_quantize_work", shape, np.float64)
        quantized = scratch.buf("rsu_quantized", shape, np.int64)
        first.energy_stage.quantize_into(energies, quantized, work)
        codes = scratch.buf("rsu_codes", shape, np.int64)
        row_min = scratch.buf("rsu_row_min", (flat_rows, 1), np.int64)
        t_grid, table = constants[0]
        if all(other == t_grid for other, _ in constants[1:]):
            # One grid temperature (a single solve, multi-seed
            # ensembles): every chain gathers from the same memoized
            # table, so the whole block flattens to one 2-D gather.
            lambda_codes_lut_into(
                quantized.reshape(flat_rows, shape[2]),
                table,
                first.config,
                codes.reshape(flat_rows, shape[2]),
                row_min,
            )
        else:
            table = stacked_conversion_lut(
                [t_grid for t_grid, _ in constants], first.config
            )
            lambda_codes_lut_stacked_into(
                quantized, table, first.config, codes, row_min
            )
        ttf = scratch.buf("rsu_ttf", shape, first._ttf_dtype(shape[2]))
        TTFSampler.sample_chains_into(
            [sampler._ttf for sampler in samplers], codes, ttf, scratch
        )
        return select_first_to_fire_chains_into(
            ttf,
            first.config.tie_policy,
            [sampler._rng for sampler in samplers],
            out,
            scratch,
        )


class NewRSUG(RSUGSampler):
    """The paper's new design point (Sec. III-D / IV)."""

    name = "new_rsug"

    def __init__(self, energy_full_scale: float, rng: np.random.Generator, **overrides):
        super().__init__(new_design_config(**overrides), energy_full_scale, rng)


class LegacyRSUG(RSUGSampler):
    """The previously proposed design (Wang et al. 2016 semantics)."""

    name = "prev_rsug"

    def __init__(self, energy_full_scale: float, rng: np.random.Generator, **overrides):
        super().__init__(legacy_design_config(**overrides), energy_full_scale, rng)
