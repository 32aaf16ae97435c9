"""Metropolis-Hastings sampler backends.

The paper's future work includes "extending the samplers to support
more than Gibbs sampling" (Sec. IV-D).  Single-site Metropolis-Hastings
is the natural next step: propose a uniformly random label, accept with
probability ``min(1, exp(-(E_new - E_cur) / T))``.  On RSU hardware the
acceptance test is a two-competitor first-to-fire between decay rates
``lambda_cur`` and ``lambda_new`` — exactly the machinery the unit
already has — so :class:`RSUMHSampler` reuses the quantized conversion
and TTF stages for the accept step.  First-to-fire acceptance realizes
Barker's rule ``lambda_new / (lambda_cur + lambda_new)``, which also
satisfies detailed balance.

MH backends set ``wants_current_labels``; the MCMC solver then supplies
each site's current label via :meth:`sample_given_current`.  Each MH
update evaluates only 2 labels instead of M, trading mixing speed for
per-update cost.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import SamplerBackend, select_first_to_fire
from repro.core.convert import conversion_lut, lambda_codes_lut_into
from repro.core.energy import EnergyStage
from repro.core.params import RSUConfig
from repro.core.ttf import TTFSampler
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError, DataError


class SoftwareMHSampler(SamplerBackend):
    """Float single-site Metropolis-Hastings with uniform proposals."""

    name = "software_mh"
    wants_current_labels = True

    def __init__(self, rng: np.random.Generator, steps_per_update: int = 1):
        if steps_per_update < 1:
            raise ConfigError(f"steps_per_update must be >= 1, got {steps_per_update}")
        self._rng = rng
        self.steps_per_update = steps_per_update

    def getstate(self) -> dict:
        return {"rng": generator_state(self._rng)}

    def setstate(self, state: dict) -> None:
        set_generator_state(self._rng, state["rng"])

    def sample_given_current(
        self, energies: np.ndarray, temperature: float, current: np.ndarray
    ) -> np.ndarray:
        """Run MH steps from the sites' current labels."""
        arr = np.asarray(energies, dtype=np.float64)
        cur = np.asarray(current, dtype=np.int64).copy()
        if arr.ndim != 2 or cur.shape != (arr.shape[0],):
            raise DataError("energies must be (N, M) with current of shape (N,)")
        if cur.min() < 0 or cur.max() >= arr.shape[1]:
            raise DataError("current labels out of range")
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        return self._steps(arr, float(temperature), cur)

    def _steps(
        self, energies: np.ndarray, temperature: float, current: np.ndarray
    ) -> np.ndarray:
        n, m = energies.shape
        rows = np.arange(n)
        for _ in range(self.steps_per_update):
            proposal = self._rng.integers(0, m, size=n)
            delta = energies[rows, proposal] - energies[rows, current]
            accept = self._rng.random(n) < np.exp(np.minimum(0.0, -delta / temperature))
            current = np.where(accept, proposal, current)
        return current

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        # Standalone use (no solver-provided state): start from argmin.
        start = np.argmin(energies, axis=1).astype(np.int64)
        return self._steps(energies, temperature, start)


class RSUMHSampler(SoftwareMHSampler):
    """MH whose accept step runs on RSU first-to-fire hardware.

    The acceptance comparison draws one binned TTF at the current
    label's decay-rate code and one at the proposal's; the proposal is
    accepted when it fires first — Barker acceptance
    ``lambda_new / (lambda_cur + lambda_new)`` up to the timing
    quantization the rest of the paper characterizes.
    """

    name = "rsu_mh"

    def __init__(
        self,
        config: RSUConfig,
        energy_full_scale: float,
        rng: np.random.Generator,
        steps_per_update: int = 1,
    ):
        super().__init__(rng, steps_per_update)
        self.config = config
        self.energy_stage = EnergyStage(config.energy_bits, energy_full_scale)
        self._ttf = TTFSampler(config, rng)

    def getstate(self) -> dict:
        state = super().getstate()
        state["ttf"] = self._ttf.getstate()
        return state

    def setstate(self, state: dict) -> None:
        super().setstate(state)
        self._ttf.setstate(state["ttf"])

    def _steps(
        self, energies: np.ndarray, temperature: float, current: np.ndarray
    ) -> np.ndarray:
        n, m = energies.shape
        rows = np.arange(n)
        quantized = self.energy_stage.quantize(energies)
        t_grid = self.energy_stage.quantized_temperature(temperature)
        table = conversion_lut(t_grid, self.config)
        codes = np.empty((1, n, 2), dtype=np.int64)
        row_min = np.empty((n, 1), dtype=np.int64)
        for _ in range(self.steps_per_update):
            proposal = self._rng.integers(0, m, size=n)
            pair = np.stack(
                [quantized[rows, current], quantized[rows, proposal]], axis=1
            )
            lambda_codes_lut_into(pair[None], table, self.config, codes, row_min)
            ttf = self._ttf.sample(codes[0])
            winners = select_first_to_fire(ttf, self.config.tie_policy, self._rng)
            current = np.where(winners == 1, proposal, current)
        return current
