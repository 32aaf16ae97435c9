"""Pure-CMOS sampling unit model: inverse-CDF lookup on a pseudo-RNG.

Table IV's alternative designs replace the RET sampling stage with a
random number generator (LFSR, mt19937, or a true RNG) plus a LUT that
stores the quantized cumulative distribution (the paper's example:
"store {1,3,6,7} for the discrete probability distribution {1,2,3,1}").
This module implements that unit so quality comparisons between the
RSU-G and the pseudo-RNG baselines can be run end to end.

Entropy is consumed through the :class:`~repro.rng.streams.BitSource`
protocol, one ``uniforms(count, out=)`` block per half-sweep.  The
default factory wiring (``repro.apps.common.make_backend``) hands this
sampler a :class:`~repro.rng.streams.BufferedBitSource` over the
vectorized LFSR/MT19937 block engines, so the per-half-sweep draws of a
few hundred variates are served from a prefetched slab instead of
paying the pseudo-RNG's per-call scalar loop — same float stream, same
labels, just faster.

The unit draws only through :meth:`CDFSampler.sample_chains_into`; the
literal allocating inverse-CDF draw it must match (and the per-label
weights it samples) live in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import SamplerBackend, SampleScratch, record_sampler_batch
from repro.core.energy import EnergyStage
from repro.rng.streams import BitSource
from repro.util.errors import ConfigError, DataError
from repro.util.validation import check_positive


class CDFSampler(SamplerBackend):
    """Inverse-CDF categorical sampler with quantized weights.

    Parameters
    ----------
    source:
        Uniform-variate source (ideal, LFSR, or MT19937 backed).
    energy_bits / energy_full_scale:
        Same energy front end as the RSU; the CDF LUT is built from the
        quantized energies so the comparison with the RSU isolates the
        sampling stage.
    weight_bits:
        Precision of the per-label weights stored in the CDF LUT;
        ``None`` keeps float weights (an idealized unit).
    """

    name = "cdf"

    def __init__(
        self,
        source: BitSource,
        energy_bits: int = 8,
        energy_full_scale: float = 255.0,
        weight_bits: Optional[int] = None,
    ):
        if weight_bits is not None and weight_bits < 1:
            raise ConfigError(f"weight_bits must be >= 1, got {weight_bits}")
        self._source = source
        self.energy_stage = EnergyStage(energy_bits, energy_full_scale)
        self.weight_bits = weight_bits

    def getstate(self) -> dict:
        return {"source": self._source.getstate()}

    def setstate(self, state: dict) -> None:
        self._source.setstate(state["source"])

    @classmethod
    def sample_chains_into(
        cls,
        samplers,
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Inverse-CDF draws for a ``(K, sites, labels)`` block, chain by chain.

        Per chain: quantize, scale, ``exp``, (optional) weight rounding
        and row ``cumsum`` through scratch buffers, then one
        ``uniforms(count, out=)`` block from that chain's bit source and
        the comparison count — the first label whose cumulative weight
        exceeds the scaled draw.  Each chain is its own dispatch: the
        bit sources are stateful objects (ideal, LFSR or MT19937 backed)
        with no shared block draw, so nothing is gained by stacking.
        """
        if energies.ndim != 3 or energies.shape[2] < 1 or energies.shape[1] < 1:
            raise DataError(
                f"energies must be (chains, n_sites, n_labels), got shape {energies.shape}"
            )
        shape = energies.shape[1:]
        work = scratch.buf("cdf_quantize_work", shape, np.float64)
        quantized = scratch.buf("cdf_quantized", shape, np.int64)
        weights = scratch.buf("cdf_weights", shape, np.float64)
        row_min = scratch.buf("cdf_row_min", (shape[0], 1), np.float64)
        cdf = scratch.buf("cdf_cumsum", shape, np.float64)
        draws = scratch.buf("cdf_draws", (shape[0],), np.float64)
        exceeded = scratch.buf("cdf_exceeded", shape, np.bool_)
        for index, sampler in enumerate(samplers):
            temperature = temperatures[index]
            check_positive("temperature", temperature)
            record_sampler_batch(shape[0])
            sampler.energy_stage.quantize_into(energies[index], quantized, work)
            t_grid = sampler.energy_stage.quantized_temperature(float(temperature))
            np.copyto(weights, quantized, casting="unsafe")  # exact int -> float
            np.amin(weights, axis=1, keepdims=True, out=row_min)
            np.subtract(weights, row_min, out=weights)
            np.negative(weights, out=weights)
            np.divide(weights, t_grid, out=weights)
            np.exp(weights, out=weights)
            if sampler.weight_bits is not None:
                # The minimum-energy label always rounds to the LUT
                # maximum, so every row keeps a selectable label.
                top = (1 << sampler.weight_bits) - 1
                np.multiply(weights, top, out=weights)
                np.rint(weights, out=weights)
            np.cumsum(weights, axis=1, out=cdf)
            sampler._source.uniforms(shape[0], out=draws)
            np.multiply(draws, cdf[:, -1], out=draws)
            np.less_equal(cdf, draws[:, None], out=exceeded)
            np.sum(exceeded, axis=1, out=out[index])
            np.minimum(out[index], shape[1] - 1, out=out[index])
        return out
