"""Energy-to-lambda conversion stage (stage 3 of the RSU-G pipeline).

Implements Eq. 2 (``lambda = exp(-E / T)``) under the paper's integer
code space, with the three techniques the new design introduces:

* **decay-rate scaling** — subtract the per-variable minimum energy so
  the best label always receives the maximum code (Eq. 4);
* **probability cut-off** — codes that would fall below one are set to
  zero (label never fires) instead of rounding up to ``lambda0``;
* **2^n approximation** — codes are truncated to the nearest power of
  two so the RET circuit needs only ``Lambda_bits`` unique rates.

Two hardware realizations are modeled: the LUT indexed by energy (the
previous design) and the comparison-against-boundaries scheme of
Sec. IV-B.3.  Both must produce identical codes; tests assert this.

A third, software-side fast path mirrors the LUT observation: quantized
energies take at most ``2**Energy_bits`` distinct values, so the whole
per-(temperature, config) conversion collapses to one integer table
(:func:`conversion_lut`) built with a few hundred ``exp`` calls instead
of one per (site, label).  :func:`lambda_codes_lut` performs the gather;
it is bit-identical to :func:`lambda_codes` by construction (the table
entries are computed by the very same formula) and is the only
conversion path of :class:`repro.core.rsu.RSUGSampler`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List

import numpy as np

from repro.core.params import RSUConfig
from repro.obs import telemetry as obs
from repro.util.errors import ConfigError
from repro.util.quantize import nearest_pow2, unsigned_max


def lambda_codes(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Convert quantized energies to integer decay-rate codes.

    Parameters
    ----------
    quantized_energy:
        Integer energies on the ``Energy_bits`` grid, shape
        ``(n_sites, n_labels)``.
    temperature:
        Annealing temperature in grid units (``T`` of Eq. 2).
    config:
        Design point; ``scaling``, ``cutoff`` and ``pow2_lambda`` select
        the conversion variant.

    Returns
    -------
    numpy.ndarray
        Codes in ``[0, config.lambda_max_code]``; a code of zero means
        the label is cut off and never fires.
    """
    energy = np.asarray(quantized_energy, dtype=np.float64)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    scale = float(config.lambda_max_code)
    if config.scaling:
        energy = energy - energy.min(axis=1, keepdims=True)
    raw = scale * np.exp(-energy / temperature)
    if config.cutoff:
        # Truncate toward zero: anything below one is not large enough
        # to deserve lambda0 and is dropped (Sec. III-C2).
        codes = np.floor(raw).astype(np.int64)
    else:
        # Previous behaviour: round, then round sub-lambda0 values up.
        codes = np.maximum(np.rint(raw).astype(np.int64), 1)
    codes = np.minimum(codes, config.lambda_max_code)
    if config.pow2_lambda:
        codes = nearest_pow2(codes)
    return codes


@lru_cache(maxsize=4096)
def _conversion_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    energies = np.arange(unsigned_max(config.energy_bits) + 1, dtype=np.float64)
    # Scaling is a per-row index shift applied by the caller, so the
    # table itself is always the unscaled conversion of each energy.
    table = lambda_codes(energies[None, :], temperature, config.with_(scaling=False))[0]
    table.setflags(write=False)
    return table


def conversion_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized ``2**Energy_bits``-entry table: quantized energy -> code.

    Entry ``e`` is exactly ``lambda_codes([[e]], temperature, config)``
    without the scaling shift (which :func:`lambda_codes_lut` applies to
    the lookup index instead, Eq. 4 being a pure index translation on
    the integer energy grid).  The returned array is read-only and
    shared across calls; one annealing schedule touches one table per
    distinct temperature instead of ``exp``-ing every (site, label).
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    tel = obs.active()
    if tel is None:
        return _conversion_lut(float(temperature), config)
    before = _conversion_lut.cache_info()
    table = _conversion_lut(float(temperature), config)
    after = _conversion_lut.cache_info()
    tel.inc("convert.lut_hits", after.hits - before.hits)
    tel.inc("convert.lut_misses", after.misses - before.misses)
    return table


def lambda_codes_lut(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Table-lookup conversion; bit-identical to :func:`lambda_codes`.

    ``quantized_energy`` must hold integers on the ``Energy_bits`` grid
    (the contract of :meth:`repro.core.energy.EnergyStage.quantize`).
    """
    energy = np.asarray(quantized_energy)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    table = conversion_lut(temperature, config)
    index = energy.astype(np.int64, copy=False)
    if not np.issubdtype(energy.dtype, np.integer) and not np.array_equal(index, energy):
        raise ConfigError("lambda_codes_lut requires integer quantized energies")
    if config.scaling:
        index = index - index.min(axis=1, keepdims=True)
    if index.size and (index.min() < 0 or index.max() >= table.size):
        raise ConfigError(
            f"quantized energies out of the {config.energy_bits}-bit grid"
        )
    return table[index]


def lambda_codes_lut_into(
    quantized_energy: np.ndarray,
    table: np.ndarray,
    config: RSUConfig,
    out: np.ndarray,
    row_min: np.ndarray,
) -> np.ndarray:
    """Fused :func:`lambda_codes_lut`: gather through preallocated buffers.

    ``table`` is the :func:`conversion_lut` for the target temperature
    (hoisted by the caller so one sweep fetches it once, not once per
    colour class); ``row_min`` is an int64 ``(n_sites, 1)`` buffer for
    the decay-rate-scaling row minima.  **Mutates** ``quantized_energy``
    in place when ``config.scaling`` (the scaled index replaces the raw
    one — callers on the fused path own that buffer and are done with
    it).  Bit-identical to :func:`lambda_codes_lut` by construction:
    scaling is the same integer index shift, the gather reads the same
    table.

    Unlike :func:`lambda_codes_lut` there is no explicit range scan:
    the caller guarantees energies on the ``Energy_bits`` grid (the
    :meth:`~repro.core.energy.EnergyStage.quantize_into` contract), and
    the gather's own bounds checking still raises on any index at or
    beyond the table size.
    """
    index = quantized_energy
    if config.scaling:
        np.amin(index, axis=1, keepdims=True, out=row_min)
        np.subtract(index, row_min, out=index)
    # Fancy gather + copy beats np.take(..., out=out) here: the mapiter
    # fast path more than pays for the transient gather result.
    np.copyto(out, table[index])
    return out


@lru_cache(maxsize=256)
def _stacked_conversion_lut(temperatures: tuple, config: RSUConfig) -> np.ndarray:
    table = np.concatenate(
        [conversion_lut(temperature, config) for temperature in temperatures]
    )
    table.setflags(write=False)
    return table


def stacked_conversion_lut(temperatures, config: RSUConfig) -> np.ndarray:
    """Per-chain conversion tables concatenated along one axis (memoized).

    For K chains at (grid) temperatures ``temperatures`` the result is a
    read-only ``(K * 2**Energy_bits,)`` array whose slice
    ``[k*S:(k+1)*S]`` is exactly ``conversion_lut(temperatures[k],
    config)`` — so one gather with per-chain index offsets converts a
    whole ``(K, sites, labels)`` block (parallel tempering's ladder of
    replica temperatures) in a single NumPy call.
    """
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise ConfigError("need at least one temperature")
    if any(t <= 0 for t in temps):
        raise ConfigError("temperatures must be positive")
    return _stacked_conversion_lut(temps, config)


def lambda_codes_lut_stacked_into(
    quantized_energy: np.ndarray,
    table: np.ndarray,
    config: RSUConfig,
    out: np.ndarray,
    row_min: np.ndarray,
) -> np.ndarray:
    """Chain-batched :func:`lambda_codes_lut_into` over a stacked table.

    ``quantized_energy`` and ``out`` are ``(K, n_sites, n_labels)``;
    ``table`` is the :func:`stacked_conversion_lut` for the K chain
    temperatures (chain ``k`` owns the stride-``S`` slice starting at
    ``k * S``); ``row_min`` is an int64 ``(K * n_sites, 1)`` buffer.
    **Mutates** ``quantized_energy`` (scaling shift + chain offsets) —
    fused callers own that buffer and are done with it.

    Byte-identical to K per-chain :func:`lambda_codes_lut_into` calls:
    the scaling row-minimum is taken within each row (chains never mix),
    and index ``e`` of chain ``k`` reads ``table[k * S + e]`` — the same
    entry the chain's own table holds.  As with the fused single-table
    path the caller guarantees energies on the ``Energy_bits`` grid; an
    out-of-grid index in any chain but the last would alias into the
    next chain's slice rather than raise, which the
    :meth:`~repro.core.energy.EnergyStage.quantize_into` contract rules
    out.
    """
    chains = quantized_energy.shape[0]
    stride = table.size // chains
    index = quantized_energy
    flat = index.reshape(chains * index.shape[1], index.shape[2])
    if config.scaling:
        np.amin(flat, axis=1, keepdims=True, out=row_min)
        np.subtract(flat, row_min, out=flat)
    offsets = np.arange(chains, dtype=np.int64) * np.int64(stride)
    np.add(index, offsets[:, None, None], out=index)
    np.copyto(out.reshape(flat.shape), table[flat])
    return out


def boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    """Energy boundaries for the comparison-based conversion.

    For the 2^n code set ``{lambda_max, ..., 2, 1, 0}`` the converter of
    Sec. IV-B.3 stores one energy boundary per interval: a (scaled)
    energy ``E`` receives code ``c`` iff ``E <= bound(c)`` and ``E >
    bound(2c)``.  ``lambda_bits`` comparisons against these registers
    replace the 1K-bit LUT.

    Returns boundaries ordered from the largest code to code 1; an
    energy above the last boundary is cut off (code 0).
    """
    if not (config.scaling and config.cutoff and config.pow2_lambda):
        raise ConfigError(
            "boundary-based conversion models the new design; requires "
            "scaling, cutoff and pow2_lambda all enabled"
        )
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    scale = float(config.lambda_max_code)
    bounds: List[float] = []
    code = config.lambda_max_code
    while code >= 1:
        # Largest energy whose nearest-pow2(floor(scale*exp(-E/T)))
        # still reaches ``code``: floor(raw) >= lower edge of the
        # rounding interval of ``code``.
        lower_edge = _pow2_round_lower_edge(code)
        bounds.append(temperature * math.log(scale / lower_edge))
        code //= 2
    return np.asarray(bounds, dtype=np.float64)


def _pow2_round_lower_edge(code: int) -> int:
    """Smallest integer value that nearest-pow2 maps to ``code``.

    ``nearest_pow2`` rounds ties down, so integers in
    ``(3*code/4, 3*code/2]`` map to ``code``; the smallest such integer
    is ``floor(3*code/4) + 1``.
    """
    return (3 * code) // 4 + 1


@lru_cache(maxsize=4096)
def _cached_boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    table = boundary_table(temperature, config)
    table.setflags(write=False)
    return table


def cached_boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized, read-only :func:`boundary_table`.

    The structural machines rebuild their comparison registers whenever
    a machine is constructed or a temperature update streams in; an
    annealing schedule revisits the same handful of grid temperatures,
    so the table for a (temperature, config) pair is built exactly once
    per process and shared by every machine thereafter.
    """
    return _cached_boundary_table(float(temperature), config)


@lru_cache(maxsize=4096)
def _cached_legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    table = legacy_lut(temperature, config)
    table.setflags(write=False)
    return table


def cached_legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized, read-only :func:`legacy_lut` (see :func:`cached_boundary_table`)."""
    return _cached_legacy_lut(float(temperature), config)


def boundary_codes(
    bounds: np.ndarray, scaled_energy: np.ndarray, lambda_max_code: int
) -> np.ndarray:
    """Codes of scaled energies against one boundary-register table.

    ``bounds`` ascends as the code halves (lambda_max down to 1), so the
    first boundary at or above an energy names its code; energies beyond
    the last boundary are cut off.  One searchsorted replaces the
    per-boundary comparator walk; the ``+ 1e-12`` slop matches the
    comparison ``scaled <= bound + 1e-12`` bit for bit.
    """
    interval = np.searchsorted(bounds + 1e-12, scaled_energy, side="left")
    code_of_interval = np.concatenate(
        [
            lambda_max_code >> np.arange(bounds.size, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        ]
    )
    return code_of_interval[interval]


def lambda_codes_by_boundaries(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Comparison-based conversion (new design): must match :func:`lambda_codes`."""
    energy = np.asarray(quantized_energy, dtype=np.float64)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    scaled = energy - energy.min(axis=1, keepdims=True)
    bounds = boundary_table(temperature, config)
    return boundary_codes(bounds, scaled, config.lambda_max_code)


def legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Full energy-indexed LUT of the previous design.

    One entry per quantized energy value (``2**Energy_bits`` entries of
    ``Lambda_bits`` each — the 1024-bit memory of Sec. IV-B.3).  Only
    meaningful for unscaled conversion, where the LUT index is the raw
    quantized energy.
    """
    energies = np.arange(unsigned_max(config.energy_bits) + 1, dtype=np.float64)
    return lambda_codes(energies[None, :], temperature, config)[0]


def conversion_memory_bits(config: RSUConfig, scheme: str) -> int:
    """Storage cost of a conversion scheme in bits (Sec. IV-B.3).

    ``lut``: one ``lambda_bits`` entry per energy value.
    ``boundaries``: one ``energy_bits`` register per nonzero code.
    """
    if scheme == "lut":
        return (unsigned_max(config.energy_bits) + 1) * config.lambda_bits
    if scheme == "boundaries":
        return config.unique_lambdas * config.energy_bits
    raise ConfigError(f"unknown conversion scheme {scheme!r}")
