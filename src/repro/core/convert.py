"""Energy-to-lambda conversion stage (stage 3 of the RSU-G pipeline).

Implements Eq. 2 (``lambda = exp(-E / T)``) under the paper's integer
code space, with the three techniques the new design introduces:

* **decay-rate scaling** — subtract the per-variable minimum energy so
  the best label always receives the maximum code (Eq. 4);
* **probability cut-off** — codes that would fall below one are set to
  zero (label never fires) instead of rounding up to ``lambda0``;
* **2^n approximation** — codes are truncated to the nearest power of
  two so the RET circuit needs only ``Lambda_bits`` unique rates.

Every software consumer converts through one table: quantized energies
take at most ``2**Energy_bits`` distinct values, so the whole
per-(temperature, config) conversion is the memoized integer table
:func:`conversion_lut`, built by :func:`lambda_codes` itself (a few
hundred ``exp`` calls instead of one per (site, label)).  The sweep
kernel and MH read it through one gather, :func:`lambda_codes_lut_into`;
the previous-design machine and the driver's LUT stream load it as the
previous design's energy-indexed LUT, which it is entry for entry.

The new design's comparison-against-boundaries scheme (Sec. IV-B.3) is
modeled only where the hardware has those registers — the new-design
machine, the device and the driver: :func:`boundary_table` holds the
register contents and :func:`boundary_codes` the comparison.  The tests
check that it gives the table's codes.
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
    without the scaling shift (which :func:`lambda_codes_lut_into`
    applies to the lookup index instead, Eq. 4 being a pure index
    translation on the integer energy grid; on one row of ``arange`` the
    shift is zero, so the table is also the scaled conversion of each
    energy).  The returned array is read-only and
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


def lambda_codes_lut_into(
    quantized_energy: np.ndarray,
    table: np.ndarray,
    config: RSUConfig,
    out: np.ndarray,
    row_min: np.ndarray,
) -> np.ndarray:
    """The energy-to-code gather, over a ``(K, n_sites, n_labels)`` block.

    ``table`` is either the :func:`conversion_lut` every chain shares (a
    single solve, multi-seed ensembles) or the
    :func:`stacked_conversion_lut` of the K chains' temperatures
    (parallel tempering's ladder), in which chain ``k`` reads the
    stride-``2**Energy_bits`` slice starting at ``k * 2**Energy_bits``.
    ``row_min`` is an int64 ``(K * n_sites, 1)`` buffer for the
    decay-rate-scaling row minima.  **Mutates** ``quantized_energy``
    (scaling shift and chain offsets) — callers own that buffer and are
    done with it.

    Entry for entry the result is :func:`lambda_codes` of the same
    energies: scaling is an integer index shift within each row (chains
    never mix), and chain ``k``'s index ``e`` reads the entry its own
    table holds.  Under scaling a stacked table folds the chain offsets
    into the row minima, so a ladder pays no extra full-block pass.
    There is no range scan: callers guarantee energies on the
    ``Energy_bits`` grid (the
    :meth:`~repro.core.energy.EnergyStage.quantize_into` contract).  The gather's own bounds check still raises past the end
    of the table, though an out-of-grid index in any chain but the last
    of a stacked table would alias into the next chain's slice.
    """
    chains, sites, labels = quantized_energy.shape
    index = quantized_energy.reshape(chains * sites, labels)
    grid = unsigned_max(config.energy_bits) + 1
    offsets = None
    if table.size != grid:
        offsets = np.arange(0, table.size, grid, dtype=np.int64)[:, None, None]
    if config.scaling:
        np.amin(index, axis=1, keepdims=True, out=row_min)
        if offsets is not None:
            chain_min = row_min.reshape(chains, sites, 1)
            np.subtract(chain_min, offsets, out=chain_min)
        np.subtract(index, row_min, out=index)
    elif offsets is not None:
        np.add(quantized_energy, offsets, out=quantized_energy)
    # Fancy gather + copy beats np.take(..., out=out) here: the mapiter
    # fast path more than pays for the transient gather result.
    np.copyto(out.reshape(index.shape), table[index])
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
    config)`` — so :func:`lambda_codes_lut_into` converts a whole
    ``(K, sites, labels)`` block at K distinct temperatures in a single
    gather.
    """
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise ConfigError("need at least one temperature")
    if any(t <= 0 for t in temps):
        raise ConfigError("temperatures must be positive")
    return _stacked_conversion_lut(temps, config)


def boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    """Energy boundaries for the comparison-based conversion (memoized).

    For the 2^n code set ``{lambda_max, ..., 2, 1, 0}`` the converter of
    Sec. IV-B.3 stores one energy boundary per interval: a (scaled)
    energy ``E`` receives code ``c`` iff ``E <= bound(c)`` and ``E >
    bound(2c)``.  ``lambda_bits`` comparisons against these registers
    replace the 1K-bit LUT.

    Returns boundaries ordered from the largest code to code 1; an
    energy above the last boundary is cut off (code 0).  The array is
    read-only and shared: the machines reload their registers whenever
    one is built or a temperature update streams in, and an annealing
    schedule revisits the same few grid temperatures, so each
    (temperature, config) table is built once per process.
    """
    if not (config.scaling and config.cutoff and config.pow2_lambda):
        raise ConfigError(
            "boundary-based conversion models the new design; requires "
            "scaling, cutoff and pow2_lambda all enabled"
        )
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    return _boundary_table(float(temperature), config)


@lru_cache(maxsize=4096)
def _boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
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
    table = np.asarray(bounds, dtype=np.float64)
    table.setflags(write=False)
    return table


def _pow2_round_lower_edge(code: int) -> int:
    """Smallest integer value that nearest-pow2 maps to ``code``.

    ``nearest_pow2`` rounds ties down, so integers in
    ``(3*code/4, 3*code/2]`` map to ``code``; the smallest such integer
    is ``floor(3*code/4) + 1``.
    """
    return (3 * code) // 4 + 1


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
