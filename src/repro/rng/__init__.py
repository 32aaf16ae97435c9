"""Pseudo-random number generator substrate.

The paper compares the RSU-G against pure-CMOS sampling units built on a
19-bit LFSR, a Mersenne Twister (mt19937), and Intel's DRNG (Table IV).
This package implements the two pseudo-RNGs from scratch — each with a
vectorized block engine, byte-identical to the scalar reference
algorithm (kept in ``tests/oracles.py``) — plus a common
:class:`BitSource` protocol used by the inverse-CDF sampler backend in
:mod:`repro.core.cdf_sampler`, a :class:`BufferedBitSource` block
prefetcher, and GF(2) jump-ahead machinery (:mod:`repro.rng.gf2`) for
deterministic substreams.
"""

from repro.rng.lfsr import LFSR, TAPS_BY_WIDTH, cycle_states
from repro.rng.mt19937 import MT19937
from repro.rng.streams import (
    BitSource,
    BufferedBitSource,
    DEFAULT_PREFETCH_BLOCK,
    LFSRBitSource,
    MTBitSource,
    NumpyBitSource,
    generator_state,
    set_generator_state,
    uniform_from_bits,
)

__all__ = [
    "LFSR",
    "TAPS_BY_WIDTH",
    "cycle_states",
    "MT19937",
    "BitSource",
    "BufferedBitSource",
    "DEFAULT_PREFETCH_BLOCK",
    "LFSRBitSource",
    "MTBitSource",
    "NumpyBitSource",
    "generator_state",
    "set_generator_state",
    "uniform_from_bits",
]
