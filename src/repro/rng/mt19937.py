"""From-scratch MT19937 (Mersenne Twister) implementation.

Matsumoto & Nishimura's mt19937 is the pseudo-RNG whose VLSI area the
paper scales to 15 nm for Table IV.  This implementation follows the
reference algorithm exactly, so its output can be checked against the
published test vector (seed 5489 → first output 3499211612).

The 624-word twist is evaluated as three NumPy slice assignments
(split exactly at the points where the sequential recurrence starts
consuming words the same twist already rewrote, so each slice reads only
finished values) plus a scalar fix-up for the final word, and tempering
is applied to whole output blocks at once: :meth:`MT19937.words` and
:meth:`MT19937.uniforms` emit from the tempered block, while
:meth:`MT19937.next_u32` tempers one word.  Both share the
``(mt, index)`` state, so the two draw styles interleave freely.  The
reference word-at-a-time twist lives in ``tests/oracles.py``, which
``tests/test_rng_vectorized.py`` checks the block twist against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rng.streams import _check_out
from repro.util.errors import ConfigError

_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER_MASK = 0x80000000
_LOWER_MASK = 0x7FFFFFFF
_WORD_MASK = 0xFFFFFFFF


def _temper_block(block: np.ndarray) -> np.ndarray:
    """Vectorized output tempering of raw state words (uint32 in/uint64 out).

    uint32 arithmetic wraps modulo 2**32, which matches the scalar
    path's explicit ``& _WORD_MASK`` masking bit for bit.
    """
    y = block.astype(np.uint32, copy=True)
    y ^= y >> np.uint32(11)
    y ^= (y << np.uint32(7)) & np.uint32(0x9D2C5680)
    y ^= (y << np.uint32(15)) & np.uint32(0xEFC60000)
    y ^= y >> np.uint32(18)
    return y.astype(np.uint64)


class MT19937:
    """Reference Mersenne Twister with 32-bit output words."""

    def __init__(self, seed: int = 5489):
        if not 0 <= seed <= _WORD_MASK:
            raise ConfigError(f"seed must fit in 32 bits, got {seed}")
        self._mt = [0] * _N
        self._index = _N
        # Tempered copy of the current block, kept by the twist so
        # `words` serves plain slices; None = recompute.
        self._tempered: Optional[np.ndarray] = None
        self._mt[0] = seed
        for i in range(1, _N):
            prev = self._mt[i - 1]
            self._mt[i] = (1812433253 * (prev ^ (prev >> 30)) + i) & _WORD_MASK

    def getstate(self) -> dict:
        """Snapshot of the full generator state (picklable, plain data)."""
        return {"kind": "mt19937", "mt": list(self._mt), "index": self._index}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        if state.get("kind") != "mt19937":
            raise ConfigError(f"not an MT19937 state snapshot: {state!r}")
        mt = [int(word) & _WORD_MASK for word in state["mt"]]
        if len(mt) != _N:
            raise ConfigError(f"MT19937 state needs {_N} words, got {len(mt)}")
        index = int(state["index"])
        if not 0 <= index <= _N:
            raise ConfigError(f"MT19937 index must be in [0, {_N}], got {index}")
        self._mt = mt
        self._index = index
        self._tempered = None

    def _twist_block(self) -> None:
        """Vectorized twist of the whole 624-word block.

        The sequential recurrence reads ``mt[i - 227]`` for ``i >= 227``
        — values the same twist pass already rewrote — so the block is
        split at 227-word boundaries: each NumPy slice then reads only
        words finished by an earlier slice (or untouched old words), and
        the final word, whose ``y`` mixes the new ``mt[0]``, is fixed up
        scalar.  Byte-identical to the reference recurrence.
        """
        mt = np.array(self._mt, dtype=np.uint32)
        upper = np.uint32(_UPPER_MASK)
        lower = np.uint32(_LOWER_MASK)
        matrix_a = np.uint32(_MATRIX_A)
        one = np.uint32(1)
        gap = _N - _M  # 227: the read-after-write lag of the recurrence
        segments = (
            (0, gap, mt[_M:_N]),            # reads old mt[397:624]
            (gap, 2 * gap, mt[0:gap]),      # reads new mt[0:227] (segment 1)
            (2 * gap, _N - 1, mt[gap:_M - 1]),  # reads new mt[227:396] (segment 2)
        )
        for lo, hi, src in segments:
            y = (mt[lo:hi] & upper) | (mt[lo + 1:hi + 1] & lower)
            mt[lo:hi] = src ^ (y >> one) ^ ((y & one) * matrix_a)
        y = (int(mt[_N - 1]) & _UPPER_MASK) | (int(mt[0]) & _LOWER_MASK)
        last = int(mt[_M - 1]) ^ (y >> 1)
        if y & 1:
            last ^= _MATRIX_A
        mt[_N - 1] = last & _WORD_MASK
        self._mt = mt.tolist()
        self._index = 0
        self._tempered = _temper_block(mt)

    def next_u32(self) -> int:
        """Return the next tempered 32-bit word."""
        if self._index >= _N:
            self._twist_block()
        y = self._mt[self._index]
        self._index += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        return y & _WORD_MASK

    def words(self, count: int) -> np.ndarray:
        """Return the next ``count`` 32-bit words as uint64.

        Drains the in-flight block, then twists and tempers whole
        624-word blocks; partial consumption leaves ``index`` mid-block
        exactly like ``count`` calls of :meth:`next_u32` would.
        """
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            if self._index >= _N:
                self._twist_block()
            take = min(_N - self._index, count - filled)
            if self._tempered is not None:
                out[filled:filled + take] = self._tempered[
                    self._index:self._index + take
                ]
            else:
                block = np.asarray(
                    self._mt[self._index:self._index + take], dtype=np.uint32
                )
                out[filled:filled + take] = _temper_block(block)
            self._index += take
            filled += take
        return out

    def uniforms(self, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Return ``count`` floats in [0, 1) with 32-bit granularity.

        With ``out`` (a float64 ``(count,)`` buffer, validated) the
        tempered words land in the caller's buffer — bit-identical
        values either way (a 32-bit word is exactly representable in a
        double and the power-of-two division is exact).
        """
        scale = float(1 << 32)
        if out is None:
            return self.words(count).astype(np.float64) / scale
        _check_out(count, out)
        np.divide(self.words(count), scale, out=out)
        return out
