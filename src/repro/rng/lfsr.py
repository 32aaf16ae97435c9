"""Fibonacci linear-feedback shift registers.

The paper's most aggressive pseudo-RNG baseline is a 19-bit LFSR
(Table IV).  A maximal-length LFSR of width ``w`` cycles through all
``2**w - 1`` nonzero states, which is why the paper flags its "relatively
short period" as a quality risk for applications beyond the three it
evaluates.

Two execution paths produce the *same* bit stream, selected by the
request size:

* the **scalar path** — :meth:`LFSR.step` one clock at a time, for
  requests under ``_VECTOR_MIN_BITS`` bits, where it beats the block
  engine's lane-placement setup;
* the **bit-sliced block path** — the register's GF(2)
  transition matrix (:mod:`repro.rng.gf2`) jump-ahead places ``64·S``
  lane phases of the register, the lanes are transposed into ``width``
  bit planes (one uint64 word per 64 lanes), and each vectorized step
  advances *all* lanes one clock with a handful of packed XOR word ops
  while emitting one pre-packed 64-bit output word per plane word.
  Identical output bits, orders of magnitude fewer Python operations.
  ``tests/test_rng_vectorized.py`` checks it against an all-scalar
  register from ``tests/oracles.py``.

Jump-ahead is public: :meth:`LFSR.jump` advances ``k`` steps in
``O(w² log k)``, and :meth:`LFSR.spawn` derives ``n`` deterministic
substream registers at provably disjoint stream offsets.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.rng import gf2
from repro.rng.streams import _check_out
from repro.util.errors import ConfigError

#: Maximal-length tap sets (1-indexed from the output bit) for common
#: widths, from the standard table of primitive polynomials over GF(2).
TAPS_BY_WIDTH = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    7: (7, 6),
    8: (8, 6, 5, 4),
    11: (11, 9),
    15: (15, 14),
    16: (16, 15, 13, 4),
    19: (19, 18, 17, 14),
    23: (23, 18),
    31: (31, 28),
}

#: Below this many requested bits the scalar loop beats the block
#: engine's lane-placement setup, so ``bits`` steps the register.
_VECTOR_MIN_BITS = 256

#: Upper bound on 64-lane superwords per block call (2**15 lanes): more
#: lanes amortize the per-step Python cost, fewer keep jump-ahead
#: placement cheap; each lane covers at least ~4096 bits before the cap.
_MAX_SUPERWORDS = 512


class LFSR:
    """Fibonacci LFSR emitting one bit per :meth:`step`.

    Parameters
    ----------
    width:
        Register width in bits.  Must appear in :data:`TAPS_BY_WIDTH`
        unless explicit ``taps`` are supplied.
    seed:
        Initial register state; any nonzero value modulo ``2**width``.
    taps:
        Optional explicit tap positions (1-indexed, position ``width`` is
        the oldest bit).
    """

    def __init__(self, width: int = 19, seed: int = 1, taps: tuple = ()):
        if width < 2:
            raise ConfigError(f"LFSR width must be >= 2, got {width}")
        if not taps:
            if width not in TAPS_BY_WIDTH:
                raise ConfigError(
                    f"no known maximal taps for width {width}; pass taps explicitly"
                )
            taps = TAPS_BY_WIDTH[width]
        if any(t < 1 or t > width for t in taps):
            raise ConfigError(f"taps {taps} out of range for width {width}")
        self.width = width
        self.taps = tuple(taps)
        self._mask = (1 << width) - 1
        self._step_matrix = gf2.lfsr_step_matrix(width, self.taps)
        state = seed & self._mask
        if state == 0:
            raise ConfigError("LFSR seed must be nonzero modulo 2**width")
        self._state = state

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    @property
    def period(self) -> int:
        """Period of a maximal-length register of this width."""
        return (1 << self.width) - 1

    def getstate(self) -> dict:
        """Snapshot of the full generator state (picklable, plain data).

        The register contents are the entire state; width/taps are
        included so :meth:`setstate` can refuse a snapshot taken from a
        differently configured register.
        """
        return {"kind": "lfsr", "width": self.width, "taps": self.taps,
                "state": self._state}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        if state.get("kind") != "lfsr":
            raise ConfigError(f"not an LFSR state snapshot: {state!r}")
        if state["width"] != self.width or tuple(state["taps"]) != self.taps:
            raise ConfigError(
                f"LFSR state is for width={state['width']} taps={state['taps']}, "
                f"this register has width={self.width} taps={self.taps}"
            )
        value = int(state["state"]) & self._mask
        if value == 0:
            raise ConfigError("LFSR state must be nonzero modulo 2**width")
        self._state = value

    def step(self) -> int:
        """Advance one clock and return the output bit (LSB before shift).

        Fibonacci right-shift form: for the primitive polynomial
        ``x^w + x^t2 + ... + 1`` (taps ``(w, t2, ...)``) the feedback is
        the XOR of bits ``w - tap`` — tap ``w`` contributes the output
        bit itself, keeping the update invertible.
        """
        out = self._state & 1
        feedback = 0
        for tap in self.taps:
            feedback ^= (self._state >> (self.width - tap)) & 1
        self._state = (self._state >> 1) | (feedback << (self.width - 1))
        return out

    def jump(self, count: int) -> "LFSR":
        """Advance the register ``count`` clocks without emitting bits.

        Square-and-multiply on the GF(2) transition matrix makes this
        ``O(width² log count)``, so arbitrary offsets — including the
        ``period // n`` substream strides of :meth:`spawn` — cost
        microseconds.  Byte-identical to ``count`` calls of
        :meth:`step` with the outputs discarded.  Returns ``self``.
        """
        self._state = gf2.advance_state(self._step_matrix, self._state, count)
        return self

    def spawn(self, n: int, stride: Optional[int] = None) -> List["LFSR"]:
        """Derive ``n`` deterministic substream registers by jump-ahead.

        Substream ``i`` starts at the current state advanced ``i *
        stride`` clocks (``self`` is left untouched; substream 0 is a
        plain copy).  The default stride ``period // n`` partitions one
        full period into equal segments, so for a maximal-length
        polynomial the substreams are **provably disjoint** as long as
        each consumes fewer than ``stride`` bits: segment ``i`` covers
        stream positions ``[i*stride, (i+1)*stride)`` of the parent
        register's own future output.  Pass an explicit ``stride`` for
        non-maximal tap sets or custom placements.
        """
        if n < 1:
            raise ConfigError(f"spawn count must be >= 1, got {n}")
        if stride is None:
            stride = self.period // n
        if stride < 1:
            raise ConfigError(
                f"substream stride must be >= 1, got {stride} "
                f"(n={n} exceeds the period?)"
            )
        children: List["LFSR"] = []
        state = self._state
        for index in range(n):
            if index:
                state = gf2.advance_state(self._step_matrix, state, stride)
            child = LFSR(self.width, seed=1, taps=self.taps)
            child._state = state
            children.append(child)
        return children

    def bits(self, count: int) -> np.ndarray:
        """Return the next ``count`` output bits as a uint8 array.

        Routed through the bit-sliced block engine when the request is
        large enough to amortize lane placement; the stream (and the
        register state afterwards) is identical either way.
        """
        if count < _VECTOR_MIN_BITS or self.width > 32 or not np.little_endian:
            return self._bits_scalar(count)
        return self._bits_vectorized(count)

    def _bits_scalar(self, count: int) -> np.ndarray:
        """Scalar path: one :meth:`step` per output bit."""
        return np.fromiter((self.step() for _ in range(count)), dtype=np.uint8, count=count)

    def _bits_vectorized(self, count: int) -> np.ndarray:
        """Bit-sliced block generation of ``count`` stream-ordered bits.

        Layout: ``64·S`` lanes, lane ``ℓ`` jump-ahead-placed at phase
        ``ℓ·n_steps`` so it owns the contiguous stream chunk
        ``[ℓ·n_steps, (ℓ+1)·n_steps)``.  The lanes are transposed into
        ``width`` bit planes (plane ``b``, word ``s``, bit ``j`` = bit
        ``b`` of lane ``64s + j``); one vectorized step then emits
        plane 0 — 64 pre-packed output bits per superword — and clocks
        every lane with ``len(taps) - 1`` packed XORs (the plane list
        rotates for the right shift, the feedback plane is appended).
        Afterwards the register jumps to ``T**count`` of its old state,
        exactly where the scalar path would have left it.
        """
        superwords = max(1, min(_MAX_SUPERWORDS, count // 4096))
        lanes = 64 * superwords
        n_steps = -(-count // lanes)

        # Jump-ahead lane placement by prefix doubling: lanes [m, 2m)
        # are lanes [0, m) advanced m·n_steps clocks.
        starts = np.zeros(lanes, dtype=np.uint64)
        starts[0] = self._state
        jump_mat = gf2.mat_pow(self._step_matrix, n_steps)
        filled = 1
        while filled < lanes:
            take = min(filled, lanes - filled)
            starts[filled:filled + take] = gf2.mat_vec_array(jump_mat, starts[:take])
            filled += take
            if filled < lanes:
                jump_mat = gf2.mat_mul(jump_mat, jump_mat)

        # Transpose lane states into bit planes.
        one = np.uint64(1)
        shifts = np.arange(64, dtype=np.uint64)
        planes = [
            np.bitwise_or.reduce(
                ((starts >> np.uint64(b)) & one).reshape(superwords, 64) << shifts,
                axis=1,
            )
            for b in range(self.width)
        ]

        feedback_planes = tuple(self.width - tap for tap in self.taps)
        out_words = np.empty((n_steps, superwords), dtype=np.uint64)
        for k in range(n_steps):
            out_words[k] = planes[0]
            if len(feedback_planes) > 1:
                fb = planes[feedback_planes[0]] ^ planes[feedback_planes[1]]
                for index in feedback_planes[2:]:
                    fb ^= planes[index]
            else:
                fb = planes[feedback_planes[0]].copy()
            planes.pop(0)
            planes.append(fb)

        # Little-endian uint64 -> bit j of word s is lane 64s + j, so a
        # plain transpose restores chunk-contiguous stream order.
        raw = np.unpackbits(out_words.view(np.uint8), bitorder="little")
        stream = raw.reshape(n_steps, lanes).T.reshape(-1)[:count]
        self.jump(count)
        return stream

    def words(self, count: int, bits_per_word: int) -> np.ndarray:
        """Pack the next ``count * bits_per_word`` bits MSB-first into ints."""
        stream = self.bits(count * bits_per_word).reshape(count, bits_per_word)
        weights = np.int64(1) << np.arange(bits_per_word - 1, -1, -1, dtype=np.int64)
        return stream.astype(np.int64) @ weights

    def next_word(self, bits_per_word: int) -> int:
        """Pack the next ``bits_per_word`` bits MSB-first into one integer.

        Allocation-free scalar counterpart of :meth:`words`: the first
        bit emitted lands in the most significant position, exactly the
        packing order of the array path, so interleaving the two styles
        keeps the bit stream aligned.
        """
        word = 0
        for _ in range(bits_per_word):
            word = (word << 1) | self.step()
        return word

    def uniforms(
        self,
        count: int,
        bits_per_word: int = 19,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return ``count`` floats in [0, 1) built from packed words.

        With ``out`` (a float64 ``(count,)`` buffer, validated) the
        words land in the caller's buffer.  A large request packs a
        whole block at once; a small one packs word by word with zero
        allocations.  Either way the values are bit-identical: a
        ``bits_per_word``-bit word is exactly representable in a double,
        and dividing by a power of two is exact, so the Python and NumPy
        divisions agree to the last ulp.
        """
        scale = float(1 << bits_per_word)
        if out is None:
            return self.words(count, bits_per_word) / scale
        _check_out(count, out)
        if count * bits_per_word >= _VECTOR_MIN_BITS:
            np.divide(self.words(count, bits_per_word), scale, out=out)
            return out
        for index in range(count):
            out[index] = self.next_word(bits_per_word) / scale
        return out

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.step()


def cycle_states(width: int, seed: int = 1, limit: int = 1 << 20) -> List[int]:
    """Enumerate register states until the cycle closes (testing helper).

    Raises :class:`ConfigError` if the cycle does not close within
    ``limit`` steps, which would indicate a non-maximal tap set escaping
    its orbit — useful in tests validating :data:`TAPS_BY_WIDTH`.
    """
    reg = LFSR(width, seed)
    first = reg.state
    states = [first]
    for _ in range(limit):
        reg.step()
        if reg.state == first:
            return states
        states.append(reg.state)
    raise ConfigError(f"cycle did not close within {limit} steps for width {width}")
