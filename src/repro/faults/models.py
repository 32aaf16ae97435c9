"""Composable fault models for every stage of the RSU-G pipeline.

The paper treats device non-idealities qualitatively (Sec. II-B,
IV-B.6); the Duke follow-up work on statistical robustness of
probabilistic accelerators (arXiv:1910.12346, arXiv:2003.04223) argues
that end-point quality alone hides sampler pathologies.  This module
provides the *injection* half of that programme: small, frozen fault
descriptions — one per pipeline stage — that seeded, stateful wrappers
turn into deterministic fault schedules.

Stages and their models:

* :class:`EntropyFault` — stuck-at bits in the uniform-variate words of
  a pseudo-RNG baseline (:mod:`repro.rng`), applied by
  :class:`FaultyBitSource`.
* :class:`SPADFault` — dead/hot SPAD detectors and timer jitter layered
  on the TTF stage (:mod:`repro.core.ttf`), applied by
  :class:`FaultySPADSampler`.
* :class:`UnitArrayFault` — stuck-at-label, dead, and transiently
  failing units in an RSU array, applied by
  :class:`repro.faults.device.FaultyRSUDevice`.
* :class:`WireFault` — bit flips and word drops in encoded command
  streams (:mod:`repro.isa.commands`), applied by :class:`WireChannel`.

:class:`FaultPlan` composes any subset.  Every model with all rates at
zero is *null*: its wrapper is a strict no-op that consumes no random
variates, so a null plan is bit-identical to the fault-free path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.params import RSUConfig
from repro.core.ttf import TTFSampler, no_sample_bin
from repro.util.errors import ConfigError
from repro.util.validation import check_in_range


@dataclass(frozen=True)
class EntropyFault:
    """Stuck-at bits in an entropy stream's fixed-point uniform words.

    ``stuck_mask`` selects which of the ``word_bits`` positions are
    stuck (bit 0 is the least significant); ``stuck_value`` gives the
    value each stuck position is forced to.  Applied to a
    :class:`~repro.rng.streams.BitSource` via :class:`FaultyBitSource`.
    """

    stuck_mask: int = 0
    stuck_value: int = 0
    word_bits: int = 19

    def __post_init__(self):
        if not 1 <= self.word_bits <= 53:
            raise ConfigError(f"word_bits must be in [1, 53], got {self.word_bits}")
        top = (1 << self.word_bits) - 1
        if not 0 <= self.stuck_mask <= top:
            raise ConfigError(f"stuck_mask must fit {self.word_bits} bits")
        if self.stuck_value & ~self.stuck_mask:
            raise ConfigError("stuck_value must only set bits inside stuck_mask")

    @property
    def is_null(self) -> bool:
        """True when the model injects nothing."""
        return self.stuck_mask == 0


class FaultyBitSource:
    """A :class:`~repro.rng.streams.BitSource` with stuck word bits.

    Uniform draws from the wrapped source are quantized onto the
    ``word_bits`` grid and the stuck positions are forced — the model of
    a latched flip-flop in the RNG output register.  A null fault
    returns the wrapped source's floats untouched.

    The wrapper is a full :class:`~repro.rng.streams.BitSource`: it
    honors the allocation-free ``uniforms(count, out=)`` form (stuck
    bits are applied in one vectorized mask-and-divide pass, so the
    block engines' throughput survives the injection layer) and
    forwards ``getstate``/``setstate`` to the wrapped source — the fault
    itself is stateless config, so checkpoints capture only entropy
    state.
    """

    def __init__(self, source, fault: EntropyFault):
        self._source = source
        self._fault = fault

    def uniforms(self, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        u = self._source.uniforms(count, out=out)
        if self._fault.is_null:
            return u
        scale = float(1 << self._fault.word_bits)
        words = np.floor(np.asarray(u) * scale).astype(np.int64)
        words = (words & ~self._fault.stuck_mask) | self._fault.stuck_value
        if out is None:
            return words / scale
        np.divide(words, scale, out=out)
        return out

    def getstate(self) -> dict:
        return {"kind": "faulty", "inner": self._source.getstate()}

    def setstate(self, state: dict) -> None:
        if state.get("kind") != "faulty":
            raise ConfigError(f"not a FaultyBitSource state snapshot: {state!r}")
        self._source.setstate(state["inner"])


@dataclass(frozen=True)
class SPADFault:
    """SPAD detector faults and timer jitter on the TTF stage.

    Parameters
    ----------
    dead_prob:
        Per-evaluation probability the detector misses its window
        entirely (afterpulse dead time, bias droop): the label records
        "no sample" even though the RET network fired.
    hot_prob:
        Per-evaluation probability of a spurious early count (a hot
        pixel), landing at a uniform bin and shadowing the genuine
        photon when earlier — the same first-detection semantics as
        :class:`~repro.core.nonideal.NoisyTTFSampler`.
    jitter_bins:
        Half-width of uniform timer jitter, in bins, added to genuine
        detections (TDC clock drift); results are clipped to the window.
    seed:
        Seed of the dedicated fault-schedule generator, kept separate
        from the sampling entropy so a null fault changes nothing.
    """

    dead_prob: float = 0.0
    hot_prob: float = 0.0
    jitter_bins: int = 0
    seed: int = 0

    def __post_init__(self):
        check_in_range("dead_prob", self.dead_prob, 0.0, 1.0)
        check_in_range("hot_prob", self.hot_prob, 0.0, 1.0)
        if self.jitter_bins < 0:
            raise ConfigError(f"jitter_bins must be >= 0, got {self.jitter_bins}")

    @property
    def is_null(self) -> bool:
        """True when the model injects nothing."""
        return self.dead_prob == 0.0 and self.hot_prob == 0.0 and self.jitter_bins == 0


class FaultySPADSampler(TTFSampler):
    """TTF sampler with dead/hot SPADs and timer jitter injected.

    Fault draws come from a dedicated generator seeded by the fault
    model, so with ``fault.is_null`` the output is bit-identical to the
    clean :class:`~repro.core.ttf.TTFSampler` on the same entropy.
    """

    def __init__(self, config: RSUConfig, rng: np.random.Generator, fault: SPADFault):
        super().__init__(config, rng)
        self.fault = fault
        self._fault_rng = np.random.default_rng(fault.seed)

    def sample(self, codes: np.ndarray) -> np.ndarray:
        return self._inject(np.asarray(codes), super().sample(codes))

    def sample_rows(self, codes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """:meth:`TTFSampler.sample_rows` with faults injected row by row.

        Each row draws its jitter/dead/hot variates as its own
        single-row :meth:`sample` call would, so the fault schedule
        stream is the one a row-at-a-time caller sees.
        """
        ttf = super().sample_rows(codes, uniforms)
        for row in range(codes.shape[0]):
            ttf[row : row + 1] = self._inject(codes[row : row + 1], ttf[row : row + 1])
        return ttf

    def _inject(self, codes: np.ndarray, ttf: np.ndarray) -> np.ndarray:
        """Apply one sample call's worth of SPAD faults to its bins."""
        if self.fault.is_null:
            return ttf
        if self.config.float_time:
            raise ConfigError("SPAD fault injection requires binned time")
        cfg = self.config
        active = codes > 0
        genuine = active & (ttf <= cfg.time_bins)
        out = ttf.copy()
        if self.fault.jitter_bins > 0:
            jitter = self._fault_rng.integers(
                -self.fault.jitter_bins, self.fault.jitter_bins + 1, size=ttf.shape
            )
            out = np.where(
                genuine, np.clip(out + jitter, 1, cfg.time_bins), out
            )
        if self.fault.dead_prob > 0.0:
            dead = self._fault_rng.random(ttf.shape) < self.fault.dead_prob
            # A dead detector sees nothing this window: the genuine
            # photon is lost and no spurious count can register either.
            out = np.where(dead & active, no_sample_bin(cfg), out)
        else:
            dead = np.zeros(ttf.shape, dtype=bool)
        if self.fault.hot_prob > 0.0:
            hot = self._fault_rng.random(ttf.shape) < self.fault.hot_prob
            spurious = self._fault_rng.integers(1, cfg.time_bins + 1, size=ttf.shape)
            out = np.where(hot & active & ~dead, np.minimum(out, spurious), out)
        return out.astype(np.int64)


@dataclass(frozen=True)
class UnitArrayFault:
    """Faults across an array of RSU-G units executing EVALUATEs.

    The functional device models the array schedule as round-robin
    striping over ``n_units`` active units with ``spare_units`` healthy
    spares available for remapping.

    Parameters
    ----------
    transient_rate:
        Per-evaluation probability a unit transiently fails and NACKs
        (returns no label for that variable).
    dead_units:
        Unit ids that always NACK (persistent failure).
    stuck_units:
        ``(unit, label)`` pairs whose output latch is stuck: the unit
        samples normally but always reports ``label``.
    """

    n_units: int = 8
    spare_units: int = 2
    transient_rate: float = 0.0
    dead_units: Tuple[int, ...] = ()
    stuck_units: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 1:
            raise ConfigError(f"n_units must be >= 1, got {self.n_units}")
        if self.spare_units < 0:
            raise ConfigError(f"spare_units must be >= 0, got {self.spare_units}")
        check_in_range("transient_rate", self.transient_rate, 0.0, 1.0)
        total = self.n_units + self.spare_units
        for unit in self.dead_units:
            if not 0 <= unit < total:
                raise ConfigError(f"dead unit {unit} outside the array of {total}")
        seen = set()
        for unit, label in self.stuck_units:
            if not 0 <= unit < total:
                raise ConfigError(f"stuck unit {unit} outside the array of {total}")
            if label < 0:
                raise ConfigError("stuck label must be a valid label index")
            if unit in seen:
                raise ConfigError(f"unit {unit} listed stuck more than once")
            seen.add(unit)

    @property
    def is_null(self) -> bool:
        """True when the model injects nothing."""
        return (
            self.transient_rate == 0.0
            and not self.dead_units
            and not self.stuck_units
        )


@dataclass(frozen=True)
class WireFault:
    """Bit corruption and word drops on the host command interface.

    ``flip_rate`` is the per-word probability of a single uniformly
    chosen bit flipping in flight; ``drop_rate`` the per-word
    probability the word is lost entirely.
    """

    flip_rate: float = 0.0
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_in_range("flip_rate", self.flip_rate, 0.0, 1.0)
        check_in_range("drop_rate", self.drop_rate, 0.0, 1.0)

    @property
    def is_null(self) -> bool:
        """True when the model injects nothing."""
        return self.flip_rate == 0.0 and self.drop_rate == 0.0


class WireChannel:
    """Stateful channel applying a :class:`WireFault` to each transfer.

    Fault draws are consumed per *offered* word (dropped words still
    consume their flip draw), so the corruption schedule depends only on
    the fault seed and the cumulative word count — the property the
    deterministic-replay regression relies on.
    """

    def __init__(self, fault: Optional[WireFault] = None):
        self.fault = fault if fault is not None else WireFault()
        self._rng = np.random.default_rng(self.fault.seed)
        self.words_offered = 0
        self.bits_flipped = 0
        self.words_dropped = 0

    def transmit(self, words: List[int]) -> Tuple[List[int], int, int]:
        """Return ``(delivered_words, n_flips, n_drops)`` for one transfer."""
        self.words_offered += len(words)
        if self.fault.is_null or not words:
            return list(words), 0, 0
        count = len(words)
        dropped = self._rng.random(count) < self.fault.drop_rate
        flipped = self._rng.random(count) < self.fault.flip_rate
        positions = self._rng.integers(0, 32, size=count)
        delivered: List[int] = []
        flips = 0
        for word, drop, flip, bit in zip(words, dropped, flipped, positions):
            if drop:
                continue
            if flip:
                word = int(word) ^ (1 << int(bit))
                flips += 1
            delivered.append(int(word))
        drops = int(dropped.sum())
        self.bits_flipped += flips
        self.words_dropped += drops
        return delivered, flips, drops


@dataclass(frozen=True)
class FaultPlan:
    """A composed fault scenario across all pipeline stages.

    Any stage may be ``None`` (absent).  :meth:`none` builds the empty
    plan; an all-rates-zero plan is :attr:`is_null` and guaranteed
    bit-identical to the fault-free execution path.
    """

    entropy: Optional[EntropyFault] = None
    spad: Optional[SPADFault] = None
    units: Optional[UnitArrayFault] = None
    wire: Optional[WireFault] = None

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: no fault models at any stage."""
        return cls()

    @property
    def is_null(self) -> bool:
        """True when no stage injects anything."""
        return all(
            model is None or model.is_null
            for model in (self.entropy, self.spad, self.units, self.wire)
        )

    def describe(self) -> dict:
        """JSON-serializable summary used in incident-log headers."""
        out: dict = {}
        if self.entropy is not None:
            out["entropy"] = {
                "stuck_mask": self.entropy.stuck_mask,
                "stuck_value": self.entropy.stuck_value,
                "word_bits": self.entropy.word_bits,
            }
        if self.spad is not None:
            out["spad"] = {
                "dead_prob": self.spad.dead_prob,
                "hot_prob": self.spad.hot_prob,
                "jitter_bins": self.spad.jitter_bins,
            }
        if self.units is not None:
            out["units"] = {
                "n_units": self.units.n_units,
                "spare_units": self.units.spare_units,
                "transient_rate": self.units.transient_rate,
                "dead_units": list(self.units.dead_units),
                "stuck_units": [list(pair) for pair in self.units.stuck_units],
            }
        if self.wire is not None:
            out["wire"] = {
                "flip_rate": self.wire.flip_rate,
                "drop_rate": self.wire.drop_rate,
            }
        return out
