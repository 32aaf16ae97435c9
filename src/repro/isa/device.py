"""Functional RSU-G device: consumes command streams, returns labels.

The device owns the hardware-side state: the energy datapath
configuration, the label-value LUT, the unary memory (written by the
host out-of-band, modeling DMA), the lambda boundary registers (with a
shadow set on the new design), and the sampling stages.  It is
bit-faithful: energies come from the integer
:class:`~repro.core.datapath.EnergyDatapath`, conversion compares
against 8-bit boundary registers, and the TTF/selection stages are the
same models the functional simulator uses.

Each run of consecutive EVALUATE commands executes as one block: one
energy/conversion pass over its ``(n, M)`` rows, one entropy draw, one
binning pass and one first-to-fire argmin.  The draw is laid out as the
per-evaluation stream (``M`` TTF uniforms, then ``M`` tie-break
uniforms), so responses, counters and generator states equal those of
a device evaluating one command at a time — including when a command
mid-run is rejected, which leaves every earlier command executed.

Design variants:

* ``design="new"`` — 4 boundary-byte transfers per temperature update,
  landing in shadow registers (no stall accounted);
* ``design="legacy"`` — the update must stream the full 128-byte
  energy-to-intensity LUT; the device counts the stall cycles the
  pipeline would pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.base import first_to_fire_winners
from repro.core.datapath import EnergyDatapath
from repro.core.params import RSUConfig
from repro.core.ttf import TTFSampler
from repro.isa.commands import (
    Command,
    Configure,
    Evaluate,
    ReadStatus,
    SetTemperature,
)
from repro.util.errors import ConfigError, DataError

#: Temperature-update transfers per design.
NEW_UPDATE_BYTES = 4
LEGACY_UPDATE_BYTES = 128  # 256 entries x 4 bits


@dataclass
class DeviceStats:
    """Interface and pipeline counters."""

    words_consumed: int = 0
    evaluations: int = 0
    temperature_updates: int = 0
    update_bytes: int = 0
    stall_cycles: int = 0
    responses: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Counters as a plain dict (the READ_STATUS payload)."""
        return {
            "words_consumed": self.words_consumed,
            "evaluations": self.evaluations,
            "temperature_updates": self.temperature_updates,
            "update_bytes": self.update_bytes,
            "stall_cycles": self.stall_cycles,
            "responses": self.responses,
        }


class RSUDevice:
    """Executes a decoded command stream.

    Parameters
    ----------
    config:
        Sampling design point (conversion flags must match ``design``).
    rng:
        RET entropy source.
    design:
        ``"new"`` or ``"legacy"`` — selects the temperature-update
        interface behaviour.
    """

    def __init__(
        self, config: RSUConfig, rng: np.random.Generator, design: str = "new"
    ):
        if design not in ("new", "legacy"):
            raise ConfigError(f"design must be 'new' or 'legacy', got {design}")
        if design == "new" and not (config.scaling and config.cutoff):
            raise ConfigError("the new device requires scaling and cutoff enabled")
        if design == "legacy" and (config.scaling or config.cutoff):
            raise ConfigError("the legacy device models the unscaled design")
        self.config = config
        self.design = design
        self._rng = rng
        self._ttf = TTFSampler(config, rng)
        self._datapath: Optional[EnergyDatapath] = None
        self._unary: Optional[np.ndarray] = None
        self._boundaries: Optional[np.ndarray] = None  # active registers
        self._shadow: Dict[int, int] = {}
        self._lut: Optional[np.ndarray] = None
        self._lut_bytes: Dict[int, int] = {}
        self.stats = DeviceStats()
        self.responses: List[object] = []

    # -- host-side memory (DMA model) ------------------------------------
    def load_unary(self, unary: np.ndarray) -> None:
        """Write the quantized singleton-cost table (sites x labels)."""
        arr = np.asarray(unary, dtype=np.int64)
        if arr.ndim != 2:
            raise DataError(f"unary must be (sites, labels), got {arr.shape}")
        if arr.min() < 0 or arr.max() > 255:
            raise DataError("unary costs must be 8-bit")
        self._unary = arr

    # -- command execution -------------------------------------------------
    def execute(self, commands: List[Command], words: int = None) -> List[object]:
        """Run a command list; returns the responses it produced.

        Each run of consecutive EVALUATE commands is evaluated as one
        block (see :meth:`_evaluate_run`); every other command executes
        on its own, in stream order.
        """
        before = len(self.responses)
        run: List[Evaluate] = []
        for command in commands:
            if isinstance(command, Evaluate):
                run.append(command)
                continue
            if run:
                self._evaluate_run(run)
                run = []
            self._dispatch(command)
        if run:
            self._evaluate_run(run)
        if words is not None:
            self.stats.words_consumed += words
        return self.responses[before:]

    def _dispatch(self, command: Command) -> None:
        if isinstance(command, Configure):
            self._configure(command)
        elif isinstance(command, SetTemperature):
            self._set_temperature(command)
        elif isinstance(command, ReadStatus):
            self.responses.append(self.stats.snapshot())
            self.stats.responses += 1
        else:
            raise ConfigError(f"unknown command {command!r}")

    def _configure(self, command: Configure) -> None:
        self._datapath = EnergyDatapath(
            label_values=np.arange(command.n_labels),
            distance=command.distance,
            singleton_weight=command.singleton_weight,
            doubleton_weight=command.doubleton_weight,
            output_shift=command.output_shift,
            energy_bits=self.config.energy_bits,
        )

    def _set_temperature(self, command: SetTemperature) -> None:
        if self.design == "new":
            if command.index >= NEW_UPDATE_BYTES:
                raise DataError(
                    f"new design has {NEW_UPDATE_BYTES} boundary registers"
                )
            self._shadow[command.index] = command.payload
            if len(self._shadow) == NEW_UPDATE_BYTES:
                # Atomic swap once all transfers have landed; no stall.
                self._boundaries = np.array(
                    [self._shadow[i] for i in range(NEW_UPDATE_BYTES)], dtype=np.int64
                )
                self._shadow = {}
                self.stats.temperature_updates += 1
            self.stats.update_bytes += 1
        else:
            if command.index >= LEGACY_UPDATE_BYTES:
                raise DataError(
                    f"legacy design streams {LEGACY_UPDATE_BYTES} LUT bytes"
                )
            self._lut_bytes[command.index] = command.payload
            self.stats.update_bytes += 1
            self.stats.stall_cycles += 1  # the pipeline holds per transfer
            if len(self._lut_bytes) == LEGACY_UPDATE_BYTES:
                packed = np.array(
                    [self._lut_bytes[i] for i in range(LEGACY_UPDATE_BYTES)],
                    dtype=np.int64,
                )
                # Each byte carries two 4-bit LUT entries, low nibble first.
                lut = np.zeros(256, dtype=np.int64)
                lut[0::2] = packed & 0xF
                lut[1::2] = (packed >> 4) & 0xF
                self._lut = lut
                self._lut_bytes = {}
                self.stats.temperature_updates += 1

    def _codes_for(self, energies: np.ndarray) -> np.ndarray:
        """Decay-rate codes for a block of energy rows."""
        if self.design == "new":
            return register_codes(energies, self._boundaries, self.config.lambda_max_code)
        return self._lut[np.clip(energies, 0, 255)]

    def _evaluate_run(self, run: List[Evaluate]) -> None:
        """Evaluate a run of consecutive EVALUATE commands.

        The run is validated as a whole; each stretch of accepted
        commands is evaluated as one block, and each rejected command
        goes to :meth:`_reject` in stream order.  A rejection that
        raises therefore leaves exactly the state a command-at-a-time
        device leaves: every earlier command executed (responses,
        counters, entropy consumed), no later one.
        """
        sites, neighbors, rejected = self._check_run(run)
        start = 0
        for stop, error in rejected:
            if stop > start:
                self._evaluate_block(run[start:stop], sites[start:stop], neighbors[start:stop])
            self._reject(run[stop], error)
            start = stop + 1
        if start < len(run):
            self._evaluate_block(run[start:], sites[start:], neighbors[start:])

    def _check_run(self, run: List[Evaluate]):
        """Decode a run's operands and find the commands the device rejects.

        Returns ``(sites, neighbors, rejected)``: neighbour labels are
        ``(n, 4)`` with the ``M`` sentinel where the valid bit is clear,
        and ``rejected`` yields ``(index, error)`` in stream order, the
        error being the first check the command fails.
        """
        n = len(run)
        if self._datapath is None or self._unary is None:
            message = (
                "CONFIGURE must precede EVALUATE"
                if self._datapath is None
                else "unary memory must be loaded before EVALUATE"
            )
            return None, None, ((index, ConfigError(message)) for index in range(n))
        m = self._datapath.n_labels
        sites = np.fromiter((c.site for c in run), dtype=np.int64, count=n)
        fields = np.array([c.neighbors for c in run], dtype=np.int64).reshape(n, 4)
        valid = np.fromiter((c.valid_mask for c in run), dtype=np.int64, count=n)
        valid = (valid[:, None] >> np.arange(4)) & 1
        neighbors = np.where(valid == 1, fields, m)
        site_bad = sites >= self._unary.shape[0]
        neighbor_bad = (neighbors > m).any(axis=1)
        if self._unary.shape[1] != m:
            # A unary table whose width is not the label count fails the
            # datapath's operand-shape check on every evaluation.
            state_error = DataError(
                "expected singleton (N,), label (N,), neighbor_labels (N, 4)"
            )
        elif (self._boundaries if self.design == "new" else self._lut) is None:
            state_error = ConfigError("SET_TEMPERATURE must precede EVALUATE")
        else:
            state_error = None

        def rejected():
            bad = (site_bad | neighbor_bad) if state_error is None else np.ones(n, bool)
            for index in np.flatnonzero(bad).tolist():
                if site_bad[index]:
                    yield index, DataError(f"site {run[index].site} outside the unary memory")
                elif neighbor_bad[index]:
                    yield index, DataError("neighbour label outside the configured label set")
                else:
                    yield index, state_error

        return sites, neighbors, rejected()

    def _reject(self, command: Evaluate, error: Exception) -> None:
        """A rejected EVALUATE: the device raises its error."""
        raise error

    def _evaluate_block(
        self, run: List[Evaluate], sites: np.ndarray, neighbors: np.ndarray
    ) -> None:
        """Evaluate accepted commands and append one label each."""
        self.responses.extend(self._sample_block(sites, neighbors).tolist())
        self.stats.evaluations += len(run)
        self.stats.responses += len(run)

    def _sample_block(self, sites: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        """Winning labels of ``n`` evaluations, drawn as one block.

        Per evaluation the entropy stream yields the ``M`` TTF uniforms
        then (``random`` ties only) the ``M`` tie-break uniforms — one
        ``(n, 2, M)`` draw (``(n, 1, M)`` for ``first``/``last``) is that
        stream for ``n`` evaluations in order.
        """
        energies = self._datapath.compute_rows(self._unary[sites], neighbors)
        codes = self._codes_for(energies)
        tie_policy = self.config.tie_policy
        draws = 2 if tie_policy == "random" else 1
        uniforms = self._rng.random((len(sites), draws, energies.shape[1]))
        ttf = self._ttf.sample_rows(codes, uniforms[:, 0])
        return first_to_fire_winners(
            ttf, tie_policy, uniforms[:, 1] if draws == 2 else None
        )


def register_codes(
    energies: np.ndarray, boundaries: np.ndarray, lambda_max_code: int
) -> np.ndarray:
    """Decay-rate codes from the new design's boundary registers.

    Each row (last axis) of ``energies`` is shifted by its minimum; an
    energy takes the code of the first register it does not exceed —
    ``lambda_max_code`` halved once per register — and code 0 past the
    last one.
    """
    scaled = energies - energies.min(axis=-1, keepdims=True)
    codes = np.zeros(scaled.shape, dtype=np.int64)
    # Later (earlier-register) assignments win, so each energy ends up
    # with the code of the first register it fits under.
    for index in range(len(boundaries) - 1, -1, -1):
        codes[scaled <= boundaries[index]] = lambda_max_code >> index
    return codes
