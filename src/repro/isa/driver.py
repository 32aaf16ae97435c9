"""Host-side driver: compiles MRF sweeps into RSU command streams.

The driver owns the application model (quantized unary costs, the
energy-stage configuration, the annealing schedule in grid units) and
talks to an :class:`~repro.isa.device.RSUDevice` purely through encoded
command words — the same contract a real host/accelerator pair would
have.  A full chromatic-Gibbs solve thus runs "over the wire",
exercising configuration, per-iteration temperature updates and every
variable evaluation through the architectural interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.convert import boundary_table, conversion_lut
from repro.isa.commands import (
    Command,
    Configure,
    Evaluate,
    SetTemperature,
    decode_stream,
    encode_stream,
)
from repro.isa.device import LEGACY_UPDATE_BYTES, NEW_UPDATE_BYTES, RSUDevice
from repro.mrf.model import checkerboard_masks
from repro.util.errors import ConfigError, DataError

#: Neighbour offsets in EVALUATE field order: up, down, left, right.
_NEIGHBOR_DY = np.array([-1, 1, 0, 0])
_NEIGHBOR_DX = np.array([0, 0, -1, 1])


class RSUDriver:
    """Runs a grid MRF problem on a device through the command interface.

    Parameters
    ----------
    device:
        The functional unit (new or legacy design).
    unary:
        Quantized singleton costs, shape ``(H, W, M)`` with 8-bit
        values.
    configure:
        The energy-stage configuration command to issue at start.
    """

    def __init__(
        self,
        device: RSUDevice,
        unary: np.ndarray,
        configure: Configure,
    ):
        arr = np.asarray(unary, dtype=np.int64)
        if arr.ndim != 3:
            raise DataError(f"unary must be (H, W, M), got {arr.shape}")
        if arr.shape[2] != configure.n_labels:
            raise ConfigError("configure.n_labels must match the unary volume")
        if arr.min() < 0 or arr.max() > 255:
            raise DataError("unary costs must be 8-bit")
        self.device = device
        self.shape = arr.shape[:2]
        self.n_labels = arr.shape[2]
        self._unary3d = arr
        self._configure = configure
        self._masks = checkerboard_masks(self.shape)
        self.words_sent = 0
        device.load_unary(arr.reshape(-1, self.n_labels))
        self._send([configure])

    # -- wire helpers ------------------------------------------------------
    def _send(self, commands: List[Command]) -> List[object]:
        words = encode_stream(commands)
        self.words_sent += len(words)
        return self.device.execute(decode_stream(words), words=len(words))

    # -- temperature updates -------------------------------------------------
    def temperature_commands(self, grid_temperature: float) -> List[Command]:
        """The update transfers for the device's design."""
        if grid_temperature <= 0:
            raise ConfigError("grid_temperature must be positive")
        if self.device.design == "new":
            bounds = boundary_table(grid_temperature, self.device.config)
            payloads = np.clip(np.floor(bounds), 0, 255).astype(int)
            if len(payloads) > NEW_UPDATE_BYTES:
                raise ConfigError("boundary set exceeds the update port")
            commands: List[Command] = [
                SetTemperature(index, int(value))
                for index, value in enumerate(payloads)
            ]
            # Pad unused registers with the saturated boundary.
            for index in range(len(payloads), NEW_UPDATE_BYTES):
                commands.append(SetTemperature(index, 255))
            return commands
        # Legacy: stream the packed 4-bit LUT (two entries per byte).
        lut = conversion_lut(grid_temperature, self.device.config)
        clipped = np.clip(lut, 0, 15).astype(int)
        commands = []
        for index in range(LEGACY_UPDATE_BYTES):
            low = clipped[2 * index]
            high = clipped[2 * index + 1]
            commands.append(SetTemperature(index, int(low | (high << 4))))
        return commands

    def set_temperature(self, grid_temperature: float) -> None:
        """Issue a temperature update over the wire."""
        self._send(self.temperature_commands(grid_temperature))

    # -- sweeps --------------------------------------------------------------
    def _neighbor_gather(
        self, labels: np.ndarray, mask: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sites of a colour class with their four neighbours' labels.

        Returns ``(sites, neighbors, valid)``: flat site indices in
        row-major order, ``(n, 4)`` neighbour labels in up/down/left/right
        order (0 off the grid), and the matching ``(n, 4)`` on-grid mask.
        """
        height, width = self.shape
        rows, cols = np.nonzero(mask)
        ny = rows[:, None] + _NEIGHBOR_DY
        nx = cols[:, None] + _NEIGHBOR_DX
        valid = (ny >= 0) & (ny < height) & (nx >= 0) & (nx < width)
        gathered = labels[np.clip(ny, 0, height - 1), np.clip(nx, 0, width - 1)]
        neighbors = np.where(valid, gathered, 0).astype(np.int64)
        return np.flatnonzero(mask.ravel()), neighbors, valid

    def _evaluate_commands(
        self, labels: np.ndarray, mask: np.ndarray
    ) -> Tuple[List[Command], np.ndarray]:
        sites, neighbors, valid = self._neighbor_gather(labels, mask)
        valid_masks = valid.astype(np.int64) @ (1 << np.arange(4, dtype=np.int64))
        commands: List[Command] = [
            Evaluate(site=site, neighbors=tuple(fields), valid_mask=bits)
            for site, fields, bits in zip(
                sites.tolist(), neighbors.tolist(), valid_masks.tolist()
            )
        ]
        return commands, mask

    def sweep(self, labels: np.ndarray, grid_temperature: float) -> np.ndarray:
        """One full checkerboard sweep through the interface, in place."""
        labels = np.asarray(labels)
        if labels.shape != self.shape:
            raise DataError(f"labels shape {labels.shape} != grid {self.shape}")
        self.set_temperature(grid_temperature)
        for mask in self._masks:
            commands, _ = self._evaluate_commands(labels, mask)
            responses = self._send(commands)
            labels[mask] = np.asarray(responses, dtype=np.int64)
        return labels

    def solve(
        self,
        iterations: int,
        temperatures: List[float],
        init: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> np.ndarray:
        """Full MCMC solve over the wire.

        ``temperatures`` supplies the grid-unit temperature per
        iteration (length >= iterations).
        """
        if iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if len(temperatures) < iterations:
            raise ConfigError("need one temperature per iteration")
        if init is None:
            labels = np.argmin(self._unary3d, axis=2).astype(np.int64)
        else:
            labels = np.asarray(init, dtype=np.int64).copy()
        for k in range(iterations):
            self.sweep(labels, temperatures[k])
        return labels

    def interface_traffic(self) -> Dict[str, int]:
        """Words sent and the device's view of the same stream."""
        return {
            "words_sent": self.words_sent,
            "device_words": self.device.stats.words_consumed,
            "update_bytes": self.device.stats.update_bytes,
            "stall_cycles": self.device.stats.stall_cycles,
        }
