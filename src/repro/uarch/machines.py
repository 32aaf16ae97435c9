"""Cycle-exact structural models of the two RSU-G pipelines.

Both machines run on the event engine of :mod:`repro.uarch.events`,
which computes every latch's cycle from scheduled events — traced and
``float_time`` runs included; the per-cycle loop that steps every latch
every cycle is the tests' reference (``tests/oracles.py``).

Scheduling conventions (matching :mod:`repro.core.pipeline`):

* one label issues per cycle (the decrement stage);
* the RET observation window spans ``2**Time_bits / 8`` cycles;
* previous design (Fig. 2b): issue -> energy -> LUT -> RET window ->
  selection, giving the paper's ``7 + (M - 1)`` single-variable latency
  at the 4-cycle window;
* new design (Fig. 10): issue -> energy -> FIFO insert (+ min
  tracking); the back end pops a variable only once its minimum energy
  is latched, then scale-subtract -> boundary compare -> RET window ->
  selection.

RET-network bookkeeping in the new design follows Fig. 11: 8 waveguides
(one QDLED each) x 4 concentrations; a QDLED counter advancing once per
observation window selects the active waveguide, so each waveguide
rests ``replicas`` windows between excitations — satisfying the 99.6%
residual-excitation target by construction.  The figure leaves one case
ambiguous: two labels issued *within the same window* that request the
same concentration land on the same physical network.  The machine
either counts these conflicts (``conflict_policy="count"``, default —
the literal reading of the figure) or stalls the second issue into the
next window (``"stall"``, which preserves physics at a throughput
cost); the tests quantify both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.convert import boundary_table, conversion_lut
from repro.core.params import RSUConfig
from repro.core.pipeline import (
    legacy_temperature_stall,
    ret_network_replicas,
    sampling_window_cycles,
)
from repro.uarch import events
from repro.uarch.trace import PipelineTrace
from repro.util.errors import ConfigError


@dataclass
class MachineResult:
    """Outcome of a structural simulation run.

    ``winners``, ``winner_cycle`` and ``issue_cycle`` are int64 arrays
    indexed by the input matrix's row: each variable's selected label,
    the cycle its selection latched, and the cycle its first label
    issued.  ``stats`` holds integer counters only.
    """

    winners: np.ndarray
    winner_cycle: np.ndarray
    issue_cycle: np.ndarray
    total_cycles: int
    stats: Dict[str, int]


def _checked_stream(quantized: np.ndarray, config: RSUConfig) -> events.JobStream:
    """The engine's stream of a ``run_matrix`` input, once it is known
    to be a non-empty 2-D integer matrix of ``Energy_bits`` energies.

    Anything else would fail deep inside a machine or, worse, run: a
    negative energy reads the LUT from its end, and a float one is
    silently truncated by the table index.
    """
    arr = np.asarray(quantized)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ConfigError(f"expected a non-empty (n_vars, M) matrix, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigError(
            f"quantized energies must have an integer dtype, got {arr.dtype}"
        )
    top = 1 << config.energy_bits
    if arr.min() < 0 or arr.max() >= top:
        raise ConfigError(f"quantized energies must lie in [0, {top})")
    return events.stream_from_matrix(arr)


class LegacyMachine:
    """Structural model of the previous RSU-G design (Fig. 2b)."""

    def __init__(
        self,
        config: RSUConfig,
        temperature_grid: float,
        rng: np.random.Generator,
        interface_bits: int = 8,
        trace: Optional[PipelineTrace] = None,
    ):
        if config.scaling or config.cutoff:
            raise ConfigError("the legacy machine models the unscaled design")
        self._trace = trace
        self.config = config
        self.window = sampling_window_cycles(config)
        self._rng = rng
        self._interface_bits = interface_bits
        self._lut = conversion_lut(temperature_grid, config)

    def update_temperature(self, temperature_grid: float) -> int:
        """Rewrite the energy-to-intensity LUT; returns the stall cycles."""
        self._lut = conversion_lut(temperature_grid, self.config)
        return legacy_temperature_stall(self.config, self._interface_bits)

    def run_matrix(
        self,
        quantized: np.ndarray,
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Run an ``(n_vars, M)`` quantized-energy matrix, one variable
        per row; ``temperature_schedule`` maps a row index to a new grid
        temperature applied (with a pipeline stall) before that row
        issues."""
        return events.run_legacy_machine(
            self, _checked_stream(quantized, self.config), temperature_schedule
        )


class NewMachine:
    """Structural model of the new RSU-G design (Fig. 10 / Fig. 11)."""

    def __init__(
        self,
        config: RSUConfig,
        temperature_grid: float,
        rng: np.random.Generator,
        conflict_policy: str = "count",
        trace: Optional[PipelineTrace] = None,
    ):
        self._trace = trace
        if not (config.scaling and config.cutoff and config.pow2_lambda):
            raise ConfigError("the new machine models the full technique stack")
        if conflict_policy not in ("count", "stall"):
            raise ConfigError(f"unknown conflict_policy {conflict_policy!r}")
        self.config = config
        self.window = sampling_window_cycles(config)
        self.waveguides = ret_network_replicas(config)
        self.concentrations = config.unique_lambdas
        self._rng = rng
        self._bounds = boundary_table(temperature_grid, config)
        self._shadow_bounds = None
        self._conflict_policy = conflict_policy

    def update_temperature(self, temperature_grid: float) -> int:
        """Stage new boundaries in the shadow registers; zero stalls."""
        self._shadow_bounds = boundary_table(temperature_grid, self.config)
        return 0

    def run_matrix(
        self,
        quantized: np.ndarray,
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Run an ``(n_vars, M)`` quantized-energy matrix through the
        decoupled pipeline (see :meth:`LegacyMachine.run_matrix`)."""
        return events.run_new_machine(
            self, _checked_stream(quantized, self.config), temperature_schedule
        )
