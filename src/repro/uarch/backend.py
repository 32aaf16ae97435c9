"""Machine-in-the-loop sampler backend.

Wraps a structural :class:`~repro.uarch.machines.NewMachine` (or
:class:`LegacyMachine`) as a :class:`~repro.core.base.SamplerBackend`,
so an entire MCMC application solve can run through the cycle-driven
pipeline model — the strongest end-to-end validation that the
microarchitecture implements the functional semantics.  It also
accumulates cycle counts, giving measured (not closed-form) throughput
for a real workload.
"""

from __future__ import annotations

import numpy as np

from typing import Dict

from repro.core.base import SamplerBackend
from repro.core.energy import EnergyStage
from repro.core.params import RSUConfig
from repro.obs import telemetry as obs
from repro.uarch.machines import LegacyMachine, NewMachine
from repro.util.errors import ConfigError


class MachineBackend(SamplerBackend):
    """Runs every Gibbs batch through a structural pipeline machine.

    Parameters
    ----------
    config:
        Design point; selects the machine variant (the full technique
        stack runs on :class:`NewMachine`, the unscaled legacy stack on
        :class:`LegacyMachine`).
    energy_full_scale:
        Raw-energy full scale for the 8-bit front end.
    rng:
        Entropy source shared by the machine's RET model.
    conflict_policy:
        RET-network conflict handling for the new-design machine:
        ``"count"`` (default) tallies conflicts without timing impact,
        ``"stall"`` delays the conflicting issue into the next window —
        the configuration under which ``uarch.stalls`` telemetry is
        non-zero on real workloads.  Ignored by the legacy machine.

    Notes
    -----
    Machines are cached per grid temperature (the annealing schedule
    revisits only a few quantized temperatures, and a machine carries no
    run-to-run state beyond the shared RNG), so conversion tables are
    built once per temperature, not once per batch.  Total cycles across
    all batches accumulate in :attr:`total_cycles`.
    """

    name = "machine"

    def __init__(
        self,
        config: RSUConfig,
        energy_full_scale: float,
        rng: np.random.Generator,
        conflict_policy: str = "count",
    ):
        new_style = config.scaling and config.cutoff and config.pow2_lambda
        legacy_style = not (config.scaling or config.cutoff or config.pow2_lambda)
        if not (new_style or legacy_style):
            raise ConfigError(
                "MachineBackend supports the full technique stack or the "
                "fully legacy stack"
            )
        self.config = config
        self.energy_stage = EnergyStage(config.energy_bits, energy_full_scale)
        self._rng = rng
        self._new_style = new_style
        self._conflict_policy = conflict_policy
        self._machines: Dict[float, object] = {}
        self.total_cycles = 0
        self.batches = 0

    def _machine_for(self, grid_temperature: float):
        machine = self._machines.get(grid_temperature)
        if machine is None:
            if self._new_style:
                machine = NewMachine(
                    self.config,
                    grid_temperature,
                    self._rng,
                    conflict_policy=self._conflict_policy,
                )
            else:
                machine = LegacyMachine(self.config, grid_temperature, self._rng)
            self._machines[grid_temperature] = machine
        return machine

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        quantized = self.energy_stage.quantize(energies)
        grid_temperature = self.energy_stage.quantized_temperature(temperature)
        machine = self._machine_for(grid_temperature)
        result = machine.run_matrix(quantized)
        self.total_cycles += result.total_cycles
        self.batches += 1
        tel = obs.active()
        if tel is not None:
            tel.inc("uarch.batches")
            tel.inc("uarch.cycles", result.total_cycles)
            tel.inc("uarch.labels", quantized.size)
            stats = result.stats
            stalls = sum(
                value for key, value in stats.items() if key.endswith("stalls")
            )
            tel.inc("uarch.stalls", stalls)
            tel.inc("uarch.network_conflicts", stats.get("network_conflicts", 0))
            tel.inc("uarch.trace_dropped", stats.get("trace_dropped", 0))
        return result.winners


class CycleCountingBackend(MachineBackend):
    """MachineBackend that also records per-batch cycle counts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_cycles = []
        self.batch_labels = []

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        before = self.total_cycles
        labels = super()._sample_batch(energies, temperature)
        self.batch_cycles.append(self.total_cycles - before)
        self.batch_labels.append(int(np.prod(energies.shape)))
        return labels

    def measured_throughput(self) -> float:
        """Label evaluations per cycle, measured across all batches."""
        if not self.batch_cycles:
            raise ConfigError("no batches have been sampled yet")
        return float(sum(self.batch_labels) / sum(self.batch_cycles))
