"""Functional RSU-G device with injected array faults.

:class:`FaultyRSUDevice` extends :class:`~repro.isa.device.RSUDevice`
with the array-level view the fault models need: EVALUATE commands are
striped round-robin over ``n_units`` active units (the schedule of
:mod:`repro.hw.system`), each of which can be healthy, transiently
failing, stuck-at-label, or dead.  SPAD faults replace the TTF stage
with :class:`~repro.faults.models.FaultySPADSampler`.

Failed evaluations produce a :class:`UnitNack` in the response stream
instead of a label — the device-side half of the retry protocol the
:class:`~repro.faults.resilient.ResilientDriver` implements.  The
device also exposes the quarantine-and-remap control a real array would
carry as a unit-disable register: :meth:`quarantine_unit` retires a bad
unit onto a healthy spare.

With a null :class:`~repro.faults.models.FaultPlan` every code path is
bit-identical to the plain :class:`~repro.isa.device.RSUDevice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.params import RSUConfig
from repro.faults.models import FaultPlan, FaultySPADSampler
from repro.isa.commands import Evaluate
from repro.isa.device import RSUDevice
from repro.util.errors import ConfigError, UnrecoverableFaultError


@dataclass(frozen=True)
class UnitNack:
    """A failed evaluation: the unit returned no label for the site."""

    site: int
    unit: int
    kind: str  # "transient" or "dead"


class FaultyRSUDevice(RSUDevice):
    """An :class:`RSUDevice` executing under a :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The composed fault scenario.  ``plan.units`` enables the unit
        array model (round-robin striping, NACKs, quarantine);
        ``plan.spad`` swaps the TTF stage for the faulty SPAD sampler.
        Wire faults are applied by the driver (they live on the host
        interface, before decode); entropy faults apply to pseudo-RNG
        backends and do not touch this device.
    """

    def __init__(
        self,
        config: RSUConfig,
        rng: np.random.Generator,
        design: str = "new",
        plan: Optional[FaultPlan] = None,
    ):
        super().__init__(config, rng, design)
        self.plan = plan if plan is not None else FaultPlan.none()
        if self.plan.spad is not None and not self.plan.spad.is_null:
            self._ttf = FaultySPADSampler(config, rng, self.plan.spad)
        units = self.plan.units
        self._unit_fault = units
        self.unit_trace: List[int] = []
        self.nack_counts: Dict[str, int] = {}
        self._quarantined: List[int] = []
        if units is not None:
            self._active_units = list(range(units.n_units))
            self._spare_pool = list(
                range(units.n_units, units.n_units + units.spare_units)
            )
            self._stuck = {unit: int(label) for unit, label in units.stuck_units}
            self._dead = set(units.dead_units)
            self._unit_rng = np.random.default_rng(units.seed)
            self._eval_cursor = 0

    # -- array visibility --------------------------------------------------
    @property
    def active_units(self) -> List[int]:
        """Unit ids currently mapped into the schedule."""
        if self._unit_fault is None:
            return [0]
        return list(self._active_units)

    @property
    def quarantined_units(self) -> List[int]:
        """Units retired by :meth:`quarantine_unit`, in order."""
        return list(self._quarantined)

    @property
    def spares_remaining(self) -> int:
        """Healthy spares still available for remapping."""
        if self._unit_fault is None:
            return 0
        return len(self._spare_pool)

    def quarantine_unit(self, unit: int) -> int:
        """Retire ``unit`` and remap its schedule slot onto a spare.

        Returns the spare's id.  Raises
        :class:`~repro.util.errors.UnrecoverableFaultError` when the
        spare pool is exhausted — the caller's cue to degrade to
        software.
        """
        if self._unit_fault is None:
            raise ConfigError("quarantine requires the unit-array fault model")
        if unit not in self._active_units:
            raise ConfigError(f"unit {unit} is not in the active schedule")
        if not self._spare_pool:
            raise UnrecoverableFaultError(
                f"no spare unit left to replace unit {unit}"
            )
        spare = self._spare_pool.pop(0)
        self._active_units[self._active_units.index(unit)] = spare
        self._quarantined.append(unit)
        return spare

    # -- command execution -------------------------------------------------
    def _stripe(self, count: int) -> List[int]:
        """Units serving the next ``count`` EVALUATEs (round-robin)."""
        active = self._active_units
        units = [
            active[(self._eval_cursor + offset) % len(active)] for offset in range(count)
        ]
        self._eval_cursor += count
        self.unit_trace.extend(units)
        return units

    def _failures(self, units: List[int]) -> List[Optional[str]]:
        """NACK kind per scheduled unit (``None``: the unit evaluates).

        Dead units always fail; every other unit draws one transient
        check from the unit-fault generator, in schedule order.
        """
        kinds: List[Optional[str]] = [
            "dead" if unit in self._dead else None for unit in units
        ]
        rate = self._unit_fault.transient_rate
        if rate > 0.0:
            checked = [index for index, kind in enumerate(kinds) if kind is None]
            draws = self._unit_rng.random(len(checked))
            for index in np.flatnonzero(draws < rate).tolist():
                kinds[checked[index]] = "transient"
        return kinds

    def _evaluate_block(
        self, run: List[Evaluate], sites: np.ndarray, neighbors: np.ndarray
    ) -> None:
        if self._unit_fault is None:
            super()._evaluate_block(run, sites, neighbors)
            return
        units = self._stripe(len(run))
        kinds = self._failures(units)
        live = [index for index, kind in enumerate(kinds) if kind is None]
        labels = iter(
            self._sample_block(sites[live], neighbors[live]).tolist() if live else ()
        )
        for command, unit, kind in zip(run, units, kinds):
            if kind is not None:
                self._nack(command, unit, kind)
                continue
            # A stuck unit's sampler still runs (entropy consumed), but
            # its output latch always reports the stuck label.
            label = next(labels)
            self.responses.append(self._stuck.get(unit, label))
            self.stats.evaluations += 1
            self.stats.responses += 1

    def _reject(self, command: Evaluate, error: Exception) -> None:
        """A rejected EVALUATE still takes its unit's schedule slot: a
        failing unit NACKs it before the error can surface."""
        if self._unit_fault is None:
            raise error
        unit = self._stripe(1)[0]
        kind = self._failures([unit])[0]
        if kind is None:
            raise error
        self._nack(command, unit, kind)

    def _nack(self, command: Evaluate, unit: int, kind: str) -> None:
        self.responses.append(UnitNack(site=command.site, unit=unit, kind=kind))
        self.stats.responses += 1
        self.nack_counts[kind] = self.nack_counts.get(kind, 0) + 1
