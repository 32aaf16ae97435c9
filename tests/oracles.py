"""Reference implementations that the byte-identity tests check against.

Production code keeps one path per layer: the chain-batched sweep
workspace, the memoized λ-conversion table, the block entropy engines
and the event-driven µarch engine.  The slower, more literal paths they
must reproduce bit for bit live here, where only tests reach them:

* the reference sweep — ``GridMRF.site_energies`` plus
  ``SamplerBackend.sample`` per colour class, optionally with the direct
  per-site ``exp`` λ-conversion instead of the table;
* solver, ensemble and tempering runs built from it: K independent
  reference chains and a replica-swap round with one scalar draw per
  pair;
* an all-scalar LFSR and an MT19937 with the reference word-at-a-time
  twist;
* machines and machine-in-the-loop backends that run every batch on the
  per-cycle scalar machine.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.base import select_first_to_fire
from repro.core.convert import lambda_codes
from repro.core.rsu import RSUGSampler
from repro.mrf import EnsembleResult, SolveResult, TemperingResult, coloring_masks
from repro.mrf.tempering import swap_log_alpha
from repro.rng import LFSR, MT19937
from repro.uarch import CycleCountingBackend, MachineBackend, jobs_from_energies

# ---------------------------------------------------------------------------
# Sweeps and runs
# ---------------------------------------------------------------------------


def direct_conversion_sample(sampler, energies, temperature):
    """``RSUGSampler.sample`` with the per-site ``exp`` λ-conversion."""
    quantized = sampler.energy_stage.quantize(energies)
    t_grid = sampler.energy_stage.quantized_temperature(temperature)
    codes = lambda_codes(quantized, t_grid, sampler.config)
    ttf = sampler._ttf.sample(codes)
    return select_first_to_fire(ttf, sampler.config.tie_policy, sampler._rng)


def reference_sweep(model, sampler, labels, temperature, lut=True):
    """One checkerboard sweep of ``labels`` in place, class by class.

    ``lut=False`` converts RSU-G energies with :func:`lambda_codes`
    instead of the memoized table.
    """
    wants_current = getattr(sampler, "wants_current_labels", False)
    for mask in coloring_masks(model.shape, model.connectivity):
        energies = model.site_energies(labels, mask)
        if wants_current:
            labels[mask] = sampler.sample_given_current(
                energies, temperature, labels[mask]
            )
        elif not lut and isinstance(sampler, RSUGSampler):
            labels[mask] = direct_conversion_sample(sampler, energies, temperature)
        else:
            labels[mask] = sampler.sample(energies, temperature)
    return labels


def run_reference(solver, iterations, callback=None, lut=True):
    """``MCMCSolver.run`` through :func:`reference_sweep`."""
    labels = solver.initial_labels()
    result = SolveResult(labels=labels)
    for k in range(iterations):
        temperature = solver.schedule.temperature(k)
        reference_sweep(solver.model, solver.sampler, labels, temperature, lut)
        result.temperature_history.append(temperature)
        result.energy_history.append(
            solver.model.total_energy(labels) if solver.track_energy else float("nan")
        )
        if callback is not None:
            callback(k, labels, temperature)
    return result


def run_ensemble_reference(ensemble, iterations):
    """An ``EnsembleSolver`` run as K independent reference chains."""
    results = [run_reference(solver, iterations) for solver in ensemble._solvers]
    chain_labels = np.stack([result.labels for result in results])
    histories = [result.energy_history for result in results]
    if ensemble.track_energy:
        finals = [history[-1] for history in histories]
    else:
        finals = [ensemble.model.total_energy(labels) for labels in chain_labels]
    best = int(np.argmin(finals))
    return EnsembleResult(
        chain_labels=chain_labels,
        energy_histories=histories,
        temperature_history=results[0].temperature_history,
        best_chain=best,
        best_energy=float(finals[best]),
    )


def run_tempering_reference(pt, sweeps, resume=None, lut=True):
    """A ``ParallelTempering`` run as K independent reference chains.

    Every swap round alternates the even/odd pair alignment and draws
    one scalar uniform per proposed pair from the ladder's generator.
    ``resume`` continues from a ``tempering`` checkpoint.
    """
    if resume is not None:
        start, stacked, result = pt._restore(resume, sweeps)
        states = [stacked[k].copy() for k in range(stacked.shape[0])]
    else:
        start = 0
        states = [solver.initial_labels() for solver in pt._solvers]
        result = TemperingResult(
            labels=states[0], temperatures=pt.temperatures, energy_history=[]
        )
    temps = pt.temperatures
    for sweep_index in range(start, sweeps):
        energies = []
        for solver, temperature, labels in zip(pt._solvers, temps, states):
            reference_sweep(pt.model, solver.sampler, labels, temperature, lut)
            energies.append(pt.model.total_energy(labels))
        if (sweep_index + 1) % pt.swap_interval == 0:
            first = (sweep_index // pt.swap_interval) % 2
            for i in range(first, len(temps) - 1, 2):
                result.swap_attempts += 1
                log_alpha = swap_log_alpha(
                    temps[i], temps[i + 1], energies[i], energies[i + 1]
                )
                if math.log(pt._rng.random() + 1e-300) < min(0.0, log_alpha):
                    energies[i], energies[i + 1] = energies[i + 1], energies[i]
                    states[i], states[i + 1] = states[i + 1], states[i]
                    result.swaps_accepted += 1
        result.energy_history.append(energies)
    result.labels = states[0]
    return result


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


class ScalarLFSR(LFSR):
    """An LFSR whose every draw steps the register one clock per bit."""

    def bits(self, count):
        return self._bits_scalar(count)


_MT_N = 624
_MT_M = 397


class ScalarMT19937(MT19937):
    """An MT19937 with the reference twist, emitting one word per call."""

    def _twist_block(self):
        mt = self._mt
        for i in range(_MT_N):
            y = (mt[i] & 0x80000000) | (mt[(i + 1) % _MT_N] & 0x7FFFFFFF)
            nxt = mt[(i + _MT_M) % _MT_N] ^ (y >> 1)
            if y & 1:
                nxt ^= 0x9908B0DF
            mt[i] = nxt
        self._index = 0
        self._tempered = None

    def words(self, count):
        return np.fromiter(
            (self.next_u32() for _ in range(count)), dtype=np.uint64, count=count
        )


# ---------------------------------------------------------------------------
# Microarchitecture
# ---------------------------------------------------------------------------


def _scalar_run_matrix(machine, quantized, temperature_schedule=None):
    return machine._run_scalar(jobs_from_energies(quantized), temperature_schedule)


def scalar_machine(machine):
    """Route ``machine.run``/``run_matrix`` through its per-cycle loop."""
    machine.run = machine._run_scalar
    machine.run_matrix = functools.partial(_scalar_run_matrix, machine)
    return machine


class _ScalarMachines:
    def _machine_for(self, grid_temperature):
        return scalar_machine(super()._machine_for(grid_temperature))


class ScalarMachineBackend(_ScalarMachines, MachineBackend):
    """A ``MachineBackend`` whose machines step every cycle."""


class ScalarCycleCountingBackend(_ScalarMachines, CycleCountingBackend):
    """A ``CycleCountingBackend`` whose machines step every cycle."""
