"""Reference implementations that the byte-identity tests check against.

Production code keeps one path per layer: the chain-batched sweep
workspace, one chain-batched draw per sampler backend, the memoized
λ-conversion table, the block entropy engines and the event-driven
µarch engine.  The slower, more literal paths they must reproduce bit
for bit live here, where only tests reach them:

* the reference draw of each sampler backend — the literal Gumbel-max,
  argmin and inverse-CDF formulas (with the CDF unit's per-label
  weights), and the RSU-G stages allocated one by one, optionally with
  the direct per-site ``exp`` λ-conversion instead of the table, ending
  in a first-to-fire selection on freshly allocated keys for every row,
  and the count of rows whose winner needs the tie order;
* the reference sweep — ``GridMRF.site_energies`` plus the reference
  draw per colour class;
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

from repro.core.cdf_sampler import CDFSampler
from repro.core.convert import lambda_codes
from repro.core.rsu import RSUGSampler
from repro.core.software import GreedySampler, SoftwareSampler
from repro.mrf import EnsembleResult, SolveResult, TemperingResult, coloring_masks
from repro.mrf.tempering import swap_log_alpha
from repro.rng import LFSR, MT19937
from repro.uarch import CycleCountingBackend, MachineBackend, jobs_from_energies

# ---------------------------------------------------------------------------
# Sampler draws
# ---------------------------------------------------------------------------


def gumbel_sample(sampler, energies, temperature):
    """``SoftwareSampler``: ``argmax(-E / T + G)`` with standard Gumbel ``G``."""
    gumbel = -np.log(-np.log1p(-sampler._rng.random(energies.shape)))
    scores = -energies / temperature + gumbel
    return np.argmax(scores, axis=1)


def cdf_weights(sampler, energies, temperature):
    """``CDFSampler``'s per-label weights after energy (and weight) quantization."""
    quantized = sampler.energy_stage.quantize(energies).astype(np.float64)
    t_grid = sampler.energy_stage.quantized_temperature(temperature)
    scaled = quantized - quantized.min(axis=1, keepdims=True)
    weights = np.exp(-scaled / t_grid)
    if sampler.weight_bits is not None:
        weights = np.rint(weights * ((1 << sampler.weight_bits) - 1))
    return weights


def cdf_sample(sampler, energies, temperature):
    """``CDFSampler``: the first label whose cumulative weight exceeds the draw."""
    cdf = np.cumsum(cdf_weights(sampler, energies, temperature), axis=1)
    draws = sampler._source.uniforms(energies.shape[0]) * cdf[:, -1]
    return (cdf <= draws[:, None]).sum(axis=1).clip(max=energies.shape[1] - 1)


def first_to_fire(ttf, tie_policy, rng):
    """``select_first_to_fire`` with freshly allocated int64 (or float) keys."""
    n_labels = ttf.shape[-1]
    if tie_policy == "random":
        order = np.argsort(rng.random(ttf.shape), axis=-1)
    elif tie_policy == "first":
        order = np.broadcast_to(np.arange(n_labels), ttf.shape)
    else:
        order = np.broadcast_to(np.arange(n_labels - 1, -1, -1), ttf.shape)
    if np.issubdtype(ttf.dtype, np.floating):
        keys = np.where(np.isinf(ttf), 1e300 * (1.0 + order / (10.0 * n_labels)), ttf)
    else:
        keys = ttf.astype(np.int64) * n_labels + order
    return np.argmin(keys, axis=-1)


def tied_row_count(ttf):
    """Rows of ``ttf`` whose winner needs the tie order.

    An integer row ties when its minimum repeats; a float-time row only
    when its minimum is ``+inf`` (every label cut off).
    """
    minima = ttf.min(axis=-1, keepdims=True)
    if np.issubdtype(ttf.dtype, np.floating):
        return int(np.count_nonzero(np.isinf(minima)))
    return int(np.count_nonzero((ttf == minima).sum(axis=-1) > 1))


def rsu_sample(sampler, energies, temperature, lut=True):
    """``RSUGSampler``: λ codes, the TTF stage's own draw, first to fire.

    ``lut=False`` converts with the per-site ``exp`` of
    :func:`lambda_codes` instead of the memoized table.
    """
    if lut:
        codes = sampler.codes_for(energies, temperature)
    else:
        quantized = sampler.energy_stage.quantize(energies)
        t_grid = sampler.energy_stage.quantized_temperature(temperature)
        codes = lambda_codes(quantized, t_grid, sampler.config)
    ttf = sampler._ttf.sample(codes)
    return first_to_fire(ttf, sampler.config.tie_policy, sampler._rng)


def reference_sample(sampler, energies, temperature, lut=True):
    """One block of ``sampler``'s labels through its reference draw.

    Backends without a batched kernel (machines, MH) have no second
    draw, so their own ``sample`` is the reference.
    """
    if isinstance(sampler, SoftwareSampler):
        return gumbel_sample(sampler, energies, temperature)
    if isinstance(sampler, GreedySampler):
        return np.argmin(energies, axis=1)
    if isinstance(sampler, CDFSampler):
        return cdf_sample(sampler, energies, temperature)
    if isinstance(sampler, RSUGSampler):
        return rsu_sample(sampler, energies, temperature, lut)
    return sampler.sample(energies, temperature)


# ---------------------------------------------------------------------------
# Sweeps and runs
# ---------------------------------------------------------------------------


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
        else:
            labels[mask] = reference_sample(sampler, energies, temperature, lut)
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
