"""Reference implementations that the byte-identity tests check against.

Production code keeps one path per layer: the chain-batched sweep
workspace, one chain-batched draw per sampler backend, the memoized
λ-conversion table, the block entropy engines and the event-driven
µarch engine.  The slower, more literal paths they must reproduce bit
for bit live here, where only tests reach them:

* the reference draw of each sampler backend — the literal Gumbel-max,
  argmin and inverse-CDF formulas (with the CDF unit's per-label
  weights), and the RSU-G stages allocated one by one, with the direct
  per-site ``exp`` λ-conversion (or plain indexing into the table)
  instead of the engine's gather, ending in a
  first-to-fire selection on freshly allocated keys for every row, and
  the count of rows whose winner needs the tie order;
* the new design's comparison-based conversion over whole energy rows,
  and RSU MH accept steps converting each pair by the direct ``exp``;
* the reference sweep — ``GridMRF.site_energies`` plus the reference
  draw per colour class;
* solver, ensemble and tempering runs built from it: K independent
  reference chains and a replica-swap round with one scalar draw per
  pair;
* an all-scalar LFSR and an MT19937 with the reference word-at-a-time
  twist;
* the per-cycle machines — both pipelines stepping every latch, every
  cycle, drawing each TTF from its own ``TTFSampler.sample`` call and
  recording traces one event at a time — and machine-in-the-loop
  backends that run every batch on them.
"""

from __future__ import annotations

import functools
import math
from collections import deque

import numpy as np

from repro.core.base import select_first_to_fire
from repro.core.cdf_sampler import CDFSampler
from repro.core.convert import (
    boundary_codes,
    boundary_table,
    conversion_lut,
    lambda_codes,
)
from repro.core.rsu import RSUGSampler
from repro.core.software import GreedySampler, SoftwareSampler
from repro.core.ttf import TTFSampler
from repro.mrf import EnsembleResult, SolveResult, TemperingResult, coloring_masks
from repro.mrf.tempering import swap_log_alpha
from repro.rng import LFSR, MT19937
from repro.uarch import (
    CycleCountingBackend,
    LegacyMachine,
    MachineBackend,
    MachineResult,
)

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


def rsu_sample(sampler, energies, temperature, lut=False):
    """``RSUGSampler``: the per-site ``exp`` of :func:`lambda_codes` for
    the λ codes, the TTF stage's own draw, first to fire.

    ``lut=True`` reads the codes by plain fancy indexing into
    :func:`conversion_lut` (at row-minimum-shifted indices when the
    design scales) instead of the ``exp``.
    """
    quantized = sampler.energy_stage.quantize(energies)
    t_grid = sampler.energy_stage.quantized_temperature(temperature)
    config = sampler.config
    if lut:
        if config.scaling:
            quantized = quantized - quantized.min(axis=1, keepdims=True)
        codes = conversion_lut(t_grid, config)[quantized]
    else:
        codes = lambda_codes(quantized, t_grid, config)
    ttf = sampler._ttf.sample(codes)
    return first_to_fire(ttf, sampler.config.tie_policy, sampler._rng)


def reference_sample(sampler, energies, temperature, lut=False):
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


def lambda_codes_by_boundaries(quantized_energy, temperature, config):
    """Comparison-based conversion (new design) of whole energy rows:
    each row shifted by its minimum, then compared against the boundary
    registers; must match :func:`lambda_codes`."""
    energy = np.asarray(quantized_energy, dtype=np.float64)
    scaled = energy - energy.min(axis=1, keepdims=True)
    bounds = boundary_table(temperature, config)
    return boundary_codes(bounds, scaled, config.lambda_max_code)


def rsu_mh_steps(sampler, energies, temperature, current):
    """``RSUMHSampler``'s accept steps with the per-step direct
    :func:`lambda_codes` of each (current, proposal) pair."""
    n, m = energies.shape
    rows = np.arange(n)
    current = np.asarray(current, dtype=np.int64).copy()
    quantized = sampler.energy_stage.quantize(energies)
    t_grid = sampler.energy_stage.quantized_temperature(temperature)
    for _ in range(sampler.steps_per_update):
        proposal = sampler._rng.integers(0, m, size=n)
        pair = np.stack([quantized[rows, current], quantized[rows, proposal]], axis=1)
        codes = lambda_codes(pair, t_grid, sampler.config)
        ttf = sampler._ttf.sample(codes)
        winners = first_to_fire(ttf, sampler.config.tie_policy, sampler._rng)
        current = np.where(winners == 1, proposal, current)
    return current


# ---------------------------------------------------------------------------
# Sweeps and runs
# ---------------------------------------------------------------------------


def reference_sweep(model, sampler, labels, temperature, lut=False):
    """One checkerboard sweep of ``labels`` in place, class by class.

    ``lut`` selects the RSU-G reference conversion (see :func:`rsu_sample`).
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


def run_reference(solver, iterations, callback=None, lut=False):
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


def run_tempering_reference(pt, sweeps, resume=None):
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
            reference_sweep(pt.model, solver.sampler, labels, temperature)
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


class _SelectionTracker:
    """Collects per-variable TTFs and picks winners on completion."""

    def __init__(self, tie_policy, rng):
        self._tie_policy = tie_policy
        self._rng = rng
        self._ttfs = {}
        self._expected = {}

    def expect(self, variable_id, labels):
        self._ttfs[variable_id] = [None] * labels
        self._expected[variable_id] = labels

    def deliver(self, variable_id, label, ttf):
        """Record one TTF; return the winner when the variable completes.

        The row keeps the TTFs' own dtype: integer bins select on
        integer keys, float-time TTFs on float keys (cut-off ``+inf``
        lanes lose to every live one).
        """
        slot = self._ttfs[variable_id]
        slot[label] = ttf
        self._expected[variable_id] -= 1
        if self._expected[variable_id] == 0:
            ttf_row = np.asarray([slot])
            winner = select_first_to_fire(ttf_row, self._tie_policy, self._rng)[0]
            del self._ttfs[variable_id], self._expected[variable_id]
            return int(winner)
        return None


def _trace_stats(machine, stats):
    """Traced runs surface the trace-ring window in the result."""
    if machine._trace is not None:
        stats["trace_events"] = len(machine._trace.events)
        stats["trace_dropped"] = machine._trace.dropped


def _machine_result(n_vars, winners, winner_cycle, issue_cycle_of, cycles, stats):
    """The per-variable dicts of a per-cycle run as a ``MachineResult``."""

    def by_row(values):
        return np.array([values[v] for v in range(n_vars)], dtype=np.int64)

    return MachineResult(
        by_row(winners), by_row(winner_cycle), by_row(issue_cycle_of), cycles, stats
    )


def run_legacy_per_cycle(machine, quantized, temperature_schedule=None):
    """``LegacyMachine.run_matrix`` stepping every latch, every cycle."""
    temperature_schedule = temperature_schedule or {}
    quantized = np.asarray(quantized)
    n_vars = len(quantized)
    trace = machine._trace
    ttf_sampler = TTFSampler(machine.config, machine._rng)
    selection = _SelectionTracker(machine.config.tie_policy, machine._rng)
    issue_queue = deque()
    issue_cycle_of = {}
    for variable_id, energies in enumerate(quantized):
        selection.expect(variable_id, len(energies))
        if variable_id in temperature_schedule:
            issue_queue.append(("stall", variable_id))
        for label in range(len(energies) - 1, -1, -1):
            issue_queue.append((variable_id, label))

    issue_latch = None  # (var, label, quantized energy)
    energy_latch = None  # (var, label, quantized energy)
    lut_latch = None  # (var, label, code)
    units_busy_until = [-1] * machine.window
    completions = {}
    winners = {}
    winner_cycle = {}
    stats = {"hazard_stalls": 0, "temperature_stalls": 0}
    stall_remaining = 0
    cycle = 0
    while len(winners) < n_vars:
        # 1. RET completions feed selection (a window of one cycle
        # completes in the scheduling cycle itself; its result is
        # latched into selection on the next cycle, hence <=).
        for due in sorted(k for k in completions if k <= cycle):
            for variable_id, label, ttf in completions.pop(due):
                if trace is not None:
                    trace.record(cycle, "select", variable_id, label)
                winner = selection.deliver(variable_id, label, ttf)
                if winner is not None:
                    winners[variable_id] = winner
                    winner_cycle[variable_id] = cycle
        # 2. LUT latch issues into a free RET unit.
        if lut_latch is not None:
            unit = next(
                (u for u, busy in enumerate(units_busy_until) if busy < cycle), None
            )
            if unit is None:
                stats["hazard_stalls"] += 1
            else:
                variable_id, label, code = lut_latch
                units_busy_until[unit] = cycle + machine.window - 1
                ttf = ttf_sampler.sample(np.array([[code]]))[0, 0]
                completions.setdefault(cycle + machine.window - 1, []).append(
                    (variable_id, label, ttf)
                )
                if trace is not None:
                    for offset in range(machine.window):
                        trace.record(cycle + offset, "ret", variable_id, label)
                lut_latch = None
        # 3. Energy latch advances through the LUT.
        if lut_latch is None and energy_latch is not None:
            variable_id, label, energy = energy_latch
            lut_latch = (variable_id, label, int(machine._lut[energy]))
            if trace is not None:
                trace.record(cycle, "convert", variable_id, label)
            energy_latch = None
        # 4. Issue latch advances through energy computation.
        if energy_latch is None and issue_latch is not None:
            energy_latch = issue_latch
            if trace is not None:
                trace.record(cycle, "energy", issue_latch[0], issue_latch[1])
            issue_latch = None
        # 5. Issue stage (with temperature stalls).
        if stall_remaining > 0:
            stall_remaining -= 1
            stats["temperature_stalls"] += 1
            if trace is not None:
                trace.record(cycle, "stall", -1, -1)
        elif issue_latch is None and issue_queue:
            head = issue_queue[0]
            if head[0] == "stall":
                issue_queue.popleft()
                stall_remaining = machine.update_temperature(
                    temperature_schedule[head[1]]
                )
            else:
                variable_id, label = issue_queue.popleft()
                if label == quantized.shape[1] - 1:
                    issue_cycle_of[variable_id] = cycle
                issue_latch = (variable_id, label, int(quantized[variable_id, label]))
                if trace is not None:
                    trace.record(cycle, "issue", variable_id, label)
        cycle += 1
    _trace_stats(machine, stats)
    return _machine_result(n_vars, winners, winner_cycle, issue_cycle_of, cycle, stats)


def comparator_code(bounds, scaled_energy, lambda_max_code):
    """The new design's boundary comparators, one register at a time."""
    code = lambda_max_code
    for bound in bounds:
        if scaled_energy <= bound + 1e-12:
            return code
        code //= 2
    return 0


def run_new_per_cycle(machine, quantized, temperature_schedule=None):
    """``NewMachine.run_matrix`` stepping every latch, every cycle."""
    temperature_schedule = temperature_schedule or {}
    quantized = np.asarray(quantized)
    n_vars = len(quantized)
    trace = machine._trace
    ttf_sampler = TTFSampler(machine.config, machine._rng)
    selection = _SelectionTracker(machine.config.tie_policy, machine._rng)
    for variable_id, energies in enumerate(quantized):
        selection.expect(variable_id, len(energies))
    window, waveguides = machine.window, machine.waveguides

    # Front-end state.
    job_index = 0
    label_index = None  # decrementing label counter of the current job
    issue_latch = None
    energy_latch = None
    min_tracker = None
    issue_cycle_of = {}
    # FIFO entries: (variable_id, label, quantized energy); a variable
    # becomes poppable once its minimum is latched.
    fifo = deque()
    latched_min = {}
    fifo_variables = deque()  # ids in FIFO order
    # Back-end state.
    scale_latch = None
    compare_latch = None
    completions = {}
    network_last_use = {}
    winners = {}
    winner_cycle = {}
    stats = {
        "network_conflicts": 0,
        "conflict_stalls": 0,
        "fifo_max_entries": 0,
        "fifo_max_variables": 0,
        "reuse_violations": 0,
        "temperature_stalls": 0,
    }
    cycle = 0
    while len(winners) < n_vars:
        window_index = cycle // window
        active_waveguide = window_index % waveguides
        # 1. Completions feed selection (<= drains the window-of-one
        # case, whose result latches the cycle after it completes).
        for due in sorted(k for k in completions if k <= cycle):
            for variable_id, label, ttf in completions.pop(due):
                if trace is not None:
                    trace.record(cycle, "select", variable_id, label)
                winner = selection.deliver(variable_id, label, ttf)
                if winner is not None:
                    winners[variable_id] = winner
                    winner_cycle[variable_id] = cycle
                    if machine._shadow_bounds is not None:
                        # Swap shadow boundary registers at the variable
                        # boundary — no stall.
                        machine._bounds = machine._shadow_bounds
                        machine._shadow_bounds = None
        # 2. Compare latch issues to the RET circuit.
        if compare_latch is not None:
            variable_id, label, code = compare_latch
            proceed = True
            if code > 0:
                network = (active_waveguide, int(np.log2(code)))
                last = network_last_use.get(network)
                if last is not None and last == window_index:
                    stats["network_conflicts"] += 1
                    if machine._conflict_policy == "stall":
                        stats["conflict_stalls"] += 1
                        proceed = False
                elif last is not None and window_index - last < waveguides:
                    stats["reuse_violations"] += 1
                if proceed:
                    network_last_use[network] = window_index
            if proceed:
                ttf = ttf_sampler.sample(np.array([[code]]))[0, 0]
                completions.setdefault(cycle + window - 1, []).append(
                    (variable_id, label, ttf)
                )
                if trace is not None:
                    for offset in range(window):
                        trace.record(cycle + offset, "ret", variable_id, label)
                compare_latch = None
        # 3. Scale latch advances through the comparators.
        if compare_latch is None and scale_latch is not None:
            variable_id, label, scaled = scale_latch
            code = comparator_code(
                machine._bounds, scaled, machine.config.lambda_max_code
            )
            compare_latch = (variable_id, label, code)
            if trace is not None:
                trace.record(cycle, "convert", variable_id, label)
            scale_latch = None
        # 4. FIFO pop (only for a variable whose minimum is latched).
        if scale_latch is None and fifo and fifo[0][0] in latched_min:
            variable_id, label, energy = fifo.popleft()
            scale_latch = (variable_id, label, energy - latched_min[variable_id])
            if trace is not None:
                trace.record(cycle, "scale", variable_id, label)
            if not fifo or fifo[0][0] != variable_id:
                if fifo_variables and fifo_variables[0] == variable_id:
                    fifo_variables.popleft()
        # 5. Energy latch inserts into the FIFO and updates the min.
        if energy_latch is not None:
            variable_id, label, energy = energy_latch
            fifo.append((variable_id, label, energy))
            if trace is not None:
                trace.record(cycle, "fifo", variable_id, label)
            if not fifo_variables or fifo_variables[-1] != variable_id:
                fifo_variables.append(variable_id)
            min_tracker = energy if min_tracker is None else min(min_tracker, energy)
            if label == 0:  # last label of the variable: latch the min
                latched_min[variable_id] = min_tracker
                min_tracker = None
            energy_latch = None
        stats["fifo_max_entries"] = max(stats["fifo_max_entries"], len(fifo))
        stats["fifo_max_variables"] = max(
            stats["fifo_max_variables"], len(fifo_variables)
        )
        # 6. Issue latch computes the energy.
        if energy_latch is None and issue_latch is not None:
            energy_latch = issue_latch
            if trace is not None:
                trace.record(cycle, "energy", issue_latch[0], issue_latch[1])
            issue_latch = None
        # 7. Issue stage: label decrement over the current job.
        if issue_latch is None and job_index < n_vars:
            energies = quantized[job_index]
            if label_index is None:
                if job_index in temperature_schedule:
                    machine.update_temperature(temperature_schedule[job_index])
                label_index = len(energies) - 1
                issue_cycle_of[job_index] = cycle
            issue_latch = (job_index, label_index, int(energies[label_index]))
            if trace is not None:
                trace.record(cycle, "issue", job_index, label_index)
            if label_index == 0:
                job_index += 1
                label_index = None
            else:
                label_index -= 1
        cycle += 1
    _trace_stats(machine, stats)
    return _machine_result(n_vars, winners, winner_cycle, issue_cycle_of, cycle, stats)


def run_per_cycle(machine, quantized, temperature_schedule=None):
    """Run an ``(n_vars, M)`` matrix on ``machine``'s per-cycle reference loop."""
    if isinstance(machine, LegacyMachine):
        return run_legacy_per_cycle(machine, quantized, temperature_schedule)
    return run_new_per_cycle(machine, quantized, temperature_schedule)


def scalar_machine(machine):
    """Route ``machine.run_matrix`` through its per-cycle loop."""
    machine.run_matrix = functools.partial(run_per_cycle, machine)
    return machine


class _ScalarMachines:
    def _machine_for(self, grid_temperature):
        return scalar_machine(super()._machine_for(grid_temperature))


class ScalarMachineBackend(_ScalarMachines, MachineBackend):
    """A ``MachineBackend`` whose machines step every cycle."""


class ScalarCycleCountingBackend(_ScalarMachines, CycleCountingBackend):
    """A ``CycleCountingBackend`` whose machines step every cycle."""
