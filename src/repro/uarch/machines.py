"""Cycle-driven structural models of the two RSU-G pipelines.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import select_first_to_fire
from repro.core.convert import cached_boundary_table, cached_legacy_lut
from repro.core.params import RSUConfig
from repro.core.pipeline import (
    legacy_temperature_stall,
    ret_network_replicas,
    sampling_window_cycles,
)
from repro.core.ttf import TTFSampler
from repro.uarch.trace import PipelineTrace
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class VariableJob:
    """One random-variable evaluation: quantized energies per label."""

    variable_id: int
    energies: np.ndarray  # (M,) int64 quantized energies

    def __post_init__(self):
        arr = np.asarray(self.energies)
        if arr.ndim != 1 or arr.size < 1:
            raise ConfigError("energies must be a non-empty 1-D array")


@dataclass
class MachineResult:
    """Outcome of a structural simulation run."""

    winners: Dict[int, int]
    winner_cycle: Dict[int, int]
    total_cycles: int
    stats: Dict[str, int] = field(default_factory=dict)

    def latency(self, variable_id: int, issue_cycle: int) -> int:
        """Inclusive cycle span from first issue to selection."""
        return self.winner_cycle[variable_id] - issue_cycle + 1


def jobs_from_energies(quantized: np.ndarray) -> List[VariableJob]:
    """Wrap an ``(n_vars, M)`` quantized-energy matrix into jobs.

    Rejects empty matrices and non-integer dtypes up front: both used
    to slip through and only fail (confusingly) deep inside the
    machines — an empty run loop that never terminates, or float
    energies silently truncated by the LUT index.
    """
    arr = np.asarray(quantized)
    if arr.ndim != 2:
        raise ConfigError(f"expected (n_vars, M), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ConfigError(f"jobs must be non-empty, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigError(
            f"quantized energies must have an integer dtype, got {arr.dtype}"
        )
    return [VariableJob(i, arr[i]) for i in range(arr.shape[0])]


class _SelectionTracker:
    """Collects per-variable TTFs and picks winners on completion."""

    def __init__(self, tie_policy: str, rng: np.random.Generator):
        self._tie_policy = tie_policy
        self._rng = rng
        self._ttfs: Dict[int, list] = {}
        self._expected: Dict[int, int] = {}

    def expect(self, variable_id: int, labels: int) -> None:
        self._ttfs[variable_id] = [None] * labels
        self._expected[variable_id] = labels

    def deliver(self, variable_id: int, label: int, ttf) -> Optional[int]:
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
        self._ttf_sampler = TTFSampler(config, rng)
        self._rng = rng
        self._interface_bits = interface_bits
        self._lut = cached_legacy_lut(temperature_grid, config)

    def update_temperature(self, temperature_grid: float) -> int:
        """Rewrite the energy-to-intensity LUT; returns the stall cycles."""
        self._lut = cached_legacy_lut(temperature_grid, self.config)
        return legacy_temperature_stall(self.config, self._interface_bits)

    def _event_path_active(self) -> bool:
        """The event engine needs no per-cycle observation (tracing) and
        binned time (the float-time stage has no cycle semantics); the
        per-cycle :meth:`_run_scalar` serves both of those."""
        return self._trace is None and not self.config.float_time

    def run(
        self,
        jobs: Sequence[VariableJob],
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Execute the jobs; ``temperature_schedule`` maps a job index to
        a new grid temperature applied (with a pipeline stall) before
        that job issues."""
        if not jobs:
            raise ConfigError("jobs must be non-empty")
        if self._event_path_active():
            from repro.uarch.events import run_legacy_machine, stream_from_jobs

            return run_legacy_machine(
                self, stream_from_jobs(jobs), temperature_schedule
            )
        return self._run_scalar(jobs, temperature_schedule)

    def run_matrix(
        self,
        quantized: np.ndarray,
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Run an ``(n_vars, M)`` quantized-energy matrix directly.

        The machine-in-the-loop hot path: the event engine consumes the
        matrix as one flat stream, skipping per-variable
        :class:`VariableJob` construction entirely.  Traced and
        float-time runs go through :func:`jobs_from_energies` and the
        per-cycle :meth:`_run_scalar` instead.
        """
        if self._event_path_active():
            from repro.uarch.events import run_legacy_machine, stream_from_matrix

            return run_legacy_machine(
                self, stream_from_matrix(quantized), temperature_schedule
            )
        return self._run_scalar(jobs_from_energies(quantized), temperature_schedule)

    def _run_scalar(
        self,
        jobs: Sequence[VariableJob],
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Cycle-exact specification: step every latch, every cycle."""
        temperature_schedule = temperature_schedule or {}
        selection = _SelectionTracker(self.config.tie_policy, self._rng)
        issue_queue = deque()
        issue_cycle_of: Dict[int, int] = {}
        for index, job in enumerate(jobs):
            selection.expect(job.variable_id, len(job.energies))
            if index in temperature_schedule:
                issue_queue.append(("stall", index))
            for label in range(len(job.energies) - 1, -1, -1):
                issue_queue.append((job, label))

        issue_latch = None  # (var, label, quantized energy)
        energy_latch = None  # (var, label, quantized energy)
        lut_latch = None  # (var, label, code)
        units_busy_until = [-1] * self.window
        completions: Dict[int, list] = {}
        winners: Dict[int, int] = {}
        winner_cycle: Dict[int, int] = {}
        stats = {"hazard_stalls": 0, "temperature_stalls": 0}
        stall_remaining = 0
        cycle = 0
        guard = 0
        while len(winners) < len(jobs):
            # 1. RET completions feed selection (a window of one cycle
            # completes in the scheduling cycle itself; its result is
            # latched into selection on the next cycle, hence <=).
            for due in sorted(k for k in completions if k <= cycle):
                for variable_id, label, ttf in completions.pop(due):
                    if self._trace is not None:
                        self._trace.record(cycle, "select", variable_id, label)
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
                    units_busy_until[unit] = cycle + self.window - 1
                    ttf = self._ttf_sampler.sample(np.array([[code]]))[0, 0]
                    completions.setdefault(cycle + self.window - 1, []).append(
                        (variable_id, label, ttf)
                    )
                    if self._trace is not None:
                        for offset in range(self.window):
                            self._trace.record(cycle + offset, "ret", variable_id, label)
                    lut_latch = None
            # 3. Energy latch advances through the LUT.
            if lut_latch is None and energy_latch is not None:
                variable_id, label, energy = energy_latch
                lut_latch = (variable_id, label, int(self._lut[energy]))
                if self._trace is not None:
                    self._trace.record(cycle, "convert", variable_id, label)
                energy_latch = None
            # 4. Issue latch advances through energy computation.
            if energy_latch is None and issue_latch is not None:
                energy_latch = issue_latch
                if self._trace is not None:
                    self._trace.record(cycle, "energy", issue_latch[0], issue_latch[1])
                issue_latch = None
            # 5. Issue stage (with temperature stalls).
            if stall_remaining > 0:
                stall_remaining -= 1
                stats["temperature_stalls"] += 1
                if self._trace is not None:
                    self._trace.record(cycle, "stall", -1, -1)
            elif issue_latch is None and issue_queue:
                head = issue_queue[0]
                if head[0] == "stall":
                    issue_queue.popleft()
                    job_index = head[1]
                    stall_remaining = self.update_temperature(
                        temperature_schedule[job_index]
                    )
                else:
                    job, label = issue_queue.popleft()
                    if label == len(job.energies) - 1:
                        issue_cycle_of[job.variable_id] = cycle
                    issue_latch = (job.variable_id, label, int(job.energies[label]))
                    if self._trace is not None:
                        self._trace.record(cycle, "issue", job.variable_id, label)
            cycle += 1
            guard += 1
            if guard > 10_000_000:
                raise ConfigError("legacy machine did not terminate")
        if self._trace is not None:
            # Traced runs surface the trace-ring window in the result so
            # a consumer can tell a complete trace from a truncated one.
            # Untraced runs (including the event path) omit the keys, so
            # event-vs-scalar stats identity is unaffected.
            stats["trace_events"] = len(self._trace.events)
            stats["trace_dropped"] = self._trace.dropped
        result = MachineResult(winners, winner_cycle, cycle, stats)
        result.stats["issue_cycles"] = issue_cycle_of  # type: ignore[assignment]
        return result


#: Paper-facing name for the Fig. 2b machine.
PreviousDesignMachine = LegacyMachine


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
        self._ttf_sampler = TTFSampler(config, rng)
        self._rng = rng
        self._bounds = cached_boundary_table(temperature_grid, config)
        self._shadow_bounds = None
        self._conflict_policy = conflict_policy

    def update_temperature(self, temperature_grid: float) -> int:
        """Stage new boundaries in the shadow registers; zero stalls."""
        self._shadow_bounds = cached_boundary_table(temperature_grid, self.config)
        return 0

    def _event_path_active(self) -> bool:
        """The event engine needs no per-cycle observation (tracing) and
        binned time (the float-time stage has no cycle semantics); the
        per-cycle :meth:`_run_scalar` serves both of those."""
        return self._trace is None and not self.config.float_time

    def _convert(self, scaled_energy: int) -> int:
        """Comparison-based energy-to-lambda conversion."""
        code = self.config.lambda_max_code
        for bound in self._bounds:
            if scaled_energy <= bound + 1e-12:
                return code
            code //= 2
        return 0

    def run(
        self,
        jobs: Sequence[VariableJob],
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Execute the jobs through the decoupled pipeline."""
        if not jobs:
            raise ConfigError("jobs must be non-empty")
        if self._event_path_active():
            from repro.uarch.events import run_new_machine, stream_from_jobs

            return run_new_machine(self, stream_from_jobs(jobs), temperature_schedule)
        return self._run_scalar(jobs, temperature_schedule)

    def run_matrix(
        self,
        quantized: np.ndarray,
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Run an ``(n_vars, M)`` quantized-energy matrix directly (see
        :meth:`LegacyMachine.run_matrix`)."""
        if self._event_path_active():
            from repro.uarch.events import run_new_machine, stream_from_matrix

            return run_new_machine(
                self, stream_from_matrix(quantized), temperature_schedule
            )
        return self._run_scalar(jobs_from_energies(quantized), temperature_schedule)

    def _run_scalar(
        self,
        jobs: Sequence[VariableJob],
        temperature_schedule: Optional[Dict[int, float]] = None,
    ) -> MachineResult:
        """Cycle-exact specification: step every latch, every cycle."""
        temperature_schedule = temperature_schedule or {}
        selection = _SelectionTracker(self.config.tie_policy, self._rng)
        for job in jobs:
            selection.expect(job.variable_id, len(job.energies))

        # Front-end state.
        job_index = 0
        label_index = None  # decrementing label counter of the current job
        issue_latch = None
        energy_latch = None
        min_tracker = None
        issue_cycle_of: Dict[int, int] = {}
        # FIFO entries: (variable_id, label, quantized energy); a
        # variable becomes poppable once its minimum is latched.
        fifo: deque = deque()
        latched_min: Dict[int, int] = {}
        fifo_variables: deque = deque()  # ids in FIFO order
        # Back-end state.
        scale_latch = None
        compare_latch = None
        completions: Dict[int, list] = {}
        network_last_use: Dict[tuple, int] = {}
        winners: Dict[int, int] = {}
        winner_cycle: Dict[int, int] = {}
        stats = {
            "network_conflicts": 0,
            "conflict_stalls": 0,
            "fifo_max_entries": 0,
            "fifo_max_variables": 0,
            "reuse_violations": 0,
            "temperature_stalls": 0,
        }
        cycle = 0
        guard = 0
        while len(winners) < len(jobs):
            window_index = cycle // self.window
            active_waveguide = window_index % self.waveguides
            # 1. Completions feed selection (<= drains the window-of-one
            # case, whose result latches the cycle after it completes).
            for due in sorted(k for k in completions if k <= cycle):
                for variable_id, label, ttf in completions.pop(due):
                    if self._trace is not None:
                        self._trace.record(cycle, "select", variable_id, label)
                    winner = selection.deliver(variable_id, label, ttf)
                    if winner is not None:
                        winners[variable_id] = winner
                        winner_cycle[variable_id] = cycle
                        if self._shadow_bounds is not None:
                            # Swap shadow boundary registers at the
                            # variable boundary — no stall.
                            self._bounds = self._shadow_bounds
                            self._shadow_bounds = None
            # 2. Compare latch issues to the RET circuit.
            if compare_latch is not None:
                variable_id, label, code = compare_latch
                proceed = True
                if code > 0:
                    network = (active_waveguide, int(np.log2(code)))
                    last = network_last_use.get(network)
                    if last is not None and last == window_index:
                        stats["network_conflicts"] += 1
                        if self._conflict_policy == "stall":
                            stats["conflict_stalls"] += 1
                            proceed = False
                    elif last is not None and window_index - last < self.waveguides:
                        stats["reuse_violations"] += 1
                    if proceed:
                        network_last_use[network] = window_index
                if proceed:
                    ttf = self._ttf_sampler.sample(np.array([[code]]))[0, 0]
                    completions.setdefault(cycle + self.window - 1, []).append(
                        (variable_id, label, ttf)
                    )
                    if self._trace is not None:
                        for offset in range(self.window):
                            self._trace.record(cycle + offset, "ret", variable_id, label)
                    compare_latch = None
            # 3. Scale latch advances through the comparators.
            if compare_latch is None and scale_latch is not None:
                variable_id, label, scaled = scale_latch
                compare_latch = (variable_id, label, self._convert(scaled))
                if self._trace is not None:
                    self._trace.record(cycle, "convert", variable_id, label)
                scale_latch = None
            # 4. FIFO pop (only for a variable whose minimum is latched).
            if scale_latch is None and fifo and fifo[0][0] in latched_min:
                variable_id, label, energy = fifo.popleft()
                scale_latch = (variable_id, label, energy - latched_min[variable_id])
                if self._trace is not None:
                    self._trace.record(cycle, "scale", variable_id, label)
                if not fifo or fifo[0][0] != variable_id:
                    if fifo_variables and fifo_variables[0] == variable_id:
                        fifo_variables.popleft()
            # 5. Energy latch inserts into the FIFO and updates the min.
            if energy_latch is not None:
                variable_id, label, energy = energy_latch
                fifo.append((variable_id, label, energy))
                if self._trace is not None:
                    self._trace.record(cycle, "fifo", variable_id, label)
                if not fifo_variables or fifo_variables[-1] != variable_id:
                    fifo_variables.append(variable_id)
                if min_tracker is None:
                    min_tracker = energy
                else:
                    min_tracker = min(min_tracker, energy)
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
                if self._trace is not None:
                    self._trace.record(cycle, "energy", issue_latch[0], issue_latch[1])
                issue_latch = None
            # 7. Issue stage: label decrement over the current job.
            if issue_latch is None and job_index < len(jobs):
                job = jobs[job_index]
                if label_index is None:
                    if job_index in temperature_schedule:
                        self.update_temperature(temperature_schedule[job_index])
                    label_index = len(job.energies) - 1
                    issue_cycle_of[job.variable_id] = cycle
                issue_latch = (
                    job.variable_id,
                    label_index,
                    int(job.energies[label_index]),
                )
                if self._trace is not None:
                    self._trace.record(cycle, "issue", job.variable_id, label_index)
                if label_index == 0:
                    job_index += 1
                    label_index = None
                else:
                    label_index -= 1
            cycle += 1
            guard += 1
            if guard > 10_000_000:
                raise ConfigError("new machine did not terminate")
        if self._trace is not None:
            # See LegacyMachine._run_scalar: only traced runs carry the
            # trace-window keys, so event-vs-scalar stats stay identical.
            stats["trace_events"] = len(self._trace.events)
            stats["trace_dropped"] = self._trace.dropped
        result = MachineResult(winners, winner_cycle, cycle, stats)
        result.stats["issue_cycles"] = issue_cycle_of  # type: ignore[assignment]
        return result


#: Paper-facing name for the Fig. 10/11 machine.
NewDesignMachine = NewMachine
