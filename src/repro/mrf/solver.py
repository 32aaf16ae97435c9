"""MCMC solver: chromatic Gibbs sweeps with a pluggable sampler backend.

This is the outer loop of Fig. 1.  Each iteration performs one full
sweep of the grid in checkerboard order: all even-parity sites are
resampled simultaneously (they are conditionally independent given the
odd sites), then all odd sites.  The per-site categorical draw is
delegated to a :class:`~repro.core.base.SamplerBackend`, so the same
solver runs the float software baseline, either RSU-G design, or a
pseudo-RNG unit — exactly how the paper's functional simulator swaps
the sampling inner loop.  The sweeps run on the chain-batched
:class:`~repro.mrf.kernel.BatchedSweepWorkspace`, with one solve as its
K=1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.base import SamplerBackend
from repro.mrf.annealing import Schedule
from repro.mrf.checkpoint import (
    CheckpointWriter,
    SolveCheckpoint,
    resolve_checkpoint,
)
from repro.mrf.kernel import BatchedSweepWorkspace
from repro.mrf.model import GridMRF, coloring_masks
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError


@dataclass
class SolveResult:
    """Outcome of an MCMC run."""

    labels: np.ndarray
    energy_history: List[float] = field(default_factory=list)
    temperature_history: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of completed sweeps."""
        return len(self.energy_history)

    @property
    def final_energy(self) -> float:
        """Total MRF energy after the last sweep."""
        if not self.energy_history:
            raise ConfigError("no iterations were run")
        return self.energy_history[-1]


class MCMCSolver:
    """Gibbs/simulated-annealing solver over a :class:`GridMRF`.

    Parameters
    ----------
    model:
        The MRF to sample.
    sampler:
        Backend drawing labels from per-site energies.
    schedule:
        Annealing schedule supplying the per-iteration temperature.
    init:
        Initial labeling: ``"unary"`` (argmin of the unary term, the
        usual data-cost initialization), ``"random"``, or an explicit
        ``(H, W)`` integer array.
    seed:
        Seed for the solver's own randomness (initialization).
    track_energy:
        Record the total energy after every sweep.  Costs one full
        energy evaluation per iteration; disable for benchmarks.
    """

    def __init__(
        self,
        model: GridMRF,
        sampler: SamplerBackend,
        schedule: Schedule,
        init: object = "unary",
        seed: int = 0,
        track_energy: bool = True,
    ):
        self.model = model
        self.sampler = sampler
        self.schedule = schedule
        self.track_energy = track_energy
        self._rng = np.random.default_rng(seed)
        self._masks = coloring_masks(model.shape, model.connectivity)
        self._init = init
        self._workspace: Optional[BatchedSweepWorkspace] = None
        # Resolved once per solver instead of once per sweep.
        self._wants_current = bool(getattr(sampler, "wants_current_labels", False))

    @property
    def workspace(self) -> BatchedSweepWorkspace:
        """The solver's K=1 sweep workspace (created on first use)."""
        if self._workspace is None:
            self._workspace = BatchedSweepWorkspace(self.model, self._masks, 1)
        return self._workspace

    def initial_labels(self) -> np.ndarray:
        """Build the starting labeling according to ``init``."""
        if isinstance(self._init, str):
            if self._init == "unary":
                return np.argmin(self.model.unary, axis=2).astype(np.int64)
            if self._init == "random":
                return self._rng.integers(
                    0, self.model.n_labels, size=self.model.shape, dtype=np.int64
                )
            raise ConfigError(f"unknown init {self._init!r}")
        labels = np.asarray(self._init, dtype=np.int64)
        if labels.shape != self.model.shape:
            raise ConfigError(
                f"init labels shape {labels.shape} != grid shape {self.model.shape}"
            )
        if labels.min() < 0 or labels.max() >= self.model.n_labels:
            raise ConfigError("init labels out of range")
        return labels.copy()

    def sweep(self, labels: np.ndarray, temperature: float) -> np.ndarray:
        """One full checkerboard sweep, in place; returns ``labels``.

        ``labels`` must be a C-contiguous ``(H, W)`` grid; it is bound
        to the workspace as an aliasing ``(1, H, W)`` view, so the
        sweep writes straight into it.  Backends that set
        ``wants_current_labels`` (e.g. the Metropolis-Hastings samplers,
        whose proposal is relative to the current state) receive the
        sites' current labels through ``sample_given_current``.
        """
        stacked = labels[np.newaxis]
        # The caller may have changed the labels since the last sweep.
        self.workspace.bind(stacked)
        self._sweep(stacked, temperature)
        return labels

    def _sweep(self, stacked: np.ndarray, temperature: float) -> None:
        self.workspace.sweep(
            stacked, [temperature], [self.sampler], [self._wants_current]
        )

    def snapshot(self, sweep: int, labels: np.ndarray, result: SolveResult) -> SolveCheckpoint:
        """Resumable checkpoint after ``sweep`` completed sweeps.

        Captures a copy of the labels, the recorded histories, and the
        full RNG state of both the solver (initialization generator) and
        the sampler backend — everything :meth:`run` needs to continue
        byte-identically from this point.
        """
        return SolveCheckpoint(
            kind="solver",
            sweep=sweep,
            labels=np.array(labels, dtype=np.int64, copy=True),
            rng={
                "solver": generator_state(self._rng),
                "sampler": self.sampler.getstate(),
            },
            history={
                "energy": list(result.energy_history),
                "temperature": list(result.temperature_history),
            },
            meta={"shape": tuple(self.model.shape), "sampler": self.sampler.name},
        )

    def _restore(self, checkpoint: SolveCheckpoint, iterations: int):
        """(start sweep, labels, prefilled result) from a checkpoint."""
        if checkpoint.sweep >= iterations:
            raise ConfigError(
                f"checkpoint already has {checkpoint.sweep} sweeps; "
                f"cannot resume a {iterations}-sweep run"
            )
        labels = np.array(checkpoint.labels, dtype=np.int64, copy=True)
        if labels.shape != self.model.shape:
            raise ConfigError(
                f"checkpoint labels shape {labels.shape} != grid shape {self.model.shape}"
            )
        expected = checkpoint.meta.get("sampler")
        if expected is not None and expected != self.sampler.name:
            raise ConfigError(
                f"checkpoint was taken with sampler {expected!r}, "
                f"this solver uses {self.sampler.name!r}"
            )
        set_generator_state(self._rng, checkpoint.rng["solver"])
        self.sampler.setstate(checkpoint.rng["sampler"])
        result = SolveResult(
            labels=labels,
            energy_history=list(checkpoint.history["energy"]),
            temperature_history=list(checkpoint.history["temperature"]),
        )
        return checkpoint.sweep, labels, result

    def run(
        self,
        iterations: int,
        callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_sink=None,
        resume=None,
    ) -> SolveResult:
        """Run ``iterations`` sweeps and return the result.

        ``callback(iteration, labels, temperature)`` is invoked after
        each sweep (labels passed by reference; copy if retained).

        ``checkpoint_every=N`` snapshots the solve every N sweeps to
        ``checkpoint_path`` (atomic checksummed envelope) and/or
        ``checkpoint_sink`` (a callable).  ``resume`` accepts a
        :class:`~repro.mrf.checkpoint.SolveCheckpoint` or a path to one;
        the resumed run continues byte-identically — same labels, same
        histories, same RNG stream consumption — as if never interrupted.
        """
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        writer = CheckpointWriter(checkpoint_every, checkpoint_path, checkpoint_sink)
        checkpoint = resolve_checkpoint(resume, "solver")
        if checkpoint is not None:
            start, labels, result = self._restore(checkpoint, iterations)
        else:
            start = 0
            labels = self.initial_labels()
            result = SolveResult(labels=labels)
        # The (H, W) grid as an aliasing (1, H, W) view: the K=1 sweeps
        # write straight into ``labels``.
        stacked = labels[np.newaxis]
        self.workspace.bind(stacked)
        tel = obs.active()
        prev_labels = labels.copy() if tel is not None else None
        for k in range(start, iterations):
            temperature = self.schedule.temperature(k)
            if tel is not None:
                with tel.span("solver.sweep"):
                    self._sweep(stacked, temperature)
            else:
                self._sweep(stacked, temperature)
            result.temperature_history.append(temperature)
            if self.track_energy:
                result.energy_history.append(self.model.total_energy(labels))
            else:
                result.energy_history.append(float("nan"))
            if tel is not None:
                flips = int(np.count_nonzero(labels != prev_labels))
                np.copyto(prev_labels, labels)
                tel.inc("solver.sweeps")
                tel.inc("solver.flips", flips)
                tel.inc("solver.site_updates", labels.size)
                tel.observe("solver.acceptance_rate", flips / labels.size)
                tel.set_gauge("solver.temperature", temperature)
                if self.track_energy:
                    tel.set_gauge("solver.energy", result.energy_history[-1])
            if callback is not None:
                callback(k, labels, temperature)
                # The callback may have mutated the labels it was
                # handed; resynchronize the padded mirror.
                self.workspace.bind(stacked)
            writer.maybe_emit(k + 1, lambda: self.snapshot(k + 1, labels, result))
        result.labels = labels
        return result
