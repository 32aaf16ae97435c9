"""Multi-seed restart ensembles: K chains through one sweep workspace.

The paper's accelerator earns its throughput by running many RSU-G
units at once (Sec. IV-B.6 multi-unit layouts, the 1024-unit array),
and its "beyond Gibbs" extensions — parallel tempering, multi-seed
ensembles — are exactly the workloads that run K independent chains
over one shared MRF.  :class:`EnsembleSolver` stacks its restarts into
one ``(K, H, W)`` tensor and sweeps them through the
:class:`~repro.mrf.kernel.BatchedSweepWorkspace` (re-exported here), so
every NumPy call amortizes over K chains; chain ``k`` is byte-identical
to the single ``MCMCSolver`` run with its seed, which
``tests/test_mrf_batch.py`` checks against K independent reference
chains.  :class:`repro.mrf.tempering.ParallelTempering` runs its
replica ladder through the same workspace.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.mrf.annealing import Schedule
from repro.mrf.checkpoint import (
    CheckpointWriter,
    SolveCheckpoint,
    resolve_checkpoint,
)
from repro.mrf.kernel import BatchedSweepWorkspace
from repro.mrf.model import GridMRF, coloring_masks
from repro.mrf.solver import MCMCSolver, SolveResult
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError

__all__ = ["BatchedSweepWorkspace", "EnsembleResult", "EnsembleSolver"]


@dataclass
class EnsembleResult:
    """Outcome of a multi-seed ensemble run (best-of-K restarts)."""

    chain_labels: np.ndarray  # (K, H, W), one final label grid per chain
    energy_histories: List[List[float]]  # per chain, per sweep
    temperature_history: List[float]
    best_chain: int
    best_energy: float = field(default=float("nan"))

    @property
    def n_chains(self) -> int:
        """Number of independent restarts."""
        return self.chain_labels.shape[0]

    @property
    def labels(self) -> np.ndarray:
        """The winning chain's final label grid."""
        return self.chain_labels[self.best_chain]

    def best_result(self) -> SolveResult:
        """The winning chain as a plain :class:`SolveResult`."""
        return SolveResult(
            labels=self.chain_labels[self.best_chain],
            energy_history=list(self.energy_histories[self.best_chain]),
            temperature_history=list(self.temperature_history),
        )


class EnsembleSolver:
    """Multi-seed restart ensemble over one MRF with best-of-K selection.

    Runs K independent chains — chain ``k`` gets ``sampler_factory(k)``
    and solver seed ``seed + k`` — through one shared annealing
    schedule, then keeps the chain with the lowest final energy (ties
    go to the lowest chain index).  Chain 0 reproduces the single-chain
    ``MCMCSolver(model, sampler_factory(0), schedule, seed=seed)`` run
    exactly, so enabling restarts can only improve the returned energy.

    Parameters mirror :class:`~repro.mrf.solver.MCMCSolver`.  Every
    chain count, ``chains=1`` included, sweeps through one
    :class:`BatchedSweepWorkspace`, so every ensemble can checkpoint.
    """

    def __init__(
        self,
        model: GridMRF,
        sampler_factory,
        schedule: Schedule,
        chains: int,
        init: object = "unary",
        seed: int = 0,
        track_energy: bool = True,
    ):
        if chains < 1:
            raise ConfigError(f"chains must be >= 1, got {chains}")
        self.model = model
        self.schedule = schedule
        self.track_energy = track_energy
        self._solvers = [
            MCMCSolver(
                model,
                sampler_factory(index),
                schedule,
                init=init,
                seed=seed + index,
                track_energy=track_energy,
            )
            for index in range(chains)
        ]

    @property
    def n_chains(self) -> int:
        return len(self._solvers)

    def snapshot(
        self,
        sweep: int,
        states: np.ndarray,
        histories: List[List[float]],
        temperature_history: List[float],
    ) -> SolveCheckpoint:
        """Resumable checkpoint of the whole ensemble after ``sweep`` sweeps."""
        return SolveCheckpoint(
            kind="ensemble",
            sweep=sweep,
            labels=np.array(states, dtype=np.int64, copy=True),
            rng={
                "chains": [
                    {
                        "solver": generator_state(solver._rng),
                        "sampler": solver.sampler.getstate(),
                    }
                    for solver in self._solvers
                ],
            },
            history={
                "energy": [list(row) for row in histories],
                "temperature": list(temperature_history),
            },
            meta={"shape": tuple(self.model.shape), "chains": self.n_chains},
        )

    def _restore(self, checkpoint: SolveCheckpoint, iterations: int):
        """(start sweep, states, histories, temperature history)."""
        if checkpoint.sweep >= iterations:
            raise ConfigError(
                f"checkpoint already has {checkpoint.sweep} sweeps; "
                f"cannot resume a {iterations}-sweep run"
            )
        states = np.array(checkpoint.labels, dtype=np.int64, copy=True)
        expected = (self.n_chains,) + self.model.shape
        if states.shape != expected:
            raise ConfigError(
                f"checkpoint states shape {states.shape} != ensemble shape {expected}"
            )
        for solver, chain_state in zip(self._solvers, checkpoint.rng["chains"]):
            set_generator_state(solver._rng, chain_state["solver"])
            solver.sampler.setstate(chain_state["sampler"])
        histories = [list(row) for row in checkpoint.history["energy"]]
        temperature_history = list(checkpoint.history["temperature"])
        return checkpoint.sweep, states, histories, temperature_history

    def run(
        self,
        iterations: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_sink=None,
        resume=None,
    ) -> EnsembleResult:
        """Run every chain for ``iterations`` sweeps; pick the best.

        ``checkpoint_every=N`` snapshots all K chains every N sweeps.
        ``resume`` accepts an ``ensemble``
        :class:`~repro.mrf.checkpoint.SolveCheckpoint` (or a path) and
        continues byte-identically.
        """
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        writer = CheckpointWriter(checkpoint_every, checkpoint_path, checkpoint_sink)
        checkpoint = resolve_checkpoint(resume, "ensemble")
        chains = self.n_chains
        if checkpoint is not None:
            start, states, histories, temperature_history = self._restore(
                checkpoint, iterations
            )
        else:
            start = 0
            states = np.stack([solver.initial_labels() for solver in self._solvers])
            histories = [[] for _ in range(chains)]
            temperature_history = []
        samplers = [solver.sampler for solver in self._solvers]
        wants = [solver._wants_current for solver in self._solvers]
        masks = coloring_masks(self.model.shape, self.model.connectivity)
        workspace = BatchedSweepWorkspace(self.model, masks, chains)
        workspace.bind(states)
        tel = obs.active()
        if tel is not None:
            tel.set_gauge("ensemble.chains", chains)
        for iteration in range(start, iterations):
            temperature = self.schedule.temperature(iteration)
            with tel.span("ensemble.sweep") if tel is not None else nullcontext():
                workspace.sweep(states, [temperature] * chains, samplers, wants)
            if tel is not None:
                tel.inc("ensemble.sweeps", 1)
            temperature_history.append(temperature)
            for k in range(chains):
                histories[k].append(
                    self.model.total_energy(states[k])
                    if self.track_energy
                    else float("nan")
                )
            writer.maybe_emit(
                iteration + 1,
                lambda: self.snapshot(
                    iteration + 1, states, histories, temperature_history
                ),
            )
        return self._assemble(states, histories, temperature_history)

    def _assemble(
        self,
        chain_labels: np.ndarray,
        histories: List[List[float]],
        temperature_history: List[float],
    ) -> EnsembleResult:
        # Selection energies: the recorded finals when tracking, one
        # explicit evaluation per chain otherwise.
        if self.track_energy:
            finals = [history[-1] for history in histories]
        else:
            finals = [
                self.model.total_energy(chain_labels[k])
                for k in range(chain_labels.shape[0])
            ]
        best = int(np.argmin(finals))
        return EnsembleResult(
            chain_labels=chain_labels,
            energy_histories=histories,
            temperature_history=temperature_history,
            best_chain=best,
            best_energy=float(finals[best]),
        )
