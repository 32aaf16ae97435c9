"""Parallel tempering (replica exchange) over grid MRFs.

Another "more than Gibbs sampling" extension (Sec. IV-D): several
chains run at a ladder of fixed temperatures; periodically, adjacent
chains propose to swap their states with the Metropolis acceptance

    P(swap) = min(1, exp((1/T_i - 1/T_j) * (E_i - E_j))),

which preserves each chain's stationary distribution while letting the
cold chain escape local minima through the hot ones.  Each chain uses
an independent sampler backend, so tempering runs identically on the
software baseline or on RSU-G hardware models (one RSU-G per replica —
exactly the multi-unit layouts of Sec. IV-B.6).

The replica ladder is the canonical batched-chain workload: the whole
ladder sweeps through one
:class:`~repro.mrf.kernel.BatchedSweepWorkspace` (all replicas stacked
into a ``(K, H, W)`` tensor, one fused dispatch per colour class), and
the swap rounds draw their uniforms as one block per round.  The result
is byte-identical — same labels, same energy histories, same swap
decisions, same consumption of every RNG stream — to K independent
reference chains with per-pair scalar swap draws, which
``tests/test_mrf_batch.py`` checks against ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.core.base import SamplerBackend
from repro.mrf.annealing import ConstantSchedule
from repro.mrf.checkpoint import (
    CheckpointWriter,
    SolveCheckpoint,
    resolve_checkpoint,
)
from repro.mrf.kernel import BatchedSweepWorkspace
from repro.mrf.model import GridMRF, coloring_masks
from repro.mrf.solver import MCMCSolver
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError


def swap_log_alpha(
    t_cold: float, t_hot: float, energy_cold: float, energy_hot: float
) -> float:
    """Log of the (unclamped) replica-swap Metropolis ratio."""
    beta_cold = 1.0 / t_cold
    beta_hot = 1.0 / t_hot
    return (beta_cold - beta_hot) * (energy_cold - energy_hot)


def swap_probability(
    t_cold: float, t_hot: float, energy_cold: float, energy_hot: float
) -> float:
    """Acceptance probability ``min(1, exp(log_alpha))``, overflow-safe.

    The exponent is clamped to ``min(0, log_alpha)`` *before* ``exp``:
    a favourable swap (``log_alpha >= 0``) accepts with probability
    exactly 1.0, and a huge positive ``log_alpha`` — easy to produce
    with a steep ladder and a large energy gap — can never raise
    ``OverflowError`` out of ``math.exp``.
    """
    return math.exp(min(0.0, swap_log_alpha(t_cold, t_hot, energy_cold, energy_hot)))


@dataclass
class TemperingResult:
    """Outcome of a replica-exchange run."""

    labels: np.ndarray  # the coldest chain's final state
    temperatures: List[float]
    energy_history: List[List[float]]  # per sweep, per chain
    swap_attempts: int = 0
    swaps_accepted: int = 0

    @property
    def swap_rate(self) -> float:
        """Fraction of proposed swaps accepted."""
        if self.swap_attempts == 0:
            return 0.0
        return self.swaps_accepted / self.swap_attempts

    @property
    def final_energy(self) -> float:
        """Cold-chain energy after the last sweep."""
        return self.energy_history[-1][0]


class ParallelTempering:
    """Replica-exchange sampler over a shared :class:`GridMRF`.

    Parameters
    ----------
    model:
        The MRF all replicas sample.
    sampler_factory:
        Called once per replica (with the replica index) to build its
        backend — independent entropy per chain.
    temperatures:
        Ladder, coldest first; must be strictly increasing.
    swap_interval:
        Sweeps between swap rounds.
    """

    def __init__(
        self,
        model: GridMRF,
        sampler_factory: Callable[[int], SamplerBackend],
        temperatures: Sequence[float],
        swap_interval: int = 1,
        seed: int = 0,
    ):
        temps = list(temperatures)
        if len(temps) < 2:
            raise ConfigError("need at least two replicas")
        if any(t <= 0 for t in temps):
            raise ConfigError("temperatures must be positive")
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ConfigError("temperatures must be strictly increasing")
        if swap_interval < 1:
            raise ConfigError("swap_interval must be >= 1")
        self.model = model
        self.temperatures = temps
        self.swap_interval = swap_interval
        self._rng = np.random.default_rng(seed)
        self._solvers = [
            MCMCSolver(
                model,
                sampler_factory(index),
                ConstantSchedule(temperature),
                init="random",
                seed=seed + index,
                track_energy=False,
            )
            for index, temperature in enumerate(temps)
        ]

    def snapshot(
        self, sweep: int, states: np.ndarray, result: TemperingResult
    ) -> SolveCheckpoint:
        """Resumable checkpoint of the whole ladder after ``sweep`` sweeps.

        Captures every replica's label grid (chain-stacked), the swap
        generator, each replica's solver and sampler RNG state, and the
        swap bookkeeping — the complete state a run consumes.
        """
        return SolveCheckpoint(
            kind="tempering",
            sweep=sweep,
            labels=np.array(states, dtype=np.int64, copy=True),
            rng={
                "swap": generator_state(self._rng),
                "chains": [
                    {
                        "solver": generator_state(solver._rng),
                        "sampler": solver.sampler.getstate(),
                    }
                    for solver in self._solvers
                ],
            },
            history={
                "energy": [list(row) for row in result.energy_history],
                "swap_attempts": result.swap_attempts,
                "swaps_accepted": result.swaps_accepted,
            },
            meta={
                "shape": tuple(self.model.shape),
                "temperatures": list(self.temperatures),
            },
        )

    def _restore(self, checkpoint: SolveCheckpoint, sweeps: int):
        """(start sweep, (K, H, W) states, prefilled result) from a checkpoint."""
        if checkpoint.sweep >= sweeps:
            raise ConfigError(
                f"checkpoint already has {checkpoint.sweep} sweeps; "
                f"cannot resume a {sweeps}-sweep run"
            )
        chains = len(self._solvers)
        states = np.array(checkpoint.labels, dtype=np.int64, copy=True)
        expected = (chains,) + self.model.shape
        if states.shape != expected:
            raise ConfigError(
                f"checkpoint states shape {states.shape} != ladder shape {expected}"
            )
        saved_temps = checkpoint.meta.get("temperatures")
        if saved_temps is not None and list(saved_temps) != list(self.temperatures):
            raise ConfigError(
                f"checkpoint ladder {saved_temps} != this ladder {self.temperatures}"
            )
        set_generator_state(self._rng, checkpoint.rng["swap"])
        for solver, chain_state in zip(self._solvers, checkpoint.rng["chains"]):
            set_generator_state(solver._rng, chain_state["solver"])
            solver.sampler.setstate(chain_state["sampler"])
        result = TemperingResult(
            labels=states[0],
            temperatures=self.temperatures,
            energy_history=[list(row) for row in checkpoint.history["energy"]],
            swap_attempts=checkpoint.history["swap_attempts"],
            swaps_accepted=checkpoint.history["swaps_accepted"],
        )
        return checkpoint.sweep, states, result

    def run(
        self,
        sweeps: int,
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_sink=None,
        resume=None,
    ) -> TemperingResult:
        """Run all replicas for ``sweeps`` sweeps with periodic swaps.

        ``checkpoint_every=N`` snapshots the ladder every N sweeps to
        ``checkpoint_path`` / ``checkpoint_sink``; ``resume`` accepts a
        ``tempering`` :class:`~repro.mrf.checkpoint.SolveCheckpoint` (or
        a path) and continues byte-identically.
        """
        if sweeps < 1:
            raise ConfigError("sweeps must be >= 1")
        writer = CheckpointWriter(checkpoint_every, checkpoint_path, checkpoint_sink)
        checkpoint = resolve_checkpoint(resume, "tempering")
        chains = len(self._solvers)
        if checkpoint is not None:
            start, states, result = self._restore(checkpoint, sweeps)
        else:
            start = 0
            states = np.stack([solver.initial_labels() for solver in self._solvers])
            result = TemperingResult(
                labels=states[0], temperatures=self.temperatures, energy_history=[]
            )
        samplers = [solver.sampler for solver in self._solvers]
        wants = [solver._wants_current for solver in self._solvers]
        masks = coloring_masks(self.model.shape, self.model.connectivity)
        workspace = BatchedSweepWorkspace(self.model, masks, chains)
        workspace.bind(states)
        tel = obs.active()
        for sweep_index in range(start, sweeps):
            with tel.span("tempering.sweep") if tel is not None else nullcontext():
                workspace.sweep(states, self.temperatures, samplers, wants)
                energies = [
                    self.model.total_energy(states[k]) for k in range(chains)
                ]
            if tel is not None:
                tel.inc("tempering.sweeps", 1)
            if (sweep_index + 1) % self.swap_interval == 0:
                accepted = self._swap_round(sweep_index, energies, result)
                for i in accepted:
                    # Fancy-index row assignment copies the RHS first,
                    # so this swaps the two chains' contents in place.
                    states[[i, i + 1]] = states[[i + 1, i]]
                if accepted:
                    # The padded mirrors of the swapped chains are stale;
                    # resynchronize wholesale before the next sweep.
                    workspace.bind(states)
            result.energy_history.append(energies)
            writer.maybe_emit(
                sweep_index + 1,
                lambda: self.snapshot(sweep_index + 1, states, result),
            )
        result.labels = states[0].copy()
        return result

    def _swap_round(
        self, sweep_index: int, energies: List[float], result: TemperingResult
    ) -> List[int]:
        """Decide one round of adjacent-pair swaps; returns accepted indices.

        Alternates even/odd pair alignment across rounds.  The round's
        uniforms come from one block draw — bit-identical values and
        generator state to per-pair scalar draws — but each comparison
        stays scalar ``math.log`` (``math.log`` and ``np.log`` differ in
        the last ulp on some platforms, and the reference chains in
        ``tests/oracles.py`` use the former).
        """
        start = (sweep_index // self.swap_interval) % 2
        pairs = list(range(start, len(self.temperatures) - 1, 2))
        accepted: List[int] = []
        if not pairs:
            return accepted
        draws = self._rng.random(len(pairs))
        for j, i in enumerate(pairs):
            result.swap_attempts += 1
            log_alpha = swap_log_alpha(
                self.temperatures[i],
                self.temperatures[i + 1],
                energies[i],
                energies[i + 1],
            )
            if math.log(draws[j] + 1e-300) < min(0.0, log_alpha):
                energies[i], energies[i + 1] = energies[i + 1], energies[i]
                result.swaps_accepted += 1
                accepted.append(i)
        tel = obs.active()
        if tel is not None:
            tel.inc("tempering.swap_attempts", len(pairs))
            tel.inc("tempering.swaps_accepted", len(accepted))
        return accepted


def geometric_ladder(t_cold: float, t_hot: float, replicas: int) -> List[float]:
    """Geometrically spaced temperature ladder, coldest first."""
    if t_cold <= 0 or t_hot <= t_cold:
        raise ConfigError("need 0 < t_cold < t_hot")
    if replicas < 2:
        raise ConfigError("replicas must be >= 2")
    ratio = (t_hot / t_cold) ** (1.0 / (replicas - 1))
    return [t_cold * ratio**k for k in range(replicas)]
