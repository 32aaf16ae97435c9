"""Markov Random Field substrate: grid model, annealing, MCMC solver."""

from repro.mrf.annealing import (
    ConstantSchedule,
    GeometricSchedule,
    LinearSchedule,
    Schedule,
    geometric_for_span,
)
from repro.mrf.batch import BatchedSweepWorkspace, EnsembleResult, EnsembleSolver
from repro.mrf.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointWriter,
    SolveCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.mrf.model import GridMRF, checkerboard_masks, coloring_masks
from repro.mrf.solver import MCMCSolver, SolveResult
from repro.mrf.tempering import (
    ParallelTempering,
    TemperingResult,
    geometric_ladder,
    swap_log_alpha,
    swap_probability,
)

__all__ = [
    "ConstantSchedule",
    "GeometricSchedule",
    "LinearSchedule",
    "Schedule",
    "geometric_for_span",
    "GridMRF",
    "checkerboard_masks",
    "coloring_masks",
    "MCMCSolver",
    "SolveResult",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointWriter",
    "SolveCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "BatchedSweepWorkspace",
    "EnsembleResult",
    "EnsembleSolver",
    "ParallelTempering",
    "TemperingResult",
    "geometric_ladder",
    "swap_log_alpha",
    "swap_probability",
]
