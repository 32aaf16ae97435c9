"""The benchmark's workloads: seeded inputs, one repeat, and its check.

Every workload offers ``setup(seed)`` (build the inputs), ``repeat(state,
traced=False)`` (one closed-loop operation, returning an :class:`Outcome`)
and, when it has a quality ``band`` (its output is a disparity map),
``reference(state)``: the float ``software`` sampler's bad-pixel
percentage on the same scene and seed.
A repeat counts as correct when its digest matches every other repeat's
and its bad-pixel percentage is at most ``band`` points above the
reference, so no change can buy speed by sampling worse.

Only stable public APIs are called (``make_backend``, ``MCMCSolver.run``,
``ParallelTempering.run``, ``CycleCountingBackend``, ``run_experiment``,
``ExperimentEngine``), never an oracle switch.  The package is imported
inside the methods, so ``run.py`` can read this module's workload table
without importing it, and the imports count towards set-up time.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Scratch space for the result cache and image artifacts of each
#: ``paper_quick`` repeat; it lies inside the checkout, and each repeat's
#: directory is removed when the repeat ends.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: The ``poster`` preset's geometry (``repro.data.stereo_data``): with
#: seed 13 and scale 1, :func:`poster_scene` reproduces
#: ``load_stereo("poster")`` exactly.
POSTER = {
    "shape": (84, 112),
    "n_labels": 30,
    "background_range": (2, 10),
    "shapes": (
        ("rect", 0.40, 0.36, 0.22, 0.20, 22),
        ("ellipse", 0.68, 0.70, 0.14, 0.14, 16),
        ("rect", 0.22, 0.74, 0.10, 0.10, 27),
    ),
}


def poster_scene(seed: int, scale: float):
    """Synthetic stereo pair with the poster geometry, drawn from ``seed``.

    Shrinks the image and disparity range together the way
    ``load_stereo`` does.
    """
    from repro.data.stereo_data import make_stereo_dataset

    h, w = POSTER["shape"]
    shape = (max(16, round(h * scale)), max(20, round(w * scale)))
    n_labels = max(6, round(POSTER["n_labels"] * scale))
    background = tuple(
        min(n_labels - 1, max(0, round(d * scale))) for d in POSTER["background_range"]
    )
    shapes = [
        (kind, cy, cx, ry, rx, min(n_labels - 1, max(1, round(d * scale))))
        for kind, cy, cx, ry, rx, d in POSTER["shapes"]
    ]
    return make_stereo_dataset(
        "poster", shape, n_labels, background, shapes, noise_sigma=0.02, seed=seed
    )


def digest(*parts) -> str:
    """Short SHA-256 over arrays (shape, dtype and bytes) and strings."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            hasher.update(part.encode("utf-8"))
        else:
            hasher.update(repr((part.shape, part.dtype.str)).encode("ascii"))
            hasher.update(part.tobytes())
    return hasher.hexdigest()[:16]


@dataclass
class Outcome:
    """What one repeat produced.

    ``work`` is counted in the workload's own unit: label evaluations for
    the functional solves, simulated cycles for the machine solves, and
    engine tasks for ``paper_quick``.
    """

    digest: str
    work: float
    bad_pixel_pct: Optional[float] = None
    attempted: int = 1
    failed: int = 0
    facts: dict = field(default_factory=dict)


@dataclass
class SolveState:
    seed: int
    dataset: object
    model: object
    schedule: object = None


def _bad_pixel(labels, dataset) -> float:
    from repro.metrics import bad_pixel_percentage

    return bad_pixel_percentage(labels, dataset.gt_disparity)


class AnnealedSolve:
    """One annealed single-chain stereo solve on the new design point.

    ``conflict_policy=None`` samples through the functional ``rsu``
    backend; a policy runs every Gibbs batch through the structural
    new-design machine (``CycleCountingBackend``) instead.
    """

    fresh_interpreter = False

    def __init__(self, name, scale, sweeps, band, conflict_policy=None):
        self.name = name
        self.scale = scale
        self.sweeps = sweeps
        self.band = band
        self.conflict_policy = conflict_policy

    def setup(self, seed: int) -> SolveState:
        from repro.apps.stereo import StereoParams, build_stereo_mrf
        from repro.mrf import geometric_for_span

        dataset = poster_scene(seed, self.scale)
        params = StereoParams(iterations=self.sweeps)
        model = build_stereo_mrf(dataset, params)
        schedule = geometric_for_span(params.t0, params.t_final, self.sweeps)
        return SolveState(seed, dataset, model, schedule)

    def _solve(self, state: SolveState, backend):
        from repro.mrf import MCMCSolver

        solver = MCMCSolver(
            state.model, backend, state.schedule, seed=state.seed, track_energy=False
        )
        return solver.run(self.sweeps).labels

    def repeat(self, state: SolveState, traced: bool = False) -> Outcome:
        import numpy as np

        from repro.apps import make_backend
        from repro.core import new_design_config
        from repro.uarch import CycleCountingBackend

        full_scale = state.model.max_energy()
        if self.conflict_policy is None:
            backend = make_backend(
                "rsu", full_scale, seed=state.seed, config=new_design_config()
            )
        else:
            backend = CycleCountingBackend(
                new_design_config(),
                full_scale,
                np.random.default_rng(state.seed),
                conflict_policy=self.conflict_policy,
            )
        labels = self._solve(state, backend)
        if self.conflict_policy is None:
            work = labels.size * state.model.n_labels * self.sweeps
        else:
            work = backend.total_cycles
        return Outcome(digest(labels), work, _bad_pixel(labels, state.dataset))

    def reference(self, state: SolveState) -> float:
        from repro.apps import make_backend

        backend = make_backend("software", state.model.max_energy(), seed=state.seed)
        return _bad_pixel(self._solve(state, backend), state.dataset)


class TemperingLadder:
    """A K-replica parallel-tempering ladder on the chain-batched path."""

    fresh_interpreter = False

    def __init__(self, name, scale, sweeps, band, chains=8):
        self.name = name
        self.scale = scale
        self.sweeps = sweeps
        self.band = band
        self.chains = chains

    def setup(self, seed: int) -> SolveState:
        from repro.apps.stereo import build_stereo_mrf

        dataset = poster_scene(seed, self.scale)
        return SolveState(seed, dataset, build_stereo_mrf(dataset))

    def _run(self, state: SolveState, kind: str):
        from repro.apps import make_backend
        from repro.core import new_design_config
        from repro.mrf import ParallelTempering, geometric_ladder

        full_scale = state.model.max_energy()
        config = new_design_config()
        tempering = ParallelTempering(
            state.model,
            lambda index: make_backend(
                kind, full_scale, seed=state.seed * 100 + index, config=config
            ),
            geometric_ladder(0.05, 0.6, self.chains),
            swap_interval=2,
            seed=state.seed,
        )
        return tempering.run(self.sweeps)

    def repeat(self, state: SolveState, traced: bool = False) -> Outcome:
        result = self._run(state, "rsu")
        work = result.labels.size * state.model.n_labels * self.sweeps * self.chains
        return Outcome(
            digest(result.labels, repr(result.energy_history)),
            work,
            _bad_pixel(result.labels, state.dataset),
        )

    def reference(self, state: SolveState) -> float:
        return _bad_pixel(self._run(state, "software").labels, state.dataset)


@dataclass
class PaperState:
    seed: int
    ids: tuple


class PaperRegistry:
    """The paper's experiment registry at the ``quick`` profile.

    Each repeat runs every id through one ``ExperimentEngine`` on a fresh
    result cache, in a fresh interpreter: users pay the cold start on
    every invocation, so there is no warm-up.
    """

    fresh_interpreter = True
    band = None

    def __init__(self, name, ids=None):
        self.name = name
        self.ids = ids

    def setup(self, seed: int) -> PaperState:
        import repro.experiments as experiments

        return PaperState(seed, tuple(self.ids or experiments.experiment_ids()))

    def repeat(self, state: PaperState, traced: bool = False) -> Outcome:
        import repro.experiments as experiments

        jobs = min(2, len(os.sched_getaffinity(0)))
        WORK_DIR.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="repeat-", dir=WORK_DIR)
        home = os.getcwd()
        # Experiments write their image artifacts under the working
        # directory; keep them, and the cache, out of the source tree.
        os.chdir(scratch)
        try:
            # telemetry=True makes every task report its worker seconds.
            engine = experiments.ExperimentEngine(
                jobs=jobs, cache_dir="cache", use_cache=True, telemetry=traced
            )
            parts = [
                experiments.run_experiment(
                    experiment_id, profile="quick", seed=state.seed, engine=engine
                ).to_json()
                for experiment_id in state.ids
            ]
        finally:
            os.chdir(home)
            shutil.rmtree(scratch, ignore_errors=True)
        stats = engine.stats
        task_s = sum(
            dict(event.detail).get("elapsed_s", 0.0)
            for event in engine.journal.of_kind("telemetry")
        )
        return Outcome(
            digest(*parts),
            stats.tasks,
            attempted=stats.tasks,
            failed=stats.quarantined,
            facts={
                "tasks": stats.tasks,
                "cache_hits": stats.cache_hits,
                "jobs": jobs,
                "task_s": task_s,
            },
        )


def workloads(profile: str = "full") -> dict:
    """Workload table for a profile; ``tiny`` shrinks every input for the
    self-tests and keeps every code path."""
    if profile not in ("full", "tiny"):
        raise ValueError(f"unknown profile {profile!r}")
    tiny = profile == "tiny"
    table = [
        AnnealedSolve("stereo_rsu", 0.25 if tiny else 1.0, 20 if tiny else 200, band=6.0),
        TemperingLadder("ladder_k8", 0.25 if tiny else 0.5, 20 if tiny else 100, band=12.0),
        AnnealedSolve(
            "machine_count", 0.25 if tiny else 0.5, 10 if tiny else 60, band=10.0,
            conflict_policy="count",
        ),
        AnnealedSolve(
            "machine_stall", 0.25 if tiny else 0.5, 10 if tiny else 30, band=10.0,
            conflict_policy="stall",
        ),
        PaperRegistry(
            "paper_quick", ids=("fig6", "table2", "ablations") if tiny else None
        ),
    ]
    return {workload.name: workload for workload in table}
