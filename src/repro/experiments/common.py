"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.apps.stereo import StereoParams, StereoResult
from repro.core.params import RSUConfig
from repro.data.stereo_data import PAPER_STEREO_NAMES
from repro.experiments.engine import get_engine, solve_task
from repro.experiments.profiles import Profile

#: Where experiment image artifacts (PGM maps) are written.
DEFAULT_ARTIFACT_DIR = Path("artifacts")


def stereo_params(profile: Profile, iterations: Optional[int] = None) -> StereoParams:
    """Stereo solver parameters for a profile."""
    return StereoParams(iterations=iterations or profile.stereo_iterations)


def stereo_suite_specs(profile: Profile, sweep: bool = False) -> List[dict]:
    """Loader kwargs for the three stereo datasets at the profile's scale.

    The experiment engine addresses datasets by loader arguments (so
    tasks stay hashable/picklable); ``sweep=True`` selects the smaller
    sweep scale used by many-configuration experiments (Fig. 5, Fig. 8).
    """
    scale = profile.sweep_scale if sweep else profile.stereo_scale
    return [{"name": name, "scale": scale} for name in PAPER_STEREO_NAMES]


def run_stereo_backends(
    dataset_specs: Sequence[dict],
    backends: Dict[str, Optional[RSUConfig]],
    params: StereoParams,
    seed: int = 3,
) -> Dict[str, Dict[str, StereoResult]]:
    """Solve every dataset with every backend through the ambient engine.

    ``dataset_specs`` are ``load_stereo`` kwargs (see
    :func:`stereo_suite_specs`); ``backends`` maps a display name to
    either None (named backend kind equal to the display name) or an
    :class:`RSUConfig` (run through the generic ``rsu`` backend).  The
    whole backend x dataset grid is dispatched as one task batch, so
    ``--jobs N`` parallelizes it and the result cache dedupes re-runs.

    Returns ``results[backend_name][dataset_name]``.
    """
    grid = [
        (backend_name, config, spec)
        for backend_name, config in backends.items()
        for spec in dataset_specs
    ]
    tasks = [
        solve_task(
            "stereo",
            spec,
            backend="rsu" if config is not None else backend_name,
            config=config,
            params=params,
            seed=seed,
        )
        for backend_name, config, spec in grid
    ]
    outcomes = get_engine().run_tasks(tasks)
    results: Dict[str, Dict[str, StereoResult]] = {}
    for (backend_name, _, spec), outcome in zip(grid, outcomes):
        results.setdefault(backend_name, {})[spec["name"]] = outcome
    return results


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""
    items = list(values)
    return sum(items) / len(items)
