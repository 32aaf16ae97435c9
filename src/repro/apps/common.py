"""Shared helpers for the application drivers.

Provides a single backend factory so applications and experiments name
sampler backends the same way: ``software``, ``new_rsug``,
``prev_rsug``, ``rsu`` (custom design point), ``cdf_ideal``,
``cdf_lfsr``, ``cdf_mt19937``, ``greedy`` — plus the shared
single-chain/ensemble solver entry point every application driver runs
its MCMC loop through (:func:`run_chain_solver`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import SamplerBackend
from repro.core.cdf_sampler import CDFSampler
from repro.core.params import RSUConfig
from repro.core.rsu import LegacyRSUG, NewRSUG, RSUGSampler
from repro.core.software import GreedySampler, SoftwareSampler
from repro.mrf.annealing import Schedule
from repro.mrf.batch import EnsembleSolver
from repro.mrf.model import GridMRF
from repro.mrf.solver import MCMCSolver, SolveResult
from repro.obs import telemetry as obs
from repro.rng.lfsr import LFSR
from repro.rng.mt19937 import MT19937
from repro.rng.streams import (
    BufferedBitSource,
    LFSRBitSource,
    MTBitSource,
    NumpyBitSource,
)
from repro.util.errors import ConfigError

BACKEND_KINDS = (
    "software",
    "new_rsug",
    "prev_rsug",
    "rsu",
    "cdf_ideal",
    "cdf_lfsr",
    "cdf_mt19937",
    "greedy",
)


def make_backend(
    kind: str,
    energy_full_scale: float,
    seed: int = 0,
    config: Optional[RSUConfig] = None,
) -> SamplerBackend:
    """Construct a sampler backend by name.

    ``kind == "rsu"`` requires an explicit :class:`RSUConfig`; the named
    design points ignore ``config``.  The ``cdf_lfsr``/``cdf_mt19937``
    backends draw through the bit-sliced/block pseudo-RNG engines behind
    a :class:`BufferedBitSource` prefetcher.
    """
    rng = np.random.default_rng(seed)
    if kind == "software":
        return SoftwareSampler(rng)
    if kind == "greedy":
        return GreedySampler()
    if kind == "new_rsug":
        return NewRSUG(energy_full_scale, rng)
    if kind == "prev_rsug":
        return LegacyRSUG(energy_full_scale, rng)
    if kind == "rsu":
        if config is None:
            raise ConfigError("backend kind 'rsu' requires an explicit RSUConfig")
        return RSUGSampler(config, energy_full_scale, rng)
    if kind == "cdf_ideal":
        return CDFSampler(NumpyBitSource(rng), energy_full_scale=energy_full_scale)
    if kind == "cdf_lfsr":
        source = BufferedBitSource(LFSRBitSource(LFSR(width=19, seed=seed * 2 + 1)))
        return CDFSampler(source, energy_full_scale=energy_full_scale)
    if kind == "cdf_mt19937":
        source = BufferedBitSource(
            MTBitSource(MT19937(seed=(seed * 7919 + 1) & 0xFFFFFFFF))
        )
        return CDFSampler(source, energy_full_scale=energy_full_scale)
    raise ConfigError(f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}")


def run_chain_solver(
    model: GridMRF,
    backend: str,
    schedule: Schedule,
    iterations: int,
    seed: int = 0,
    track_energy: bool = False,
    chains: int = 1,
    config: Optional[RSUConfig] = None,
    telemetry: Optional["obs.Telemetry"] = None,
) -> SolveResult:
    """Run the MCMC loop for an application driver, optionally batched.

    ``chains == 1`` is the classic path: one :class:`MCMCSolver` with
    one ``make_backend(...)`` sampler — bit-for-bit the result every
    driver produced before ensembles existed.  ``chains > 1`` runs a
    best-of-K multi-seed restart ensemble through the batched ``(K, H,
    W)`` workspace (chain ``k`` seeds both its backend and its solver
    with ``seed + k``, so chain 0 reproduces the single-chain run
    exactly) and returns the lowest-energy chain's result.

    ``telemetry`` scopes the given :class:`~repro.obs.Telemetry` around
    the solve (via :func:`repro.obs.use_telemetry`), so solver, sampler,
    and entropy instruments record into it for exactly this run.
    Telemetry never touches an RNG stream: results are byte-identical
    with it on or off.
    """
    if chains < 1:
        raise ConfigError(f"chains must be >= 1, got {chains}")
    if telemetry is not None:
        with obs.use_telemetry(telemetry):
            return run_chain_solver(
                model,
                backend,
                schedule,
                iterations,
                seed=seed,
                track_energy=track_energy,
                chains=chains,
                config=config,
            )
    full_scale = model.max_energy()
    if chains == 1:
        sampler = make_backend(backend, full_scale, seed=seed, config=config)
        solver = MCMCSolver(
            model, sampler, schedule, seed=seed, track_energy=track_energy
        )
        return solver.run(iterations)
    ensemble = EnsembleSolver(
        model,
        lambda index: make_backend(
            backend, full_scale, seed=seed + index, config=config
        ),
        schedule,
        chains=chains,
        seed=seed,
        track_energy=track_energy,
    )
    return ensemble.run(iterations).best_result()
