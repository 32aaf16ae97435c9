"""Pins every sampler backend's telemetry counters and single-block draws.

The counters of a metered solve — one chain, a three-chain ensemble and
a machine-in-the-loop run — show whether each sampler dispatch is
counted exactly once: a moved ``record_sampler_batch`` call would
double-count or drop a batch without changing a single label.  The
``SamplerBackend.sample`` pins hash the labels of two consecutive
single-block draws together with the backend's RNG (or bit-source)
state afterwards, so a changed draw order or entropy consumption shows
as well.  All values were recorded while every backend still had a
separate reference draw, fused single-chain draw and chain-batched
draw; the one remaining draw per backend must reproduce them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.common import BACKEND_KINDS, make_backend
from repro.core import label_distance_matrix, new_design_config
from repro.mrf import EnsembleSolver, GeometricSchedule, GridMRF, MCMCSolver
from repro.obs import telemetry as obs
from repro.uarch import CycleCountingBackend

FULL_SCALE = 12.0
ITERATIONS = 4
PINNED_PREFIXES = ("sampler.", "entropy.", "uarch.")


@pytest.fixture(autouse=True)
def _no_ambient_telemetry():
    obs.disable()
    yield
    obs.disable()


def tiny_model(seed=0, shape=(8, 10), n_labels=5):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=4)


def schedule():
    return GeometricSchedule(t0=4.0, rate=0.85)


def backend(kind, seed=7, tie="random", float_time=False):
    config = None
    if kind == "rsu":
        config = new_design_config(tie_policy=tie, float_time=float_time)
    return make_backend(kind, FULL_SCALE, seed=seed, config=config)


def pinned_counters(tel):
    return {
        name: tel.value(name)
        for name in sorted(tel.counters)
        if name.startswith(PINNED_PREFIXES)
    }


def solve_counters(kind):
    with obs.use_telemetry() as tel:
        MCMCSolver(tiny_model(), backend(kind), schedule(), seed=3).run(ITERATIONS)
    return pinned_counters(tel)


def ensemble_counters(kind):
    with obs.use_telemetry() as tel:
        EnsembleSolver(
            tiny_model(),
            lambda index: backend(kind, seed=100 + index),
            schedule(),
            chains=3,
            seed=7,
        ).run(ITERATIONS)
    return pinned_counters(tel)


def machine_counters():
    with obs.use_telemetry() as tel:
        sampler = CycleCountingBackend(
            new_design_config(tie_policy="random"),
            FULL_SCALE,
            np.random.default_rng(7),
            conflict_policy="stall",
        )
        MCMCSolver(tiny_model(), sampler, schedule(), seed=3).run(ITERATIONS)
    return pinned_counters(tel)


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def _digest(parts) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and JSON of the rest."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            sha.update(f"{array.dtype.str}{array.shape}".encode())
            sha.update(array.tobytes())
        else:
            sha.update(json.dumps(part, sort_keys=True, default=_jsonable).encode())
    return sha.hexdigest()


def sample_digest(case):
    sampler = backend(**SAMPLE_CASES[case])
    energies = np.random.default_rng(21).random((2, 37, 6)) * 3.0
    first = sampler.sample(energies[0], 2.5)
    second = sampler.sample(energies[1], 0.8)
    return _digest([first, second, sampler.getstate()])


SOLVE_COUNTERS = {
    "software": {"entropy.uniforms": 1600, "sampler.batches": 8, "sampler.samples": 320},
    "new_rsug": {
        "entropy.ttf_draws": 1600,
        "entropy.uniforms": 1600,
        "sampler.batches": 8,
        "sampler.samples": 320,
    },
    "prev_rsug": {
        "entropy.ttf_draws": 1600,
        "entropy.uniforms": 1600,
        "sampler.batches": 8,
        "sampler.samples": 320,
    },
    "rsu": {
        "entropy.ttf_draws": 1600,
        "entropy.uniforms": 1600,
        "sampler.batches": 8,
        "sampler.samples": 320,
    },
    "cdf_ideal": {"entropy.uniforms": 320, "sampler.batches": 8, "sampler.samples": 320},
    "cdf_lfsr": {
        "entropy.slab_refills": 1,
        "entropy.slab_uniforms": 32768,
        "entropy.uniforms": 32768,
        "sampler.batches": 8,
        "sampler.samples": 320,
    },
    "cdf_mt19937": {
        "entropy.slab_refills": 1,
        "entropy.slab_uniforms": 32768,
        "entropy.uniforms": 32768,
        "sampler.batches": 8,
        "sampler.samples": 320,
    },
    "greedy": {"sampler.batches": 8, "sampler.samples": 320},
}

ENSEMBLE_COUNTERS = {
    "software": {"entropy.uniforms": 4800, "sampler.batches": 8, "sampler.samples": 960},
    "new_rsug": {
        "entropy.ttf_draws": 4800,
        "entropy.uniforms": 4800,
        "sampler.batches": 8,
        "sampler.samples": 960,
    },
    "prev_rsug": {
        "entropy.ttf_draws": 4800,
        "entropy.uniforms": 4800,
        "sampler.batches": 8,
        "sampler.samples": 960,
    },
    "rsu": {
        "entropy.ttf_draws": 4800,
        "entropy.uniforms": 4800,
        "sampler.batches": 8,
        "sampler.samples": 960,
    },
    "cdf_ideal": {"entropy.uniforms": 960, "sampler.batches": 24, "sampler.samples": 960},
    "cdf_lfsr": {
        "entropy.slab_refills": 3,
        "entropy.slab_uniforms": 98304,
        "entropy.uniforms": 98304,
        "sampler.batches": 24,
        "sampler.samples": 960,
    },
    "cdf_mt19937": {
        "entropy.slab_refills": 3,
        "entropy.slab_uniforms": 98304,
        "entropy.uniforms": 98304,
        "sampler.batches": 24,
        "sampler.samples": 960,
    },
    "greedy": {"sampler.batches": 8, "sampler.samples": 960},
}

MACHINE_COUNTERS = {
    "sampler.batches": 8,
    "sampler.samples": 320,
    "uarch.batches": 8,
    "uarch.cycles": 3713,
    "uarch.labels": 1600,
    "uarch.network_conflicts": 2017,
    "uarch.stalls": 2017,
    "uarch.trace_dropped": 0,
}

SAMPLE_CASES = {kind: {"kind": kind} for kind in BACKEND_KINDS if kind != "rsu"}
SAMPLE_CASES.update(
    {f"rsu-{tie}": {"kind": "rsu", "tie": tie} for tie in ("first", "last", "random")}
)
SAMPLE_CASES["rsu-random-float_time"] = {"kind": "rsu", "float_time": True}

SAMPLE_DIGESTS = {
    "cdf_ideal": (
        "362ca614d1cb275638f6d7fc5e0d469a04ed87b3acb9bbf55b0f0d4cc94004a1"
    ),
    "cdf_lfsr": (
        "12161d094249e10672e85477b85cf595470d4fbcc057eaa715343ad79ef47e3f"
    ),
    "cdf_mt19937": (
        "5b20bff1c933d5cf84a729d78eb90dbb2beb6bfba1481348de950147fb2dd14a"
    ),
    "greedy": (
        "2d089b2cebaaac734b6f968849ef7095b11d58a787a082ad7c5bfafd5f9c35df"
    ),
    "new_rsug": (
        "86d36f65dde72968ac4fd486eba8f5a9cdf3a91dc200402071c504a56315d30c"
    ),
    "prev_rsug": (
        "37a3b330050caa2b25e95c3dae5446707469ec9e4af941c65f49cdfe059d1f52"
    ),
    "rsu-first": (
        "7e64384544cb751f3ac87a8d376edcdda8d324e34629121a2bc3a7ea7d9aa5ca"
    ),
    "rsu-last": (
        "03293fd674347ded452b52680d4f3980141a70a83baa608c723ff11c26509c13"
    ),
    "rsu-random": (
        "86d36f65dde72968ac4fd486eba8f5a9cdf3a91dc200402071c504a56315d30c"
    ),
    "rsu-random-float_time": (
        "19456a4e1528faf3d156e5a5ed6a68fdb218edb0fd9b3f73f6840dd6dfbb87e8"
    ),
    "software": (
        "158e0c8dbb827b3f1881c31a864444c629f52b1982690e533a675afa5560cf32"
    ),
}


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_solve_counters_match_recorded(kind):
    assert solve_counters(kind) == SOLVE_COUNTERS[kind]


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_ensemble_counters_match_recorded(kind):
    assert ensemble_counters(kind) == ENSEMBLE_COUNTERS[kind]


def test_machine_counters_match_recorded():
    assert machine_counters() == MACHINE_COUNTERS


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_matches_recorded_digest(case):
    assert sample_digest(case) == SAMPLE_DIGESTS[case]
