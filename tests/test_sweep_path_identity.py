"""Pins every sweep path and entropy stream to recorded digests.

Each digest hashes everything a run leaves behind: final labels, energy
and temperature histories, swap counts, cycle counts, machine results,
and the final state of every generator the run consumed.  The digests
were recorded before the single-chain sweep kernel, the K-sequential
ensemble and tempering runners and the scalar entropy/µarch switches
were retired; the one remaining sweep engine (the chain-batched
workspace, with a single solve as its K=1 case) must reproduce every
one of them exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import (
    RSUMHSampler,
    SoftwareMHSampler,
    label_distance_matrix,
    legacy_design_config,
    new_design_config,
)
from repro.core.rsu import LegacyRSUG, NewRSUG
from repro.mrf import (
    EnsembleSolver,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    ParallelTempering,
    geometric_ladder,
)
from repro.rng import LFSR, MT19937
from repro.uarch import CycleCountingBackend, LegacyMachine, NewMachine, PipelineTrace

FULL_SCALE = 12.0
ITERATIONS = 6


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


def tiny_model(connectivity=4, seed=0, shape=(10, 12), n_labels=5):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=connectivity)


def schedule():
    return GeometricSchedule(t0=4.0, rate=0.85)


def backend(kind, tie="first", seed=7, float_time=False):
    if kind == "rsu":
        config = new_design_config(tie_policy=tie, float_time=float_time)
        return make_backend("rsu", FULL_SCALE, seed=seed, config=config)
    if kind == "new_rsug":
        return NewRSUG(FULL_SCALE, np.random.default_rng(seed), tie_policy=tie)
    if kind == "prev_rsug":
        return LegacyRSUG(FULL_SCALE, np.random.default_rng(seed), tie_policy=tie)
    if kind == "software_mh":
        return SoftwareMHSampler(np.random.default_rng(seed))
    if kind == "rsu_mh":
        return RSUMHSampler(new_design_config(), FULL_SCALE, np.random.default_rng(seed))
    return make_backend(kind, FULL_SCALE, seed=seed)


def solve_parts(result, sampler):
    return [
        result.labels,
        np.asarray(result.energy_history, dtype=np.float64),
        np.asarray(result.temperature_history, dtype=np.float64),
        sampler.getstate(),
    ]


def solver_case(kind, tie="first", connectivity=4, callback=None, float_time=False):
    def run():
        sampler = backend(kind, tie, float_time=float_time)
        solver = MCMCSolver(
            tiny_model(connectivity), sampler, schedule(), seed=3
        )
        return solve_parts(solver.run(ITERATIONS, callback=callback), sampler)

    return run


def scramble(iteration, labels, temperature):
    if iteration == 2:
        labels[::2, ::3] = 0


def resume_case():
    def build():
        sampler = backend("rsu", "random")
        return MCMCSolver(tiny_model(), sampler, schedule(), seed=3), sampler

    captured = []
    build()[0].run(4, checkpoint_every=2, checkpoint_sink=captured.append)
    parts = []
    for checkpoint in captured:
        solver, sampler = build()
        parts += [checkpoint.sweep, checkpoint.labels]
        parts += solve_parts(solver.run(ITERATIONS, resume=checkpoint), sampler)
    return parts


def ensemble_case(chains, kind="rsu"):
    def run():
        samplers = []

        def factory(index):
            samplers.append(backend(kind, "random", seed=100 + index))
            return samplers[-1]

        result = EnsembleSolver(
            tiny_model(), factory, schedule(), chains=chains, seed=7
        ).run(ITERATIONS)
        return [
            result.chain_labels,
            [list(map(float, history)) for history in result.energy_histories],
            list(map(float, result.temperature_history)),
            result.best_chain,
            float(result.best_energy),
            [sampler.getstate() for sampler in samplers],
        ]

    return run


def tempering_case(kind, connectivity=4):
    def run():
        samplers = []

        def factory(index):
            samplers.append(backend(kind, "random", seed=100 + index))
            return samplers[-1]

        pt = ParallelTempering(
            tiny_model(connectivity),
            factory,
            geometric_ladder(0.3, 2.5, 4),
            swap_interval=1,
            seed=3,
        )
        result = pt.run(10)
        return [
            result.labels,
            [list(map(float, row)) for row in result.energy_history],
            result.swap_attempts,
            result.swaps_accepted,
            [sampler.getstate() for sampler in samplers],
        ]

    return run


def machine_backend_case(policy):
    def run():
        rng = np.random.default_rng(5)
        machine = CycleCountingBackend(
            new_design_config(), FULL_SCALE, rng, conflict_policy=policy
        )
        solver = MCMCSolver(tiny_model(), machine, schedule(), seed=3)
        result = solver.run(4)
        return solve_parts(result, machine) + [
            machine.total_cycles,
            machine.batch_cycles,
            machine.batch_labels,
        ]

    return run


def machine_result_parts(result, rng):
    """The parts the digests were recorded from, when results held
    ``{variable: value}`` dicts and ``stats["issue_cycles"]``."""
    issue_cycles = list(enumerate(result.issue_cycle.tolist()))
    return [
        list(enumerate(result.winners.tolist())),
        list(enumerate(result.winner_cycle.tolist())),
        result.total_cycles,
        sorted([*result.stats.items(), ("issue_cycles", issue_cycles)]),
        rng.bit_generator.state,
    ]


def machine_case(design, traced=False, float_time=False):
    def run():
        quantized = np.random.default_rng(0).integers(0, 256, (12, 6))
        rng = np.random.default_rng(1)
        trace = PipelineTrace(max_events=64) if traced else None
        if design == "legacy":
            config = legacy_design_config(float_time=float_time)
            machine = LegacyMachine(config, 40.0, rng, trace=trace)
        else:
            config = new_design_config(float_time=float_time)
            machine = NewMachine(config, 40.0, rng, trace=trace)
        parts = machine_result_parts(machine.run_matrix(quantized, {5: 20.0}), rng)
        if trace is not None:
            parts.append([(e.cycle, e.stage, e.variable, e.label)
                          for e in trace.events])
        return parts

    return run


def lfsr_case(width):
    def run():
        reg = LFSR(width=width, seed=0b1011)
        out = np.empty(7)
        big = np.empty(400)
        return [
            reg.bits(100),  # under the 256-bit block floor
            reg.bits(300),
            reg.words(10, 19),  # 190 bits
            reg.words(50, 19),
            reg.uniforms(5),
            reg.uniforms(7, out=out),
            reg.uniforms(400, out=big),
            reg.next_word(19),
            reg.getstate(),
        ]

    return run


def mt_case():
    mt = MT19937(seed=42)
    out = np.empty(30)
    return [
        mt.next_u32(),
        mt.words(100),  # inside one 624-word block
        mt.words(700),  # crosses a twist
        mt.uniforms(30, out=out),
        mt.uniforms(2000),
        mt.getstate(),
    ]


CASES = {}
for _kind in ("rsu", "new_rsug", "prev_rsug"):
    for _tie in ("first", "last", "random"):
        for _conn in (4, 8):
            CASES[f"solver-{_kind}-{_tie}-{_conn}"] = solver_case(_kind, _tie, _conn)
for _kind in ("software", "cdf_ideal", "cdf_lfsr", "cdf_mt19937", "greedy"):
    for _conn in (4, 8):
        CASES[f"solver-{_kind}-{_conn}"] = solver_case(_kind, connectivity=_conn)
CASES["solver-rsu-float_time"] = solver_case("rsu", "random", float_time=True)
for _kind in ("software_mh", "rsu_mh"):
    CASES[f"solver-{_kind}"] = solver_case(_kind)
CASES["solver-rsu-callback"] = solver_case("rsu", "random", callback=scramble)
CASES["solver-rsu-resume"] = resume_case
CASES["ensemble-k1"] = ensemble_case(1)
CASES["ensemble-k3"] = ensemble_case(3)
CASES["ensemble-k3-software"] = ensemble_case(3, "software")
CASES["tempering-rsu"] = tempering_case("rsu")
CASES["tempering-rsu-8"] = tempering_case("rsu", connectivity=8)
CASES["tempering-software"] = tempering_case("software")
CASES["tempering-rsu_mh"] = tempering_case("rsu_mh")
CASES["machine-count"] = machine_backend_case("count")
CASES["machine-stall"] = machine_backend_case("stall")
CASES["machine-new"] = machine_case("new")
CASES["machine-legacy"] = machine_case("legacy")
CASES["machine-new-traced"] = machine_case("new", traced=True)
CASES["machine-legacy-traced"] = machine_case("legacy", traced=True)
CASES["machine-legacy-float_time"] = machine_case("legacy", float_time=True)
for _width in (5, 19, 31):
    CASES[f"lfsr-{_width}"] = lfsr_case(_width)
CASES["mt19937"] = mt_case

DIGESTS = {
    "ensemble-k1": (
        "859a2a8d5e11c94c5ac47c9b78995db7d97b8f8bc61b9c467d23f32c03f84d00"
    ),
    "ensemble-k3": (
        "efb5db3772078716ac540ae43e14ca8c8464371b2ac2f19fc94c65d9a68b64d6"
    ),
    "ensemble-k3-software": (
        "d8d22f51e57291343d68b19300d8fc59427465c8bf1608e7b025995c7095dacd"
    ),
    "lfsr-19": (
        "2a0f74004d5319a031f7edb4c697f78ace165cdbcc103bd8cc5f43d7333d1130"
    ),
    "lfsr-31": (
        "11147abba2aa5f751aa98c6cda6a93cf16d54f55e4a84118f9d182e57bd83dc0"
    ),
    "lfsr-5": (
        "1b207f4166f1789000deb8080d907e5a86c157ab8092b09c5f970e45392c9253"
    ),
    "machine-count": (
        "68e9ba70f264539aecb5a2fdd0d5c5282ddc5bd8574c5e59e03e1595098e64ac"
    ),
    "machine-legacy": (
        "c0f9e45bf64812f67222a91503151efdbbb9bac520483557af53d6663c6ba444"
    ),
    # Re-recorded when the legacy machine stopped flooring float-time
    # TTFs: it now selects on the continuous times, as the new one does.
    "machine-legacy-float_time": (
        "3be68d7ea8aeffd1021dab820cedc689108dd692cfd0cf4a7b4671f13226516a"
    ),
    "machine-legacy-traced": (
        "4bb9bafe2937816c6d99fcd0919e1690c5a7b1a92834f0b4c7dc5f4bfbd0c964"
    ),
    "machine-new": (
        "a8c698fd689159f1e5fb450dd79e3f58c321071a3f9855f17552ee46f0cc3406"
    ),
    "machine-new-traced": (
        "0079019697dbf08d3c86b314a70681987a904efd010ac44005abe3bad7d027db"
    ),
    "machine-stall": (
        "32355e5b049961d4d01e7b23d36a63ec1c8ef9025b856fa8e76986b93d875700"
    ),
    "mt19937": (
        "02b879875bf1affa830dfd4950861af979e1e3d546f08ce45b411af9b83c1e92"
    ),
    "solver-cdf_ideal-4": (
        "6b512f5dd4b89db9c7f97f1baf5db1e62d070eb964f447da5f35c027cf953cfa"
    ),
    "solver-cdf_ideal-8": (
        "796544be84e06f9fee4c5be10bf5ec45d286680c94b9109c8aa1dad3fdd40d3b"
    ),
    "solver-cdf_lfsr-4": (
        "d3eb92d8ec4fc8da806f61557119236da0ee8cdbae878bf26bf7d81aab28af58"
    ),
    "solver-cdf_lfsr-8": (
        "04d5690af895147665e108e27724aecfd1aef140aaf08fa8eecfb8c6ba13efc3"
    ),
    "solver-cdf_mt19937-4": (
        "62dd7ffc9f99080ff0a184b090adb86a171e8e6b22b86e985012eaa719aed1e0"
    ),
    "solver-cdf_mt19937-8": (
        "41e6a771b4cc518e3390483848a6d281986d7a740a468e157faef42943ea635f"
    ),
    "solver-greedy-4": (
        "3762aa7db688671d5fd212a91c46241705ac8b7d24ce05a94f81054ab3babb2a"
    ),
    "solver-greedy-8": (
        "510c893a2a45893c66df07a664497513364955d9fa7f43fb53fae0ac6ce4f47e"
    ),
    "solver-new_rsug-first-4": (
        "335ff90257bc8d6620e0c4d84aaf64efc809ad58a08f6e3208570406138cc6f9"
    ),
    "solver-new_rsug-first-8": (
        "5062c1dd0065081dc8e83aea70328e3c365a366641877460ba1add66cd132c81"
    ),
    "solver-new_rsug-last-4": (
        "23964da9463d539d1f29c1a94c1e85f33f3b5ae3df090bbb3904b8ecf5a8e025"
    ),
    "solver-new_rsug-last-8": (
        "0633526919b6731d254ad534cba439c269d1b02916e31ad070cd0f13a5188ab9"
    ),
    "solver-new_rsug-random-4": (
        "3c3487b3a836ce574f2e8607ee19be965afdb1715718734c2d8df6c99baaa0fb"
    ),
    "solver-new_rsug-random-8": (
        "e98d3eb2d0d06e4de85adf2f71084421aae42dd5d1a72420ee1912adbb2a4314"
    ),
    "solver-prev_rsug-first-4": (
        "a99a6e1f7a3c8a18fff9653069f96197934df0e6eab2c6f67bbaeee47b864de3"
    ),
    "solver-prev_rsug-first-8": (
        "ff5fd1fe36d567f69c395576eac4ff4b55dc7278b580a3db6cd5fa7b27993a00"
    ),
    "solver-prev_rsug-last-4": (
        "b8824239b80988639594cef938e95d7df8ff1d2c644ba1def7e23eec7cf66b6f"
    ),
    "solver-prev_rsug-last-8": (
        "9848f79cb906f1a92a6d3b1d5cb58519b97381c80045f9329817491e541a1aee"
    ),
    "solver-prev_rsug-random-4": (
        "3db2bcae8f2a63e15d7fc0a9fc5fde81d22d08ecd8bb07833b49f7b46d7f0f02"
    ),
    "solver-prev_rsug-random-8": (
        "57305298cb8d6902cbd9ca49da3ed1c3426a9fac17da84e08cd64d1d105d202f"
    ),
    "solver-rsu-callback": (
        "f180893a10944dc3bd939db8c7d56698e9c661741ea4a02f1bc90036d809ec9b"
    ),
    "solver-rsu-first-4": (
        "335ff90257bc8d6620e0c4d84aaf64efc809ad58a08f6e3208570406138cc6f9"
    ),
    "solver-rsu-first-8": (
        "5062c1dd0065081dc8e83aea70328e3c365a366641877460ba1add66cd132c81"
    ),
    "solver-rsu-float_time": (
        "90817b43b543dfc963fffba1e842619aa5b6b93d9c5e98538492b2fdf13a6ca9"
    ),
    "solver-rsu-last-4": (
        "23964da9463d539d1f29c1a94c1e85f33f3b5ae3df090bbb3904b8ecf5a8e025"
    ),
    "solver-rsu-last-8": (
        "0633526919b6731d254ad534cba439c269d1b02916e31ad070cd0f13a5188ab9"
    ),
    "solver-rsu-random-4": (
        "3c3487b3a836ce574f2e8607ee19be965afdb1715718734c2d8df6c99baaa0fb"
    ),
    "solver-rsu-random-8": (
        "e98d3eb2d0d06e4de85adf2f71084421aae42dd5d1a72420ee1912adbb2a4314"
    ),
    "solver-rsu-resume": (
        "8138b30251a4437352c79ec0a66fcc5bcec1585b36df839c55fe68abc0fccc23"
    ),
    "solver-rsu_mh": (
        "cc05ee882c98499966ec5b15e89f992b5e8dc73a07a3e9fccab5fa9303e08880"
    ),
    "solver-software-4": (
        "8bba3211dc5d042c335a0230e23cbdb04015c8166fe206d372b9a5f781076b0d"
    ),
    "solver-software-8": (
        "d2901a92c0f575ce8f3d0746745d0f248eaa5e19a5a74c00c0d03dcd08850754"
    ),
    "solver-software_mh": (
        "9e62aae8b2ceb964d6a3f14d7b62fac6849fbad8e12b9ec3633f3a58f9da91da"
    ),
    "tempering-rsu": (
        "048acb9efa6f7b6852e5fbc5dcc7fba069c4bf59ec7235bba8082570398e3e7d"
    ),
    "tempering-rsu-8": (
        "33919ac5649dda4835816c812c1ca34238a4c503707401acfdf57faee2165223"
    ),
    "tempering-rsu_mh": (
        "8d1b4499a0a998b05afb630721aae92a28c1d571df9eedafa62f9a42eb1abbdf"
    ),
    "tempering-software": (
        "c0962dc831f8d8fedafd12e827986133e7f6a115ae5656dd8348eee0652b4c33"
    ),
}


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert _digest(CASES[name]()) == DIGESTS[name]
