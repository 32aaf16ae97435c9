"""Pins the over-the-wire device path to recorded digests.

Each digest hashes everything a run of the functional device leaves
behind: the response stream, the :class:`~repro.isa.device.DeviceStats`
counters, the unit trace and NACK counts of a faulty array, and the
final ``bit_generator.state`` of the device, unit-fault and SPAD-fault
generators (plus driver-level outputs such as labels and incident logs).
The digests were recorded from a device that evaluated one EVALUATE
command at a time; the block evaluation of consecutive EVALUATE runs
must reproduce every one of them exactly, including the partial state a
run leaves behind when one of its commands is rejected mid-way.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.params import legacy_design_config, new_design_config
from repro.faults import (
    FaultPlan,
    FaultyRSUDevice,
    ResilientDriver,
    SPADFault,
    UnitArrayFault,
    UnitNack,
    WireFault,
)
from repro.isa import (
    Configure,
    Evaluate,
    ReadStatus,
    RSUDevice,
    RSUDriver,
    SetTemperature,
)
from repro.util import ConfigError, DataError

TEMPERATURES = [40.0, 22.0, 12.0, 6.0, 3.0, 2.0]
CONFIGURE = Configure("absolute", 1, 3, 5, output_shift=1)


def grid_problem(h=9, w=11, m=5, seed=0):
    rng = np.random.default_rng(seed)
    target = np.zeros((h, w), dtype=int)
    target[:, w // 2 :] = m - 1
    unary = rng.integers(0, 40, (h, w, m))
    unary[np.arange(h)[:, None], np.arange(w)[None, :], target] = 0
    return unary


def _jsonable(value):
    if isinstance(value, UnitNack):
        return ["nack", dataclasses.asdict(value)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(device, **extra) -> str:
    """SHA-256 over a device's observable state plus ``extra`` outputs."""
    payload = {
        "responses": [_jsonable(r) if isinstance(r, UnitNack) else r for r in device.responses],
        "stats": device.stats.snapshot(),
        "rng": device._rng.bit_generator.state,
        "extra": extra,
    }
    if isinstance(device, FaultyRSUDevice):
        payload["unit_trace"] = list(device.unit_trace)
        payload["nack_counts"] = dict(device.nack_counts)
        unit_rng = getattr(device, "_unit_rng", None)
        if unit_rng is not None:
            payload["unit_rng"] = unit_rng.bit_generator.state
        fault_rng = getattr(device._ttf, "_fault_rng", None)
        if fault_rng is not None:
            payload["fault_rng"] = fault_rng.bit_generator.state
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def config_for(design, tie):
    if design == "new":
        return new_design_config(tie_policy=tie)
    return legacy_design_config(tie_policy=tie)


DRIVER_DIGESTS = {
    ("new", "first"): "cfa41907ac898a63b52a9f3e4ac82e7299ac72a849acdbd01c5f9ae968957fe6",
    ("new", "last"): "e3e648993929651b08273434f1ee27407910c9d2ca73827606e86bb72a5d6a12",
    ("new", "random"): "db6c5391aec24de81799a4543d43c12d8db58cb9c8f8e379629d37c5131e017e",
    ("legacy", "first"): "60e6e7b2c9e29b31415038a90ecf3879a73aa3f55c09c9624b4015821aac37db",
    ("legacy", "last"): "ad1518762cad71fa4bda544dfd2ac5a4e83e8142a1ccc26e8aa71be38bba1407",
    ("legacy", "random"): "1b2ccf37ebcede06383d45a2d9f451190de2f092ed3f82315f4c40187d4a4760",
}


@pytest.mark.parametrize("design,tie", sorted(DRIVER_DIGESTS))
def test_driver_solve_matches_recorded_digest(design, tie):
    device = RSUDevice(config_for(design, tie), np.random.default_rng(21), design=design)
    driver = RSUDriver(device, grid_problem(), CONFIGURE)
    labels = driver.solve(4, TEMPERATURES)
    got = digest(device, labels=labels, traffic=driver.interface_traffic())
    assert got == DRIVER_DIGESTS[(design, tie)]


RESILIENT_PLANS = {
    "units": (
        "new",
        FaultPlan(
            units=UnitArrayFault(
                n_units=4,
                spare_units=2,
                transient_rate=0.05,
                dead_units=(2,),
                stuck_units=((1, 0),),
                seed=5,
            )
        ),
    ),
    "units_legacy": (
        "legacy",
        FaultPlan(
            units=UnitArrayFault(
                n_units=3, spare_units=1, transient_rate=0.08, dead_units=(0,), seed=6
            )
        ),
    ),
    "wire": (
        "new",
        FaultPlan(
            units=UnitArrayFault(n_units=4, spare_units=2, transient_rate=0.02, seed=7),
            wire=WireFault(flip_rate=4e-3, drop_rate=2e-3, seed=10),
        ),
    ),
    "spad_units": (
        "new",
        FaultPlan(
            units=UnitArrayFault(n_units=3, spare_units=1, seed=9),
            spad=SPADFault(dead_prob=0.05, hot_prob=0.05, jitter_bins=1, seed=10),
        ),
    ),
    "spad_only": (
        "new",
        FaultPlan(spad=SPADFault(dead_prob=0.1, hot_prob=0.02, jitter_bins=2, seed=11)),
    ),
}

RESILIENT_DIGESTS = {
    "units": "4b5b11276b7c1f21f01a97bc909809f5cf54c8672e84a129071b750b9eec7610",
    "units_legacy": "0befa203104ba705861f89aacd8550b122f6434287669bedd8a7a49f4e6da6c9",
    "wire": "5a69f865fd10adbaaddd2825bb9169af7db09f8efb27aabce3aeb75df3373a8a",
    "spad_units": "390a822fdae8282b847532ef25c299cf66cb407d1f979256d4941cd34b3e90ac",
    "spad_only": "f708421351aaed042c3ae2da9e167e29b4323f49eee6161b78275e3e9bc6f065",
}


def resilient_run(name):
    design, plan = RESILIENT_PLANS[name]
    device = FaultyRSUDevice(
        config_for(design, "random"), np.random.default_rng(33), design=design, plan=plan
    )
    driver = ResilientDriver(device, grid_problem(seed=1), CONFIGURE)
    labels = driver.solve(6, TEMPERATURES)
    return device, driver, labels


@pytest.mark.parametrize("name", sorted(RESILIENT_DIGESTS))
def test_resilient_solve_matches_recorded_digest(name):
    device, driver, labels = resilient_run(name)
    got = digest(
        device,
        labels=labels,
        incidents=driver.incidents.to_jsonl(),
        summary=driver.summary(),
    )
    assert got == RESILIENT_DIGESTS[name]


def test_wire_faults_reject_evaluates_mid_run():
    """The wire scenario must exercise the partial-execution path: some
    corrupted transfers decode cleanly but carry an EVALUATE the device
    rejects after earlier commands of the same run have executed."""
    _, driver, _ = resilient_run("wire")
    errors = [dict(i.detail)["error"] for i in driver.incidents.of_kind("transfer_corrupt")]
    assert any("outside the unary memory" in e for e in errors)
    assert any("neighbour label outside" in e for e in errors)


def configured(device, unary_sites=12, m=5):
    rng = np.random.default_rng(2)
    device.load_unary(rng.integers(0, 60, (unary_sites, m)))
    device.execute([Configure("absolute", 1, 4, m, output_shift=1)])
    device.execute([SetTemperature(i, b) for i, b in enumerate((3, 9, 20, 40))])
    return device


def evaluate(site, neighbors=(1, 2, 3, 4), valid=0b1011):
    return Evaluate(site=site, neighbors=neighbors, valid_mask=valid)


#: A run whose fourth EVALUATE addresses a site past the unary memory.
BAD_SITE_STREAM = [
    evaluate(0),
    evaluate(5, valid=0b1111),
    ReadStatus(),
    evaluate(11, valid=0),
    evaluate(3),
    evaluate(40),
    evaluate(7),
]
#: A run whose third EVALUATE carries a valid neighbour past the label set.
BAD_NEIGHBOR_STREAM = [evaluate(1), evaluate(2), evaluate(3, (9, 0, 0, 0), 0b0001), evaluate(4)]
FOLLOW_UP = [evaluate(i % 12, (i % 5, 0, 4, 2), i % 16) for i in range(17)]

REJECT_DIGESTS = {
    "bad_site": (
        "18492513f42ccefab958179a7940940263498be20e9191065dfb9ae5be09755a",
        "9c535e324db1505a80f330de916472d43bdb4692c6d2a4f6eeb80262764cb871",
    ),
    "bad_neighbor": (
        "b1b8ca96bc1ba24dc5c3024e25124f5e74c73a74550f0839f15b84c4ccf91583",
        "15ca34d0fca79cf0a1284d7c55ec8ddf250c9ed32330052b5141ded1e6ca45fa",
    ),
    "no_temperature": "4fae73800a5341d37ccc59b69cefb52c5418f29b9ba47609af67bdfd5e720ad6",
}


@pytest.mark.parametrize(
    "name,stream,error,message",
    [
        ("bad_site", BAD_SITE_STREAM, DataError, "site 40 outside the unary memory"),
        (
            "bad_neighbor",
            BAD_NEIGHBOR_STREAM,
            DataError,
            "neighbour label outside the configured label set",
        ),
    ],
)
def test_rejected_evaluate_keeps_prefix_state(name, stream, error, message):
    device = configured(RSUDevice(new_design_config(), np.random.default_rng(4)))
    with pytest.raises(error, match=message):
        device.execute(stream)
    prefix = digest(device)
    device.execute(FOLLOW_UP)
    assert (prefix, digest(device)) == REJECT_DIGESTS[name]


def test_evaluate_before_temperature_is_rejected_without_entropy():
    device = RSUDevice(new_design_config(), np.random.default_rng(4))
    device.load_unary(np.zeros((4, 3), dtype=int))
    device.execute([Configure("binary", 1, 1, 3)])
    with pytest.raises(ConfigError, match="SET_TEMPERATURE must precede EVALUATE"):
        device.execute([evaluate(0, (0, 0, 0, 0), 0), evaluate(1, (0, 0, 0, 0), 0)])
    assert digest(device) == REJECT_DIGESTS["no_temperature"]


FAULTY_REJECT_DIGESTS = {
    "dead_nack": "3ea6c36e5f9201a554ee573dffc60404f678ffaa25eb837c11b3e07cc9bcca2e",
    "transient": (
        "a772a875c88cb3b3decfffdf3cf0dd7d6913bd2482bc7df88177d995ce0e110e",
        "0d604bc0d24ee1e6f1c5782818c27992149c9357aa204171a48c98aae6324a68",
    ),
}


def test_rejected_evaluate_on_dead_unit_nacks_instead_of_raising():
    plan = FaultPlan(units=UnitArrayFault(n_units=3, spare_units=0, dead_units=(2,)))
    device = configured(FaultyRSUDevice(new_design_config(), np.random.default_rng(4), plan=plan))
    # One warm-up evaluation shifts the stripe so that BAD_SITE_STREAM's
    # bad command (its fifth EVALUATE) takes slot 5 % 3 = 2, the dead unit.
    device.execute([evaluate(0)])
    responses = device.execute(BAD_SITE_STREAM)
    assert responses[5] == UnitNack(site=40, unit=2, kind="dead")
    device.execute(FOLLOW_UP)
    assert digest(device) == FAULTY_REJECT_DIGESTS["dead_nack"]


def test_rejected_evaluates_under_transients_nack_or_raise():
    """Every rejected command draws its transient check; NACKed ones are
    absorbed, the first one that is not raises."""
    plan = FaultPlan(
        units=UnitArrayFault(n_units=2, spare_units=0, transient_rate=0.6, seed=12)
    )
    device = configured(FaultyRSUDevice(new_design_config(), np.random.default_rng(4), plan=plan))
    stream = [evaluate(i % 12 if i % 3 else 30 + i) for i in range(24)]
    with pytest.raises(DataError, match="outside the unary memory"):
        device.execute(stream)
    prefix = digest(device)
    assert any(isinstance(r, UnitNack) and r.site >= 30 for r in device.responses)
    device.execute(FOLLOW_UP)
    assert (prefix, digest(device)) == FAULTY_REJECT_DIGESTS["transient"]


ROBUSTNESS_QUICK_SEED3 = "6527caab5de82140864417784c70235c05c1cb0f96880ea23750bb8bbe5fb6e6"


@pytest.mark.slow
def test_robustness_quick_output_matches_recorded_digest():
    from repro.experiments.profiles import QUICK
    from repro.experiments.robustness import run

    text = run(QUICK, seed=3).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == ROBUSTNESS_QUICK_SEED3
