"""Robustness — stereo quality and recovery under injected faults.

Not a figure from the paper: the paper treats device non-idealities
qualitatively (Sec. II-B, IV-B.6).  This experiment quantifies them.
An over-the-wire stereo solve (the :mod:`repro.isa` command interface
against a :class:`~repro.faults.device.FaultyRSUDevice` array) runs
under increasing transient-fault rates and under targeted persistent
faults, with the :class:`~repro.faults.resilient.ResilientDriver`
recovering.  Reported per scenario:

* the degradation curve — bad-pixel percentage vs fault rate, with the
  fault-free run as the reference;
* recovery traffic — NACKs seen, retries that succeeded, retry word
  overhead;
* detection latency — the sweep index of the first health-check
  suspicion for persistent faults, and the quarantine that follows;
* modeled throughput cost — the degraded-array sweep timing of
  :func:`repro.hw.system.degraded_sweep_timing` at the measured retry
  rate and quarantine count.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.params import new_design_config
from repro.data.stereo_data import load_stereo, stereo_cost_volume
from repro.experiments.profiles import FULL, Profile
from repro.experiments.result import ExperimentResult
from repro.faults.device import FaultyRSUDevice
from repro.faults.models import FaultPlan, UnitArrayFault, WireFault
from repro.faults.resilient import ResiliencePolicy, ResilientDriver
from repro.hw.system import ArrayConfig, degraded_sweep_timing
from repro.isa.commands import Configure
from repro.metrics.stereo_metrics import bad_pixel_percentage

#: Transient per-evaluation fault rates swept for the degradation curve.
TRANSIENT_RATES = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05)

#: Units striped over the functional array, plus healthy spares.
N_UNITS = 4
SPARE_UNITS = 2


def _stereo_problem(profile: Profile, seed: int):
    """A driver-ready stereo problem at robustness scale.

    Every evaluation crosses the command interface (encode, decode,
    device block, recovery bookkeeping), so the sweep runs at a reduced
    scale even under the full profile; the code path is identical at
    every scale.
    """
    scale = 0.2 if profile.name == "quick" else 0.3
    iterations = max(12, profile.stereo_iterations // 4)
    dataset = load_stereo("teddy", scale=scale)
    cost = stereo_cost_volume(dataset)
    unary = np.clip(np.round(255.0 * cost / max(cost.max(), 1e-9)), 0, 255)
    unary = unary.astype(np.int64)
    configure = Configure(
        distance="absolute",
        singleton_weight=1,
        doubleton_weight=8,
        n_labels=dataset.n_labels,
        output_shift=2,
    )
    # Grid-unit annealing schedule matched to the shifted 8-bit energies.
    t0, t_final = 60.0, 2.0
    ratio = (t_final / t0) ** (1.0 / max(iterations - 1, 1))
    temperatures = [t0 * ratio**k for k in range(iterations)]
    return dataset, unary, configure, iterations, temperatures, seed


def _solve(
    problem,
    plan: FaultPlan,
    policy: ResiliencePolicy = ResiliencePolicy(),
) -> Tuple[float, ResilientDriver]:
    """One resilient over-the-wire solve; returns (BP%, driver)."""
    dataset, unary, configure, iterations, temperatures, seed = problem
    device = FaultyRSUDevice(
        new_design_config(), np.random.default_rng(seed), plan=plan
    )
    driver = ResilientDriver(device, unary, configure, policy=policy)
    labels = driver.solve(iterations, temperatures)
    return bad_pixel_percentage(labels, dataset.gt_disparity), driver


def _transient_plan(rate: float, seed: int) -> FaultPlan:
    return FaultPlan(
        units=UnitArrayFault(
            n_units=N_UNITS,
            spare_units=SPARE_UNITS,
            transient_rate=rate,
            seed=seed,
        )
    )


def run(
    profile: Profile = FULL, seed: int = 3, artifact_dir: Optional[str] = None
) -> ExperimentResult:
    """Run the robustness experiment: fault-rate sweep plus scenarios."""
    problem = _stereo_problem(profile, seed)
    height, width = problem[0].shape
    labels = problem[0].n_labels
    array = ArrayConfig(units=N_UNITS)
    policy = ResiliencePolicy()

    rows = []
    curve = {}
    baseline_bp = None
    for rate in TRANSIENT_RATES:
        bp, driver = _solve(problem, _transient_plan(rate, seed + 17))
        summary = driver.summary()
        counts = summary["incident_counts"]
        if rate == 0.0:
            baseline_bp = bp
        timing = degraded_sweep_timing(
            height,
            width,
            labels,
            array,
            quarantined=len(summary["quarantined_units"]),
            spare_units=SPARE_UNITS,
            transient_rate=rate,
            max_retries=policy.max_retries,
        )
        curve[f"{rate:g}"] = bp
        rows.append(
            [
                f"transient {rate:g}",
                bp,
                counts.get("unit_nack", 0),
                counts.get("recovered", 0),
                len(summary["quarantined_units"]),
                int(summary["fell_back"]),
                -1 if summary["detection_sweep"] is None else summary["detection_sweep"],
                timing.total_cycles,
            ]
        )

    scenarios = [
        (
            "stuck unit",
            FaultPlan(
                units=UnitArrayFault(
                    n_units=N_UNITS,
                    spare_units=SPARE_UNITS,
                    stuck_units=((1, 0),),
                    seed=seed + 29,
                )
            ),
        ),
        (
            "dead unit",
            FaultPlan(
                units=UnitArrayFault(
                    n_units=N_UNITS,
                    spare_units=SPARE_UNITS,
                    dead_units=(2,),
                    seed=seed + 31,
                )
            ),
        ),
        (
            "dead beyond spares",
            FaultPlan(
                units=UnitArrayFault(
                    n_units=N_UNITS,
                    spare_units=1,
                    dead_units=(0, 1, N_UNITS),
                    seed=seed + 37,
                )
            ),
        ),
        (
            "noisy wire",
            FaultPlan(
                units=UnitArrayFault(
                    n_units=N_UNITS, spare_units=SPARE_UNITS, seed=seed + 41
                ),
                wire=WireFault(flip_rate=5e-4, drop_rate=2e-4, seed=seed + 43),
            ),
        ),
    ]
    for name, plan in scenarios:
        bp, driver = _solve(problem, plan)
        summary = driver.summary()
        counts = summary["incident_counts"]
        quarantined = len(summary["quarantined_units"])
        timing = degraded_sweep_timing(
            height,
            width,
            labels,
            array,
            quarantined=quarantined,
            spare_units=min(SPARE_UNITS, plan.units.spare_units),
        )
        rows.append(
            [
                name,
                bp,
                counts.get("unit_nack", 0),
                counts.get("recovered", 0),
                quarantined,
                int(summary["fell_back"]),
                -1 if summary["detection_sweep"] is None else summary["detection_sweep"],
                timing.total_cycles,
            ]
        )

    return ExperimentResult(
        experiment_id="robustness",
        title="Stereo quality and recovery under injected faults",
        columns=[
            "scenario",
            "BP%",
            "nacks",
            "recovered",
            "quarantined",
            "fell_back",
            "detect_sweep",
            "sweep_cycles",
        ],
        rows=rows,
        notes=[
            "detect_sweep is the sweep of the first health-check incident (-1: none).",
            "sweep_cycles: modeled degraded-array cost at the scenario's quarantine/retry load.",
            f"fault-free reference BP% = {baseline_bp:.3f}.",
        ],
        extra={"degradation_curve": curve, "baseline_bp": baseline_bp},
    )
