"""Benchmarks: structural machine throughput and interface traffic."""

import time

import numpy as np
from conftest import run_once

from repro.core import legacy_design_config, new_design_config
from repro.isa import Configure, RSUDevice, RSUDriver
from repro.uarch import CycleCountingBackend, LegacyMachine, NewMachine
from tests.oracles import ScalarCycleCountingBackend, run_per_cycle


def test_bench_structural_machines(benchmark, bench_profile):
    """Event-driven simulation (the default) of both pipelines on one
    label stream, checked cycle-identical against the scalar oracles."""
    quantized = np.random.default_rng(0).integers(0, 256, (60, 12))

    def run_both():
        legacy = LegacyMachine(
            legacy_design_config(), 40.0, np.random.default_rng(1)
        ).run_matrix(quantized)
        new = NewMachine(
            new_design_config(), 40.0, np.random.default_rng(1)
        ).run_matrix(quantized)
        return legacy, new

    legacy, new = run_once(benchmark, run_both)
    # Same steady-state throughput; the new design has no stalls.
    assert new.stats["temperature_stalls"] == 0
    assert abs(new.total_cycles - legacy.total_cycles) < 50
    # The timed (event-driven) results match the cycle-stepped oracles.
    for design, config, fast in (
        ("legacy", legacy_design_config(), legacy),
        ("new", new_design_config(), new),
    ):
        machine_cls = LegacyMachine if design == "legacy" else NewMachine
        oracle = run_per_cycle(
            machine_cls(config, 40.0, np.random.default_rng(1)), quantized
        )
        assert np.array_equal(fast.winners, oracle.winners)
        assert np.array_equal(fast.winner_cycle, oracle.winner_cycle)
        assert np.array_equal(fast.issue_cycle, oracle.issue_cycle)
        assert fast.total_cycles == oracle.total_cycles
        assert fast.stats == oracle.stats


def test_bench_scalar_oracle_machines(benchmark, bench_profile):
    """The per-cycle scalar oracles, timed for the trajectory record."""
    quantized = np.random.default_rng(0).integers(0, 256, (60, 12))

    def run_both():
        legacy = run_per_cycle(
            LegacyMachine(legacy_design_config(), 40.0, np.random.default_rng(1)),
            quantized,
        )
        new = run_per_cycle(
            NewMachine(new_design_config(), 40.0, np.random.default_rng(1)), quantized
        )
        return legacy, new

    legacy, new = run_once(benchmark, run_both)
    assert new.stats["temperature_stalls"] == 0
    assert abs(new.total_cycles - legacy.total_cycles) < 50


def test_bench_interface_traffic(benchmark, bench_profile):
    """Over-the-wire solve: new design needs 32x fewer update bytes."""
    rng = np.random.default_rng(0)
    unary = rng.integers(0, 30, (14, 18, 4))
    temperatures = [15.0] * 6

    def run_both():
        new_driver = RSUDriver(
            RSUDevice(new_design_config(), np.random.default_rng(1), "new"),
            unary, Configure("binary", 1, 8, 4),
        )
        new_driver.solve(6, temperatures)
        legacy_driver = RSUDriver(
            RSUDevice(legacy_design_config(), np.random.default_rng(1), "legacy"),
            unary, Configure("binary", 1, 8, 4),
        )
        legacy_driver.solve(6, temperatures)
        return new_driver.interface_traffic(), legacy_driver.interface_traffic()

    new_traffic, legacy_traffic = run_once(benchmark, run_both)
    assert legacy_traffic["update_bytes"] == 32 * new_traffic["update_bytes"]
    assert new_traffic["stall_cycles"] == 0


def test_event_engine_beats_per_cycle_machines():
    """A machine-in-the-loop stereo solve (every Gibbs batch through
    ``NewMachine``): the event-driven engine is cycle-identical to the
    per-cycle machines and at least 5x faster."""
    from repro.apps.stereo import StereoParams, build_stereo_mrf
    from repro.data import load_stereo
    from repro.mrf import MCMCSolver, geometric_for_span

    params = StereoParams(iterations=10)
    model = build_stereo_mrf(load_stereo("poster", scale=0.08), params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solve(backend_cls):
        backend = backend_cls(
            new_design_config(), model.max_energy(), np.random.default_rng(5)
        )
        started = time.perf_counter()
        labels = MCMCSolver(
            model, backend, schedule, seed=3, track_energy=False
        ).run(params.iterations).labels
        return time.perf_counter() - started, labels, backend

    event_s, labels_event, event = solve(CycleCountingBackend)
    scalar_s, labels_scalar, scalar = solve(ScalarCycleCountingBackend)
    assert np.array_equal(labels_event, labels_scalar)
    assert event.total_cycles == scalar.total_cycles
    assert event.batch_cycles == scalar.batch_cycles
    event_s = min(event_s, solve(CycleCountingBackend)[0])
    assert scalar_s / event_s >= 5.0, (
        f"event engine only {scalar_s / event_s:.1f}x faster than per-cycle machines"
    )
