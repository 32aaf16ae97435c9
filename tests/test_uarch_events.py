"""Cycle-identity proof of the event-driven engine vs the scalar oracles.

The contract of :mod:`repro.uarch.events` is *exactness*: the batched
event path must return the same :class:`MachineResult` — winners, winner
cycles, issue cycles, total cycles, stats — as the per-cycle scalar
machine (reached through ``tests/oracles.py``), and leave
the shared RNG in the identical final state, across designs, conflict
policies, window lengths, matrix shapes and temperature schedules.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.convert as convert
from repro.core import legacy_design_config, new_design_config
from repro.core.pipeline import simulate, simulate_measured
from repro.uarch import (
    CycleCountingBackend,
    LegacyMachine,
    MachineBackend,
    NewMachine,
    PipelineTrace,
)
from repro.util import ConfigError
from tests.oracles import ScalarCycleCountingBackend, ScalarMachineBackend, scalar_machine


def build_pair(design, policy, time_bits, tie_policy, seed):
    """Scalar-oracle and event-driven machines over lockstep RNGs."""
    if design == "legacy":
        config = legacy_design_config(time_bits=time_bits, tie_policy=tie_policy)
        make = lambda rng: LegacyMachine(config, 40.0, rng)  # noqa: E731
    else:
        config = new_design_config(time_bits=time_bits, tie_policy=tie_policy)
        make = lambda rng: NewMachine(  # noqa: E731
            config, 40.0, rng, conflict_policy=policy
        )
    rng_scalar = np.random.default_rng(seed)
    rng_event = np.random.default_rng(seed)
    return scalar_machine(make(rng_scalar)), make(rng_event), rng_scalar, rng_event


def assert_identical(result_scalar, result_event):
    for field in ("winners", "winner_cycle", "issue_cycle"):
        expected, actual = getattr(result_scalar, field), getattr(result_event, field)
        assert actual.dtype == expected.dtype == np.int64
        assert np.array_equal(actual, expected)
    assert result_event.total_cycles == result_scalar.total_cycles
    assert result_event.stats == result_scalar.stats


class TestCycleIdentityMatrix:
    @pytest.mark.parametrize(
        "design,policy",
        [("legacy", None), ("new", "count"), ("new", "stall")],
    )
    @pytest.mark.parametrize("time_bits", [3, 5, 8])
    @pytest.mark.parametrize("labels", [2, 16])
    @pytest.mark.parametrize("with_updates", [False, True])
    def test_matrix(self, design, policy, time_bits, labels, with_updates):
        schedule = {0: 20.0, 2: 60.0, 5: 30.0} if with_updates else {}
        quantized = np.random.default_rng(17).integers(0, 256, (6, labels))
        scalar, event, rng_scalar, rng_event = build_pair(
            design, policy, time_bits, "random", seed=11
        )
        assert_identical(
            scalar.run_matrix(quantized, temperature_schedule=schedule),
            event.run_matrix(quantized, temperature_schedule=schedule),
        )
        # The engines consumed the identical entropy stream: the two
        # generators are in the same state bit for bit.
        assert rng_scalar.bit_generator.state == rng_event.bit_generator.state

    @pytest.mark.parametrize("tie_policy", ["first", "last", "random"])
    def test_tie_policies(self, tie_policy):
        # Equal energies force ties in every variable.
        quantized = np.full((5, 4), 7, dtype=np.int64)
        scalar, event, rng_scalar, rng_event = build_pair(
            "new", "count", 5, tie_policy, seed=3
        )
        assert_identical(scalar.run_matrix(quantized), event.run_matrix(quantized))
        assert rng_scalar.bit_generator.state == rng_event.bit_generator.state

    @pytest.mark.parametrize(
        "design,policy",
        [("legacy", None), ("new", "count"), ("new", "stall")],
    )
    def test_single_row_and_single_label(self, design, policy):
        single_row = np.array([[4, 200]])  # the update lands past the run
        single_label = np.random.default_rng(7).integers(0, 256, (5, 1))
        for quantized in (single_row, single_label):
            scalar, event, rng_scalar, rng_event = build_pair(
                design, policy, 5, "random", seed=5
            )
            assert_identical(
                scalar.run_matrix(quantized, temperature_schedule={1: 25.0}),
                event.run_matrix(quantized, temperature_schedule={1: 25.0}),
            )
            assert rng_scalar.bit_generator.state == rng_event.bit_generator.state

    @pytest.mark.parametrize(
        "design,policy",
        [("legacy", None), ("new", "count"), ("new", "stall")],
    )
    def test_updates_outside_the_rows_are_ignored(self, design, policy):
        quantized = np.random.default_rng(3).integers(0, 256, (4, 3))
        schedule = {-1: 20.0, 1: 60.0, 4: 30.0}
        scalar, event, rng_scalar, rng_event = build_pair(
            design, policy, 5, "random", seed=2
        )
        result = event.run_matrix(quantized, temperature_schedule=schedule)
        assert_identical(
            scalar.run_matrix(quantized, temperature_schedule=schedule), result
        )
        assert rng_scalar.bit_generator.state == rng_event.bit_generator.state
        _, reference, _, _ = build_pair(design, policy, 5, "random", seed=2)
        assert_identical(reference.run_matrix(quantized, {1: 60.0}), result)

    def test_end_state_tables_match(self):
        """After a run with updates, both paths leave the machine with
        the same live conversion tables (the next run's starting state)."""
        quantized = np.random.default_rng(0).integers(0, 256, (4, 3))
        scalar, event, _, _ = build_pair("legacy", None, 5, "random", seed=1)
        scalar.run_matrix(quantized, temperature_schedule={2: 20.0})
        event.run_matrix(quantized, temperature_schedule={2: 20.0})
        assert np.array_equal(scalar._lut, event._lut)

        # The single row's update swaps in at its own delivery, after the
        # last convert: only the end state sees it.
        single_row = np.array([[4, 200, 9]])
        for policy in ("count", "stall"):
            for rows, schedule in ((quantized, {2: 20.0}), (single_row, {0: 20.0})):
                scalar, event, _, _ = build_pair("new", policy, 5, "random", seed=1)
                scalar.run_matrix(rows, temperature_schedule=schedule)
                event.run_matrix(rows, temperature_schedule=schedule)
                assert np.array_equal(scalar._bounds, event._bounds)
                assert scalar._shadow_bounds is None
                assert event._shadow_bounds is None

    @pytest.mark.parametrize("time_bits", [3, 5, 8])
    @pytest.mark.parametrize(
        "case",
        ["equal_energies", "all_cut_off", "cut_off_then_update", "update_every_job"],
    )
    def test_stall_policy_extremes(self, time_bits, case):
        """The stall walk at its extremes: one code per row (every issue
        of a window collides), no active lane at all, and a boundary swap
        after every job (one repair pass per swap)."""
        rows = np.random.default_rng(23).integers(0, 256, (8, 5))
        schedule = {}
        if case == "equal_energies":
            rows = np.full((8, 5), 7)
        elif case == "cut_off_then_update":
            schedule = {3: 20.0}
        elif case == "update_every_job":
            schedule = {job: (20.0, 60.0, 5.0)[job % 3] for job in range(8)}
        scalar, event, rng_scalar, rng_event = build_pair(
            "new", "stall", time_bits, "random", seed=9
        )
        if "cut_off" in case:
            # No temperature cuts a row's minimum (scaled energy 0), so
            # load registers that cut every lane off.
            for machine in (scalar, event):
                machine._bounds = np.full_like(machine._bounds, -1.0)
        result = event.run_matrix(rows, temperature_schedule=schedule)
        assert_identical(scalar.run_matrix(rows, temperature_schedule=schedule), result)
        assert rng_scalar.bit_generator.state == rng_event.bit_generator.state
        assert np.array_equal(scalar._bounds, event._bounds)
        if case == "equal_energies" and event.window > 1:
            assert result.stats["conflict_stalls"] > 0
        if case == "all_cut_off":
            assert result.stats["network_conflicts"] == 0


class TestMachineInTheLoop:
    def test_end_to_end_solve_byte_identical(self):
        """A full machine-in-the-loop stereo solve produces the same
        labels and the same cycle counts on both paths."""
        from repro.apps.stereo import StereoParams, build_stereo_mrf
        from repro.data import load_stereo
        from repro.mrf import MCMCSolver, geometric_for_span

        def solve(event_driven):
            dataset = load_stereo("poster", scale=0.10)
            params = StereoParams(iterations=12)
            model = build_stereo_mrf(dataset, params)
            backend_cls = (
                CycleCountingBackend if event_driven else ScalarCycleCountingBackend
            )
            backend = backend_cls(
                new_design_config(),
                model.max_energy(),
                np.random.default_rng(5),
            )
            schedule = geometric_for_span(
                params.t0, params.t_final, params.iterations
            )
            solver = MCMCSolver(
                model, backend, schedule, seed=3, track_energy=False
            )
            labels = solver.run(params.iterations).labels
            return labels, backend.total_cycles, backend.batch_cycles

        labels_event, cycles_event, batches_event = solve(True)
        labels_scalar, cycles_scalar, batches_scalar = solve(False)
        assert np.array_equal(labels_event, labels_scalar)
        assert cycles_event == cycles_scalar
        assert batches_event == batches_scalar

    def test_legacy_backend_identical(self):
        energies = np.random.default_rng(1).random((10, 4))
        outs = []
        for backend_cls in (MachineBackend, ScalarMachineBackend):
            backend = backend_cls(
                legacy_design_config(),
                1.0,
                np.random.default_rng(0),
            )
            outs.append(
                (backend.sample(energies, 0.1), backend.total_cycles)
            )
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]


class TestTableHoisting:
    def test_boundary_table_built_once_across_runs(self):
        convert._boundary_table.cache_clear()
        try:
            config = new_design_config()
            machine = NewMachine(config, 40.0, np.random.default_rng(0))
            quantized = np.random.default_rng(1).integers(0, 256, (5, 4))
            machine.run_matrix(quantized)
            machine.run_matrix(quantized)
            machine.run_matrix(quantized)
            assert convert._boundary_table.cache_info().misses == 1
            # A second machine at the same design point reuses the table.
            NewMachine(config, 40.0, np.random.default_rng(2))
            assert convert._boundary_table.cache_info().misses == 1
        finally:
            convert._boundary_table.cache_clear()

    def test_legacy_lut_built_once_per_temperature(self):
        convert._conversion_lut.cache_clear()
        try:
            config = legacy_design_config()
            machine = LegacyMachine(config, 40.0, np.random.default_rng(0))
            quantized = np.random.default_rng(1).integers(0, 256, (5, 4))
            machine.run_matrix(quantized)
            machine.run_matrix(quantized)
            assert convert._conversion_lut.cache_info().misses == 1
            machine.update_temperature(20.0)  # new temperature: one build
            assert convert._conversion_lut.cache_info().misses == 2
            machine.update_temperature(40.0)  # cached from the ctor
            assert convert._conversion_lut.cache_info().misses == 2
        finally:
            convert._conversion_lut.cache_clear()

    def test_cached_tables_are_read_only(self):
        for table in (
            convert.boundary_table(40.0, new_design_config()),
            convert.conversion_lut(40.0, legacy_design_config()),
        ):
            with pytest.raises(ValueError):
                table[0] = 0


class TestTraceRingBuffer:
    def test_keeps_most_recent_events(self):
        trace = PipelineTrace(max_events=5)
        for cycle in range(20):
            trace.record(cycle, "issue", 0, 0)
        assert len(trace.events) == 5
        assert trace.dropped == 15
        assert [e.cycle for e in trace.events] == [15, 16, 17, 18, 19]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            PipelineTrace(max_events=0)

    def test_untraced_run_allocates_no_trace_memory(self):
        """Tracing is opt-in: an untraced run touches no trace storage
        (O(1) — in fact zero — trace allocations)."""
        quantized = np.random.default_rng(3).integers(0, 256, (20, 8))
        config = new_design_config()
        for use_event in (True, False):
            machine = NewMachine(config, 40.0, np.random.default_rng(0))
            if not use_event:
                scalar_machine(machine)
            machine.run_matrix(quantized)  # warm caches outside the snapshot
            tracemalloc.start()
            try:
                machine.run_matrix(quantized)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            trace_bytes = sum(
                stat.size
                for stat in snapshot.filter_traces(
                    [tracemalloc.Filter(True, "*repro/uarch/trace.py")]
                ).statistics("filename")
            )
            assert trace_bytes == 0


def both_machines(energy_bits=8):
    return [
        LegacyMachine(
            legacy_design_config(energy_bits=energy_bits), 40.0, np.random.default_rng(0)
        ),
        NewMachine(
            new_design_config(energy_bits=energy_bits), 40.0, np.random.default_rng(0)
        ),
    ]


class TestJobsFromEnergiesValidation:
    """The energy matrix a run builds its jobs from is checked once, by
    ``run_matrix``, on both machines."""

    def test_accepts_integer_matrix(self):
        for machine in both_machines():
            for dtype in (np.int64, np.uint8, np.int16):
                quantized = np.array([[0, 5, 255], [9, 128, 1]], dtype=dtype)
                assert machine.run_matrix(quantized).winners.shape == (2,)

    def test_rejects_empty_job_list(self):
        for machine in both_machines():
            with pytest.raises(ConfigError, match="non-empty"):
                machine.run_matrix(np.empty((0, 4), dtype=np.int64))

    def test_rejects_zero_label_jobs(self):
        for machine in both_machines():
            with pytest.raises(ConfigError, match="non-empty"):
                machine.run_matrix(np.empty((4, 0), dtype=np.int64))

    def test_rejects_float_dtype(self):
        # Float energies used to be truncated silently.
        for machine in both_machines():
            with pytest.raises(ConfigError, match="integer dtype"):
                machine.run_matrix(np.ones((2, 3)))

    def test_rejects_bool_dtype(self):
        for machine in both_machines():
            with pytest.raises(ConfigError, match="integer dtype"):
                machine.run_matrix(np.ones((2, 3), dtype=bool))

    def test_rejects_wrong_ndim(self):
        for machine in both_machines():
            for quantized in (np.arange(4), np.zeros((2, 2, 2), dtype=np.int64)):
                with pytest.raises(ConfigError):
                    machine.run_matrix(quantized)

    def test_rejects_negative_energy(self):
        # A negative energy used to read the legacy LUT from its far end.
        for machine in both_machines():
            with pytest.raises(ConfigError, match=r"\[0, 256\)"):
                machine.run_matrix(np.array([[-1, 5, 9]]))

    def test_rejects_energy_past_the_grid(self):
        # 256 used to raise a bare IndexError from the 256-entry LUT.
        for machine in both_machines():
            with pytest.raises(ConfigError, match=r"\[0, 256\)"):
                machine.run_matrix(np.array([[0, 256, 9]]))

    def test_grid_follows_energy_bits(self):
        for machine in both_machines(energy_bits=4):
            machine.run_matrix(np.array([[0, 15]]))
            with pytest.raises(ConfigError, match=r"\[0, 16\)"):
                machine.run_matrix(np.array([[0, 16]]))


class TestSimulateMeasured:
    @pytest.mark.parametrize("time_bits", [3, 5, 8])
    @pytest.mark.parametrize("labels", [2, 10])
    def test_new_design_matches_closed_form(self, time_bits, labels):
        config = new_design_config(time_bits=time_bits)
        closed = simulate("new", labels, 12, 5, config)
        measured = simulate_measured("new", labels, 12, 5, config)
        assert measured.total_cycles == closed.total_cycles

    @pytest.mark.parametrize("time_bits", [3, 5, 8])
    def test_legacy_adds_update_issue_slots(self, time_bits):
        """The structural machine spends one issue slot per iteration on
        the update command; otherwise it matches the closed form."""
        config = legacy_design_config(time_bits=time_bits)
        iterations = 4
        closed = simulate("legacy", 6, 10, iterations, config)
        measured = simulate_measured("legacy", 6, 10, iterations, config)
        assert measured.total_cycles == closed.total_cycles + iterations
