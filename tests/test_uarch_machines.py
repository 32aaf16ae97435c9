"""Tests for the structural pipeline machines."""

import numpy as np
import pytest

from repro.core import lambda_codes, legacy_design_config, new_design_config
from repro.core.convert import boundary_codes
from repro.core.pipeline import (
    legacy_temperature_stall,
    legacy_variable_latency,
    new_variable_latency,
)
from repro.uarch import LegacyMachine, NewMachine, events, stream_from_matrix
from repro.util import ConfigError

LEGACY = legacy_design_config()
NEW = new_design_config()


def random_jobs(n_vars=8, labels=10, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n_vars, labels))


class TestJobConstruction:
    def test_jobs_from_matrix(self):
        quantized = random_jobs(3, 5)
        stream = stream_from_matrix(quantized)
        assert (stream.n_jobs, stream.labels, stream.n_evals) == (3, 5, 15)
        # Each job issues its labels from M-1 down to 0.
        assert np.array_equal(stream.energies_eval[5:10], quantized[1, ::-1])
        assert np.array_equal(stream.first_evals, [0, 5, 10])

    def test_rejects_1d(self):
        machine = NewMachine(NEW, 40.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            machine.run_matrix(np.zeros(4, dtype=np.int64))

    def test_rejects_empty_energies(self):
        machine = NewMachine(NEW, 40.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            machine.run_matrix(np.zeros((1, 0), dtype=np.int64))


class TestLegacyMachine:
    def test_requires_unscaled_config(self):
        with pytest.raises(ConfigError):
            LegacyMachine(NEW, 40.0, np.random.default_rng(0))

    def test_single_variable_latency_matches_paper_formula(self):
        for labels in (4, 10, 32):
            jobs = random_jobs(1, labels)
            machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(1))
            result = machine.run_matrix(jobs)
            latency = result.winner_cycle[0] - result.issue_cycle[0] + 1
            assert latency == legacy_variable_latency(labels, LEGACY)
            assert latency == 7 + (labels - 1)

    def test_steady_state_throughput(self):
        labels, n_vars = 12, 20
        machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(2))
        result = machine.run_matrix(random_jobs(n_vars, labels))
        fill = legacy_variable_latency(labels, LEGACY) - labels
        assert result.total_cycles == fill + labels * n_vars

    def test_no_structural_hazards_with_full_replicas(self):
        machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(3))
        result = machine.run_matrix(random_jobs(10, 8))
        assert result.stats["hazard_stalls"] == 0

    def test_all_variables_get_winners_in_range(self):
        labels = 9
        machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(4))
        result = machine.run_matrix(random_jobs(6, labels))
        assert result.winners.shape == (6,)
        assert np.all((0 <= result.winners) & (result.winners < labels))

    def test_temperature_update_stalls_pipeline(self):
        jobs = random_jobs(4, 8)
        machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(5))
        baseline = machine.run_matrix(jobs).total_cycles
        machine2 = LegacyMachine(LEGACY, 40.0, np.random.default_rng(5))
        stalled = machine2.run_matrix(jobs, temperature_schedule={2: 10.0})
        assert stalled.stats["temperature_stalls"] == legacy_temperature_stall(LEGACY)
        assert stalled.total_cycles > baseline + legacy_temperature_stall(LEGACY) - 1

    def test_rejects_empty_jobs(self):
        machine = LegacyMachine(LEGACY, 40.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            machine.run_matrix(np.empty((0, 4), dtype=np.int64))

    @pytest.mark.parametrize("tie", ["first", "last", "random"])
    def test_float_time_run_selects_the_earlier_time_within_a_bin(
        self, tie, monkeypatch
    ):
        # Both labels fire inside the unit bin [2, 3): the float-time
        # machine must select the earlier time, not floor both to a tie
        # that the policy then decides.
        config = legacy_design_config(float_time=True, tie_policy=tie)
        machine = LegacyMachine(config, 40.0, np.random.default_rng(0))
        early, late = int(machine._lut[0]), int(machine._lut[30])
        assert early > late > 0

        def two_times(config, codes, uniforms):
            return np.where(codes == early, 2.25, 2.75)

        monkeypatch.setattr(events, "ttf_bins_from_uniforms", two_times)
        energies = np.array([[0, 30], [30, 0]] * 8)
        result = machine.run_matrix(energies)
        assert result.winners.tolist() == [0, 1] * 8


class TestNewMachine:
    def test_requires_full_technique_stack(self):
        with pytest.raises(ConfigError):
            NewMachine(LEGACY, 40.0, np.random.default_rng(0))

    def test_single_variable_latency_matches_analytic(self):
        for labels in (4, 10, 32):
            jobs = random_jobs(1, labels)
            machine = NewMachine(NEW, 40.0, np.random.default_rng(1))
            result = machine.run_matrix(jobs)
            latency = result.winner_cycle[0] - result.issue_cycle[0] + 1
            assert latency == new_variable_latency(labels, NEW)

    def test_steady_state_throughput_one_label_per_cycle(self):
        labels, n_vars = 12, 25
        machine = NewMachine(NEW, 40.0, np.random.default_rng(2))
        result = machine.run_matrix(random_jobs(n_vars, labels))
        fill = new_variable_latency(labels, NEW) - labels
        assert result.total_cycles == fill + labels * n_vars

    def test_fifo_holds_at_most_two_variables(self):
        machine = NewMachine(NEW, 40.0, np.random.default_rng(3))
        result = machine.run_matrix(random_jobs(20, 7))
        assert result.stats["fifo_max_variables"] <= 2

    def test_no_reuse_violations(self):
        machine = NewMachine(NEW, 40.0, np.random.default_rng(4))
        result = machine.run_matrix(random_jobs(30, 11))
        assert result.stats["reuse_violations"] == 0

    def test_temperature_update_is_stall_free(self):
        jobs = random_jobs(6, 8)
        machine = NewMachine(NEW, 40.0, np.random.default_rng(5))
        baseline = machine.run_matrix(jobs).total_cycles
        machine2 = NewMachine(NEW, 40.0, np.random.default_rng(5))
        updated = machine2.run_matrix(jobs, temperature_schedule={3: 10.0})
        assert updated.stats["temperature_stalls"] == 0
        assert updated.total_cycles == baseline

    def test_conflict_stall_policy_preserves_physics_at_cost(self):
        jobs = random_jobs(15, 10, seed=7)
        count = NewMachine(NEW, 40.0, np.random.default_rng(6), conflict_policy="count")
        stall = NewMachine(NEW, 40.0, np.random.default_rng(6), conflict_policy="stall")
        counted = count.run_matrix(jobs)
        stalled = stall.run_matrix(jobs)
        # The literal Fig. 11 reading produces same-window collisions...
        assert counted.stats["network_conflicts"] > 0
        # ...which the stall policy avoids by paying cycles.
        assert stalled.total_cycles > counted.total_cycles

    def test_winner_distribution_matches_functional_model(self):
        # One dominant label: the machine must pick it almost always,
        # exactly like the functional converter predicts.
        labels = 6
        energies = np.full((120, labels), 200)
        energies[:, 2] = 10  # strong minimum at label 2
        machine = NewMachine(NEW, 5.0, np.random.default_rng(8))
        result = machine.run_matrix(energies)
        codes = lambda_codes(energies[:1].astype(float), 5.0, NEW)
        assert codes[0, 2] == NEW.lambda_max_code
        assert (codes[0] > 0).sum() == 1  # all others cut off
        assert np.all(result.winners == 2)

    def test_selection_follows_lambda_ratios(self):
        # Two competing labels at codes (8, 1): expected win ratio 8:1
        # within the Fig. 7 tolerance at the chosen design point.
        energies = np.zeros((4000, 2), dtype=np.int64)
        # At grid temperature T, code(E') = floor(8 * exp(-E'/T)) -> a
        # difference that lands exactly on code 1 for the second label.
        temperature = 40.0
        energies[:, 1] = int(temperature * np.log(8.0 / 1.0))  # code 1
        machine = NewMachine(NEW, temperature, np.random.default_rng(9))
        result = machine.run_matrix(energies)
        share = (result.winners == 0).mean()
        assert 0.82 < share < 0.95  # ideal 8/9 = 0.889

    def test_float_time_run_never_picks_a_cut_off_label(self):
        # A cut-off label's float TTF is +inf; the run must select on
        # the float values instead of truncating them to integers.
        config = new_design_config(float_time=True)
        small = NewMachine(config, 4.0, np.random.default_rng(0))
        result = small.run_matrix(np.array([[0, 255, 3, 200], [10, 0, 250, 255]]))
        assert result.winners.shape == (2,)
        energies = np.random.default_rng(10).integers(0, 40, size=(60, 5))
        machine = NewMachine(config, 4.0, np.random.default_rng(11))
        result = machine.run_matrix(energies)
        scaled = energies - energies.min(axis=1, keepdims=True)
        live = boundary_codes(machine._bounds, scaled, config.lambda_max_code) > 0
        assert np.all(live[np.arange(len(energies)), result.winners])
        assert np.any(live.sum(axis=1) < live.shape[1])  # cut-off labels exist
