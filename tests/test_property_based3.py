"""Property-based tests for the ISA and the structural machines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RSUConfig, legacy_design_config, new_design_config
from repro.isa import (
    Configure,
    Evaluate,
    ReadStatus,
    SetTemperature,
    decode_stream,
    encode_stream,
)
from repro.uarch import LegacyMachine, NewMachine

# ---------------------------------------------------------------------------
# ISA round trips
# ---------------------------------------------------------------------------

configures = st.builds(
    Configure,
    distance=st.sampled_from(["squared", "absolute", "binary"]),
    singleton_weight=st.integers(0, 63),
    doubleton_weight=st.integers(0, 63),
    n_labels=st.integers(1, 64),
    output_shift=st.integers(0, 15),
)
set_temperatures = st.builds(
    SetTemperature, index=st.integers(0, 255), payload=st.integers(0, 255)
)
evaluates = st.builds(
    Evaluate,
    site=st.integers(0, (1 << 28) - 1),
    neighbors=st.tuples(*([st.integers(0, 63)] * 4)),
    valid_mask=st.integers(0, 15),
)
commands = st.one_of(configures, set_temperatures, evaluates, st.just(ReadStatus()))


@settings(max_examples=120, deadline=None)
@given(st.lists(commands, min_size=0, max_size=12))
def test_isa_stream_round_trip(stream):
    assert decode_stream(encode_stream(stream)) == stream


@settings(max_examples=120, deadline=None)
@given(commands)
def test_isa_words_fit_32_bits(command):
    for word in encode_stream([command]):
        assert 0 <= word <= 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Machines across design points
# ---------------------------------------------------------------------------


@st.composite
def machine_workloads(draw):
    time_bits = draw(st.integers(3, 7))
    truncation = draw(st.floats(0.05, 0.9))
    labels = draw(st.integers(2, 8))
    n_vars = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    energies = np.random.default_rng(seed).integers(0, 256, (n_vars, labels))
    return time_bits, truncation, energies


@settings(max_examples=10, deadline=None)
@given(machine_workloads())
def test_new_machine_invariants_any_window(workload):
    time_bits, truncation, jobs = workload
    config = new_design_config(time_bits=time_bits, truncation=truncation)
    machine = NewMachine(config, 40.0, np.random.default_rng(0))
    result = machine.run_matrix(jobs)
    labels = jobs.shape[1]
    # Every variable selected a valid label.
    assert result.winners.shape == (len(jobs),)
    assert np.all((0 <= result.winners) & (result.winners < labels))
    # Structural invariants hold at every design point.
    assert result.stats["fifo_max_variables"] <= 2
    assert result.stats["reuse_violations"] == 0
    # Steady state: fill + one label per cycle.
    from repro.core.pipeline import new_variable_latency

    fill = new_variable_latency(labels, config) - labels
    assert result.total_cycles == fill + labels * len(jobs)


@settings(max_examples=10, deadline=None)
@given(machine_workloads())
def test_legacy_machine_matches_paper_formula_any_window(workload):
    time_bits, truncation, jobs = workload
    config = legacy_design_config(time_bits=time_bits, truncation=truncation)
    machine = LegacyMachine(config, 40.0, np.random.default_rng(0))
    result = machine.run_matrix(jobs)
    labels = jobs.shape[1]
    from repro.core.pipeline import legacy_variable_latency

    fill = legacy_variable_latency(labels, config) - labels
    assert result.total_cycles == fill + labels * len(jobs)
    assert result.stats["hazard_stalls"] == 0
