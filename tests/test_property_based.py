"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    GreedySampler,
    RSUConfig,
    bin_probabilities,
    label_distance_matrix,
    lambda_codes,
    select_first_to_fire,
)
from repro.metrics import (
    global_consistency_error,
    probabilistic_rand_index,
    variation_of_information,
)
from repro.mrf import ConstantSchedule, GeometricSchedule, GridMRF, MCMCSolver
from repro.util.quantize import nearest_pow2, pow2_floor, quantize_unsigned
from tests.oracles import lambda_codes_by_boundaries

# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(hnp.arrays(np.float64, st.integers(1, 30), elements=finite_floats),
       st.integers(1, 12))
def test_quantize_unsigned_bounds_and_idempotence(values, bits):
    out = quantize_unsigned(values, bits)
    assert out.min() >= 0 and out.max() <= (1 << bits) - 1
    assert np.array_equal(quantize_unsigned(out.astype(float), bits), out)


@given(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 10**9)))
def test_pow2_floor_properties(values):
    out = pow2_floor(values)
    positive = values > 0
    assert np.all(out[positive] <= values[positive])
    assert np.all(out[positive] * 2 > values[positive])
    assert np.all(out[~positive] == 0)


@given(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 10**9)))
def test_nearest_pow2_is_nearest(values):
    out = nearest_pow2(values)
    positive = values > 0
    floor = pow2_floor(values)
    ceil = np.where(positive, floor * 2, 0)
    chosen_error = np.abs(out - values)
    assert np.all(chosen_error[positive] <= np.abs(floor - values)[positive])
    assert np.all(chosen_error[positive] <= np.abs(ceil - values)[positive])


# ---------------------------------------------------------------------------
# Energy-to-lambda conversion
# ---------------------------------------------------------------------------

energy_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 10)),
    elements=st.floats(0, 255),
)


@given(energy_rows, st.floats(0.5, 200), st.integers(2, 7))
def test_lambda_codes_in_range_and_max_present(energies, temperature, lambda_bits):
    config = RSUConfig(lambda_bits=lambda_bits)
    codes = lambda_codes(energies, temperature, config)
    assert codes.min() >= 0 and codes.max() <= config.lambda_max_code
    # With scaling, every row's minimum-energy label receives the max code.
    assert np.all(codes.max(axis=1) == config.lambda_max_code)


@given(energy_rows, st.floats(0.5, 200), st.floats(0, 100))
def test_scaling_invariant_to_constant_shift(energies, temperature, shift):
    config = RSUConfig()
    base = lambda_codes(energies, temperature, config)
    shifted = lambda_codes(energies + shift, temperature, config)
    assert np.array_equal(base, shifted)


@given(energy_rows, st.floats(0.5, 200), st.integers(2, 6))
def test_boundary_conversion_equals_lut(energies, temperature, lambda_bits):
    config = RSUConfig(lambda_bits=lambda_bits)
    quantized = np.rint(energies)
    assert np.array_equal(
        lambda_codes(quantized, temperature, config),
        lambda_codes_by_boundaries(quantized, temperature, config),
    )


@given(st.integers(1, 8), st.integers(3, 8),
       st.floats(0.01, 0.95))
def test_bin_probabilities_normalized(code, time_bits, truncation):
    config = RSUConfig(time_bits=time_bits, truncation=truncation)
    mass = bin_probabilities(code, config)
    assert np.isclose(mass.sum(), 1.0)
    assert np.all(mass >= 0)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

ttf_matrices = hnp.arrays(
    np.int64,
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(1, 40),
)


@given(ttf_matrices, st.sampled_from(["first", "last", "random"]))
def test_selection_winner_is_row_minimum(ttf, policy):
    winners = select_first_to_fire(ttf, policy, np.random.default_rng(0))
    row_min = ttf.min(axis=1)
    assert np.all(ttf[np.arange(len(ttf)), winners] == row_min)


@given(ttf_matrices)
def test_selection_first_picks_lowest_tied_index(ttf):
    winners = select_first_to_fire(ttf, "first", np.random.default_rng(0))
    expected = np.argmin(ttf, axis=1)  # argmin returns the first minimum
    assert np.array_equal(winners, expected)


# ---------------------------------------------------------------------------
# MRF / solver
# ---------------------------------------------------------------------------


@st.composite
def small_mrfs(draw):
    h = draw(st.integers(2, 6))
    w = draw(st.integers(2, 6))
    m = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    unary = rng.random((h, w, m))
    weight = draw(st.floats(0.0, 1.0))
    return GridMRF(unary, label_distance_matrix(m, "binary"), weight)


@settings(max_examples=25, deadline=None)
@given(small_mrfs(), st.integers(0, 100))
def test_greedy_sweep_never_increases_energy(model, seed):
    solver = MCMCSolver(
        model, GreedySampler(), ConstantSchedule(1.0), init="random", seed=seed
    )
    labels = solver.initial_labels()
    energies = [model.total_energy(labels)]
    for _ in range(3):
        solver.sweep(labels, 1.0)
        energies.append(model.total_energy(labels))
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


@settings(max_examples=15, deadline=None)
@given(small_mrfs())
def test_solver_labels_always_in_range(model):
    from repro.core import SoftwareSampler

    solver = MCMCSolver(
        model,
        SoftwareSampler(np.random.default_rng(0)),
        GeometricSchedule(t0=1.0, rate=0.8),
        init="random",
    )
    result = solver.run(3)
    assert result.labels.min() >= 0
    assert result.labels.max() < model.n_labels


# ---------------------------------------------------------------------------
# Segmentation metrics
# ---------------------------------------------------------------------------

label_grids = hnp.arrays(
    np.int64, st.tuples(st.integers(2, 8), st.integers(2, 8)), elements=st.integers(0, 3)
)


@settings(max_examples=40, deadline=None)
@given(label_grids, label_grids)
def test_metric_invariants(seg_a, seg_b):
    if seg_a.shape != seg_b.shape:
        seg_b = np.resize(seg_b, seg_a.shape)
    voi_ab = variation_of_information(seg_a, seg_b)
    voi_ba = variation_of_information(seg_b, seg_a)
    assert voi_ab >= -1e-9
    assert abs(voi_ab - voi_ba) < 1e-9
    pri = probabilistic_rand_index(seg_a, seg_b)
    assert -1e-9 <= pri <= 1 + 1e-9
    gce = global_consistency_error(seg_a, seg_b)
    assert -1e-9 <= gce <= 1 + 1e-9


@settings(max_examples=25, deadline=None)
@given(label_grids, st.integers(1, 3))
def test_voi_permutation_invariance(seg, offset):
    # A cyclic relabeling is the same partition, so VoI must be ~zero
    # and PRI must be ~one.
    permuted = (seg + offset) % 4
    assert abs(variation_of_information(seg, permuted)) < 1e-9
    assert abs(probabilistic_rand_index(seg, permuted) - 1.0) < 1e-12
