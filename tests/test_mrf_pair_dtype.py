"""The sweep kernel's pairwise gather dtype and its bit-identity.

``BatchedSweepWorkspace`` gathers and sums the pairwise rows in the
narrowest signed integer dtype that holds ``connectivity *
max|pairwise|`` when every table entry is an integer, and in float64
otherwise.  Either way ``class_energies`` must equal
``GridMRF.site_energies`` bit for bit, chain by chain.
"""

import numpy as np
import pytest

from repro.core import label_distance_matrix
from repro.mrf import BatchedSweepWorkspace, GridMRF, coloring_masks
from repro.mrf.kernel import _pair_sum_dtype

N_LABELS = 30


def pairwise_table(kind):
    if kind == "small":  # truncated absolute: at most 8 * 3 = 24
        return label_distance_matrix(N_LABELS, "absolute", truncate=3)
    if kind == "wide":  # truncated quadratic: up to 8 * 841, past int8
        return label_distance_matrix(N_LABELS, "squared", truncate=2000)
    return label_distance_matrix(N_LABELS, "absolute", truncate=3) * 0.3


EXPECTED_DTYPE = {"small": np.int8, "wide": np.int16, "fractional": np.float64}


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("kind", ["small", "wide", "fractional"])
def test_class_energies_match_model(kind, connectivity, chains):
    rng = np.random.default_rng(5)
    shape = (9, 11)
    model = GridMRF(
        rng.random(shape + (N_LABELS,)) * 7.0,
        pairwise_table(kind),
        0.37,
        connectivity=connectivity,
    )
    masks = coloring_masks(shape, connectivity)
    workspace = BatchedSweepWorkspace(model, masks, chains)
    assert workspace.pair_dtype == EXPECTED_DTYPE[kind]
    labels = rng.integers(0, N_LABELS, (chains,) + shape)
    workspace.bind(labels)
    for index, mask in enumerate(masks):
        energies = workspace.class_energies(index)
        assert energies.dtype == np.float64
        for k in range(chains):
            expected = model.site_energies(labels[k], mask)
            assert energies[k].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "scale, connectivity, dtype",
    [
        (31, 4, np.int8),  # 4 * 31 = 124 fits int8
        (32, 4, np.int16),  # 4 * 32 = 128 does not
        (4095, 8, np.int16),
        (4096, 8, np.int32),
        (2**28 - 1, 8, np.int32),
        (2**28, 8, np.float64),  # 8 * 2**28 is one past int32
        (0.5, 4, np.float64),
    ],
)
def test_dtype_is_the_narrowest_that_holds_the_sum(scale, connectivity, dtype):
    table = np.zeros((3, 2))
    table[0, 1] = table[1, 0] = -scale
    assert _pair_sum_dtype(table, connectivity) == dtype


@pytest.mark.parametrize("entry", [-0.0, np.inf, np.nan])
def test_non_integral_entries_keep_float64(entry):
    table = np.array([[0.0, 1.0], [1.0, entry], [0.0, 0.0]])
    assert _pair_sum_dtype(table, 4) == np.float64
