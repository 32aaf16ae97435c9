"""First-to-fire selection: every front end against the allocating oracle.

The selection stage keys only the rows whose winner needs the tie order
(a repeated integer minimum, or a float-time row cut off everywhere) and
takes the plain row argmin elsewhere.  These tests drive all three front
ends over blocks built to hit every row kind — no tie, all labels tied,
all labels at the cut-off bin, every float label ``+inf`` — and check
them against ``tests/oracles.py``'s ``first_to_fire``, which keys every
row.  The generators must end in the oracle's state as well, so the
``random`` policy still draws its whole uniform block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.rsu as rsu
from repro.apps import make_backend
from repro.core import (
    SampleScratch,
    first_to_fire_winners,
    label_distance_matrix,
    new_design_config,
    select_first_to_fire,
)
from repro.core.base import select_first_to_fire_chains_into
from repro.core.params import TIE_POLICIES
from repro.mrf import EnsembleSolver, GeometricSchedule, GridMRF, MCMCSolver
from repro.obs import telemetry as obs
from tests.oracles import first_to_fire, tied_row_count

#: Integer bin every label of a cut-off row takes (larger than any live bin).
CUT_OFF_BIN = 33
FREE, TIED, CUT_OFF = 0, 1, 2


@st.composite
def ttf_blocks(draw):
    """A ``(K, n_sites, M)`` TTF block with a drawn kind for every row."""
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float64]))
    chains = draw(st.sampled_from([1, 3]))
    n_labels = draw(st.sampled_from([1, 2, 5, 30]))
    n_sites = draw(st.integers(1, 6))
    shape = (chains, n_sites, n_labels)
    if dtype == np.float64:
        values, cut_off = [0.25, 1.5, 1.75, 4.0, np.inf], np.inf
    else:
        values, cut_off = [0, 1, 2, 3, CUT_OFF_BIN], CUT_OFF_BIN
    ttf = draw(hnp.arrays(dtype, shape, elements=st.sampled_from(values)))
    kinds = draw(
        hnp.arrays(np.int8, shape[:2], elements=st.sampled_from([FREE, TIED, CUT_OFF]))
    )
    ttf[kinds == TIED] = ttf[kinds == TIED][:, :1]
    ttf[kinds == CUT_OFF] = cut_off
    return ttf


def generators(seed, chains):
    return [np.random.default_rng(seed + k) for k in range(chains)]


@settings(max_examples=150, deadline=None)
@given(ttf=ttf_blocks(), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("tie", TIE_POLICIES)
def test_front_ends_match_oracle(tie, ttf, seed):
    chains, n_sites, n_labels = ttf.shape
    oracle_rngs = generators(seed, chains)
    # Two selections in a row, so the chain path also runs on reused
    # scratch buffers whose contents the first call left behind.
    expected = [
        [first_to_fire(ttf[k], tie, rng) for k, rng in enumerate(oracle_rngs)]
        for _ in range(2)
    ]

    chain_rngs = generators(seed, chains)
    scratch = SampleScratch()
    for call in range(2):
        out = np.empty((chains, n_sites), dtype=np.intp)
        select_first_to_fire_chains_into(ttf, tie, chain_rngs, out, scratch)
        np.testing.assert_array_equal(out, expected[call])

    single_rngs = generators(seed, chains)
    given_rngs = generators(seed, chains)
    for call in range(2):
        for k in range(chains):
            np.testing.assert_array_equal(
                select_first_to_fire(ttf[k], tie, single_rngs[k]), expected[call][k]
            )
            uniforms = given_rngs[k].random(ttf[k].shape) if tie == "random" else None
            np.testing.assert_array_equal(
                first_to_fire_winners(ttf[k], tie, uniforms), expected[call][k]
            )

    for rngs in (chain_rngs, single_rngs, given_rngs):
        for rng, oracle in zip(rngs, oracle_rngs):
            assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("tie", TIE_POLICIES)
def test_finite_equal_floats_keep_lowest_index(tie):
    # Equal finite float times are not ties: the lowest index wins under
    # every policy, as it does on the oracle's keys.
    ttf = np.array([[2.5, 1.0, 1.0, np.inf], [np.inf, 3.0, np.inf, 3.0]])
    winners = select_first_to_fire(ttf, tie, np.random.default_rng(0))
    np.testing.assert_array_equal(winners, [1, 1])
    np.testing.assert_array_equal(
        winners, first_to_fire(ttf, tie, np.random.default_rng(0))
    )


# ---------------------------------------------------------------------------
# Telemetry: select.rows and select.tied_rows
# ---------------------------------------------------------------------------


@pytest.fixture
def recorded_ttf(monkeypatch):
    """Every TTF block the RSU kernel hands to selection, copied."""
    blocks = []

    def spy(ttf, *args):
        blocks.append(ttf.copy())
        return select_first_to_fire_chains_into(ttf, *args)

    monkeypatch.setattr(rsu, "select_first_to_fire_chains_into", spy)
    obs.disable()
    yield blocks
    obs.disable()


def tiny_model():
    rng = np.random.default_rng(0)
    unary = rng.random((8, 10, 5))
    return GridMRF(unary, label_distance_matrix(5, "absolute", truncate=2), 0.8)


def rsu_backend(seed, float_time=False):
    config = new_design_config(tie_policy="random", float_time=float_time)
    return make_backend("rsu", 6.0, seed=seed, config=config)


@pytest.mark.parametrize("float_time", [False, True])
def test_counters_match_oracle_tied_rows(recorded_ttf, float_time):
    schedule = GeometricSchedule(t0=4.0, rate=0.85)
    with obs.use_telemetry() as tel:
        MCMCSolver(tiny_model(), rsu_backend(3, float_time), schedule, seed=3).run(4)
        EnsembleSolver(
            tiny_model(),
            lambda index: rsu_backend(10 + index, float_time),
            schedule,
            chains=3,
            seed=7,
        ).run(4)
    assert len(recorded_ttf) == 2 * 4 * 2  # two colour classes, 4 sweeps, 2 runs
    rows = sum(block.size // block.shape[-1] for block in recorded_ttf)
    tied = sum(tied_row_count(block) for block in recorded_ttf)
    assert tel.value("select.rows") == rows
    assert tel.value("select.tied_rows") == tied
    # Decay-rate scaling gives each row's minimum energy the top code, so
    # no float-time row is cut off everywhere and none ties.
    assert tied == 0 if float_time else 0 < tied < rows

