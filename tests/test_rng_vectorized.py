"""Byte-identity matrix for the vectorized entropy subsystem.

The bit-sliced LFSR engine, the block MT19937 twist, and the
BufferedBitSource prefetcher are performance features with one hard
contract: *every* bit, word, and float — and the generator state after
every call — must equal the scalar oracles (``tests/oracles.py``)
exactly, under any interleaving of the draw styles.  These tests pin that contract, plus
the jump-ahead/substream algebra the block engine is built on.
"""

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core.cdf_sampler import CDFSampler
from repro.core.distance import label_distance_matrix
from repro.mrf.annealing import GeometricSchedule
from repro.mrf.model import GridMRF
from repro.mrf.solver import MCMCSolver
from repro.rng import (
    LFSR,
    MT19937,
    TAPS_BY_WIDTH,
    BufferedBitSource,
    LFSRBitSource,
    MTBitSource,
)
from repro.rng import gf2
from repro.util.errors import ReproError
from tests.oracles import ScalarLFSR, ScalarMT19937

ALL_WIDTHS = sorted(TAPS_BY_WIDTH)

#: Crosses the 256-bit scalar-dispatch floor, one lane block, many lanes.
COUNTS = (300, 5000, 70000)


def lfsr_pair(width, seed=0b1011):
    return ScalarLFSR(width=width, seed=seed), LFSR(width=width, seed=seed)


class TestGF2:
    def test_step_matrix_matches_one_step(self):
        for width in (3, 11, 19):
            reg = LFSR(width=width, seed=0b101)
            step = gf2.lfsr_step_matrix(width, reg.taps)
            before = reg.state
            reg.step()
            assert gf2.mat_vec(step, before) == reg.state

    def test_mat_pow_identity_and_composition(self):
        step = gf2.lfsr_step_matrix(19, TAPS_BY_WIDTH[19])
        assert gf2.mat_pow(step, 0) == gf2.identity(19)
        assert gf2.mat_pow(step, 1) == step
        assert gf2.mat_pow(step, 13) == gf2.mat_mul(
            gf2.mat_pow(step, 6), gf2.mat_pow(step, 7)
        )

    def test_advance_state_rejects_negative(self):
        step = gf2.lfsr_step_matrix(19, TAPS_BY_WIDTH[19])
        with pytest.raises(ReproError):
            gf2.advance_state(step, 1, -1)

    def test_mat_vec_array_matches_scalar(self):
        step = gf2.lfsr_step_matrix(19, TAPS_BY_WIDTH[19])
        jump = gf2.mat_pow(step, 1234)
        states = np.arange(1, 200, dtype=np.uint64)
        vectorized = gf2.mat_vec_array(jump, states)
        scalar = [gf2.mat_vec(jump, int(s)) for s in states]
        assert vectorized.tolist() == scalar


class TestLFSRBitIdentity:
    @pytest.mark.parametrize("width", ALL_WIDTHS)
    def test_bits_identical_across_widths(self, width):
        scalar, vectorized = lfsr_pair(width)
        for count in COUNTS:
            np.testing.assert_array_equal(
                scalar.bits(count), vectorized.bits(count)
            )
            # State alignment: both registers sit at the same phase.
            assert scalar.state == vectorized.state

    def test_words_and_uniforms_identical(self):
        scalar, vectorized = lfsr_pair(19)
        np.testing.assert_array_equal(
            scalar.words(1000, 19), vectorized.words(1000, 19)
        )
        np.testing.assert_array_equal(
            scalar.uniforms(1000), vectorized.uniforms(1000)
        )
        out_s = np.empty(700)
        out_v = np.empty(700)
        scalar.uniforms(700, out=out_s)
        vectorized.uniforms(700, out=out_v)
        np.testing.assert_array_equal(out_s, out_v)
        assert scalar.state == vectorized.state

    def test_interleaved_draw_styles_stay_aligned(self):
        scalar, vectorized = lfsr_pair(19, seed=77)
        for reg in (scalar, vectorized):
            reg.bits(17)  # small: both take the scalar path
        np.testing.assert_array_equal(scalar.bits(4096), vectorized.bits(4096))
        assert scalar.next_word(19) == vectorized.next_word(19)
        np.testing.assert_array_equal(
            scalar.uniforms(500), vectorized.uniforms(500)
        )
        assert scalar.state == vectorized.state

    def test_small_requests_route_to_scalar_with_same_output(self):
        scalar, vectorized = lfsr_pair(19)
        np.testing.assert_array_equal(scalar.bits(255), vectorized.bits(255))
        assert scalar.state == vectorized.state


class TestJumpAndSpawn:
    def test_jump_equals_scalar_steps(self):
        stepped = LFSR(width=19, seed=5)
        for _ in range(1000):
            stepped.step()
        jumped = LFSR(width=19, seed=5).jump(1000)
        assert jumped.state == stepped.state

    def test_jump_zero_is_identity_and_composes(self):
        reg = LFSR(width=19, seed=5)
        state = reg.state
        assert reg.jump(0).state == state
        split = LFSR(width=19, seed=5).jump(300).jump(700)
        assert LFSR(width=19, seed=5).jump(1000).state == split.state

    def test_spawn_children_cover_disjoint_parent_chunks(self):
        # Width 11, period 2047: spawn(4) strides 511 steps, so the
        # children's streams must literally be consecutive slices of the
        # parent's own future output.
        parent = LFSR(width=11, seed=0b1101)
        stride = parent.period // 4
        reference = LFSR(width=11, seed=0b1101).bits(stride * 4)
        children = parent.spawn(4)
        assert parent.state == 0b1101  # spawn leaves the parent untouched
        for index, child in enumerate(children):
            np.testing.assert_array_equal(
                child.bits(stride),
                reference[index * stride:(index + 1) * stride],
            )

    def test_spawn_rejects_bad_arguments(self):
        with pytest.raises(ReproError):
            LFSR(width=11, seed=3).spawn(0)
        with pytest.raises(ReproError):
            LFSR(width=3, seed=3).spawn(100)  # stride would round to zero


class TestMTIdentity:
    def test_published_vector(self):
        assert MT19937(seed=5489).next_u32() == 3499211612

    def test_block_twist_matches_scalar_oracle(self):
        scalar = ScalarMT19937(seed=42)
        vectorized = MT19937(seed=42)
        # Three full regenerations plus a partial block.
        np.testing.assert_array_equal(scalar.words(2000), vectorized.words(2000))
        assert scalar.getstate() == vectorized.getstate()

    def test_interleaved_scalar_and_block_draws(self):
        scalar = ScalarMT19937(seed=9)
        vectorized = MT19937(seed=9)
        for count in (3, 700, 1, 624, 50):
            assert scalar.next_u32() == vectorized.next_u32()
            np.testing.assert_array_equal(
                scalar.words(count), vectorized.words(count)
            )
        np.testing.assert_array_equal(
            scalar.uniforms(333), vectorized.uniforms(333)
        )
        assert scalar.getstate() == vectorized.getstate()

    def test_state_transfers_between_engines(self):
        vectorized = MT19937(seed=3)
        vectorized.words(1000)
        snapshot = vectorized.getstate()
        scalar = ScalarMT19937(seed=1)
        scalar.setstate(snapshot)
        np.testing.assert_array_equal(scalar.words(800), vectorized.words(800))


class TestBufferedBitSource:
    def inner(self, seed=21):
        return LFSRBitSource(LFSR(width=19, seed=seed))

    def test_served_stream_identical_to_direct(self):
        direct = self.inner()
        buffered = BufferedBitSource(self.inner(), block=256)
        chunks = (100, 1, 400, 255, 7)  # mixes intra-slab and refill paths
        for count in chunks:
            np.testing.assert_array_equal(
                direct.uniforms(count), buffered.uniforms(count)
            )

    def test_out_buffer_path(self):
        buffered = BufferedBitSource(self.inner(), block=128)
        out = np.empty(300)
        assert buffered.uniforms(300, out=out) is out
        np.testing.assert_array_equal(out, self.inner().uniforms(300))
        with pytest.raises(ReproError):
            buffered.uniforms(10, out=np.empty(10, dtype=np.float32))

    def test_mid_block_snapshot_round_trip(self):
        buffered = BufferedBitSource(self.inner(), block=512)
        buffered.uniforms(100)  # cursor now mid-slab
        snapshot = buffered.getstate()
        assert snapshot["kind"] == "buffered" and snapshot["cursor"] == 100
        first = buffered.uniforms(600)  # crosses into the next slab
        restored = BufferedBitSource(self.inner(seed=1), block=512)
        restored.setstate(snapshot)
        np.testing.assert_array_equal(first, restored.uniforms(600))

    def test_snapshot_is_compact_no_floats(self):
        buffered = BufferedBitSource(self.inner(), block=1 << 14)
        buffered.uniforms(5000)
        snapshot = buffered.getstate()
        # The slab is regenerated on restore, never persisted.
        assert set(snapshot) == {"kind", "block", "inner", "drawn", "cursor"}
        assert isinstance(snapshot["inner"], dict)

    def test_accepts_bare_inner_snapshot(self):
        bare = self.inner()
        bare.uniforms(40)
        snapshot = bare.getstate()
        expected = bare.uniforms(64)
        buffered = BufferedBitSource(self.inner(seed=1))
        buffered.setstate(snapshot)
        np.testing.assert_array_equal(expected, buffered.uniforms(64))

    def test_rejects_bad_construction_and_cursor(self):
        with pytest.raises(ReproError):
            BufferedBitSource(self.inner(), block=0)
        buffered = BufferedBitSource(self.inner())
        with pytest.raises(ReproError):
            buffered.setstate(
                {"kind": "buffered", "block": 8, "inner": self.inner().getstate(),
                 "drawn": 8, "cursor": 9}
            )


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    unary = rng.random((10, 12, 5))
    return GridMRF(unary, label_distance_matrix(5, "binary"), 1.2)


class TestEndToEndByteIdentity:
    """The whole point: flipping the engine cannot change any result."""

    @staticmethod
    def scalar_backend(kind, full_scale, seed):
        """``make_backend`` wiring on the scalar engines, unbuffered."""
        if kind == "cdf_lfsr":
            source = LFSRBitSource(ScalarLFSR(width=19, seed=seed * 2 + 1))
        else:
            source = MTBitSource(ScalarMT19937(seed=(seed * 7919 + 1) & 0xFFFFFFFF))
        return CDFSampler(source, energy_full_scale=full_scale)

    @pytest.mark.parametrize("kind", ["cdf_lfsr", "cdf_mt19937"])
    def test_solve_results_identical_across_engines(self, kind):
        model = tiny_model()
        full_scale = model.max_energy()
        results = []
        for sampler in (
            self.scalar_backend(kind, full_scale, seed=3),
            make_backend(kind, full_scale, seed=3),
        ):
            solver = MCMCSolver(
                model, sampler, GeometricSchedule(2.0, 0.8),
                seed=3, track_energy=True,
            )
            results.append(solver.run(12))
        np.testing.assert_array_equal(results[0].labels, results[1].labels)
        np.testing.assert_array_equal(
            results[0].energy_history, results[1].energy_history
        )

    def test_buffered_backend_kill_and_resume(self):
        # The solver checkpoints land mid-slab (the prefetch block far
        # exceeds a 10x12 solve's per-sweep draws); resume must rejoin
        # the oracle byte for byte anyway.
        model = tiny_model(seed=5)
        full_scale = model.max_energy()

        def solver():
            sampler = make_backend("cdf_lfsr", full_scale, seed=7)
            return MCMCSolver(
                model, sampler, GeometricSchedule(2.0, 0.8),
                seed=7, track_energy=True,
            )

        oracle = solver().run(8)
        captured = []
        solver().run(4, checkpoint_every=2, checkpoint_sink=captured.append)
        assert captured and captured[0].rng["sampler"]["source"]["kind"] == "buffered"
        for checkpoint in captured:
            resumed = solver().run(8, resume=checkpoint)
            np.testing.assert_array_equal(oracle.labels, resumed.labels)
            np.testing.assert_array_equal(
                oracle.energy_history, resumed.energy_history
            )

    def test_faulty_wrapper_rides_the_buffered_source(self):
        from repro.faults.models import EntropyFault, FaultyBitSource

        fault = EntropyFault(stuck_mask=0b11, stuck_value=0b10, word_bits=19)
        direct = FaultyBitSource(self.lfsr_source(), fault)
        buffered = FaultyBitSource(
            BufferedBitSource(self.lfsr_source(), block=128), fault
        )
        np.testing.assert_array_equal(
            direct.uniforms(500), buffered.uniforms(500)
        )
        out = np.empty(300)
        buffered.uniforms(300, out=out)
        np.testing.assert_array_equal(direct.uniforms(300), out)

    @staticmethod
    def lfsr_source(seed=13):
        return LFSRBitSource(LFSR(width=19, seed=seed))
