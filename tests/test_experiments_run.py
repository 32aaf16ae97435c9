"""Integration tests: every registered experiment runs under a tiny profile.

These exercise the full harness end to end — dataset generation, both
sampler families, metrics, artifact writing and rendering — at sizes
that keep the suite fast.  Shape assertions check the paper's
qualitative findings, not absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments import QUICK, experiment_ids, run_experiment
from repro.experiments import fig3, fig5, fig7, fig8, fig9, table1, table2, table3, table4
from repro.util import ConfigError

#: Tiny profile: the quick profile shrunk further for unit testing.
TINY = QUICK.with_(
    stereo_scale=0.25,
    stereo_iterations=50,
    sweep_scale=0.22,
    sweep_iterations=40,
    motion_scale=0.35,
    motion_iterations=30,
    seg_images=3,
    seg_shape=(24, 32),
    seg_iterations=8,
    fig7_samples=20_000,
    fig8_time_bits=(3, 5),
    fig8_truncations=(0.05, 0.5),
)


class TestRegistry:
    def test_all_ids_present(self):
        expected = (
            {f"fig{i}" for i in range(3, 10)}
            | {f"table{i}" for i in range(1, 5)}
            | {"quality_vs_time", "ablations", "energy_bits", "robustness"}
        )
        assert set(experiment_ids()) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("fig99")


class TestQualityExperiments:
    def test_fig3_prev_rsug_much_worse(self):
        result = fig3.run(TINY)
        for row in result.rows:
            software_bp, prev_bp = row[1], row[2]
            assert prev_bp > software_bp + 15.0

    def test_fig5_shapes(self):
        result = fig5.run(TINY)
        last = result.rows[-1]
        columns = result.columns
        prev = last[columns.index("int_lambda_prev_RSUG")]
        cutoff_only = last[columns.index("cutoff_no_scaling")]
        full_stack = last[columns.index("scaled_cutoff_pow2")]
        software_avg = result.extra["software_avg"]
        assert prev > software_avg + 15.0
        assert cutoff_only > software_avg + 15.0
        assert abs(full_stack - software_avg) < 12.0

    def test_fig7_u_shape(self):
        result = fig7.run(TINY)
        series = result.extra["series"]["8"]
        low_end = series[0]  # truncation 0.01
        middle = min(series)
        high_end = series[-1]  # truncation 0.9
        assert low_end > middle
        assert high_end > middle

    def test_fig7_ratio1_insensitive(self):
        result = fig7.run(TINY)
        assert max(result.extra["series"]["1"]) < 0.05

    def test_fig8_grid_complete(self):
        result = fig8.run(TINY)
        assert len(result.rows) == len(TINY.fig8_time_bits)
        heatmap = result.extra["heatmap"]
        for time_bits in TINY.fig8_time_bits:
            assert len(heatmap[str(time_bits)]) == len(TINY.fig8_truncations)

    def test_fig9_parity(self, tmp_path):
        result = fig9.run(TINY, artifact_dir=str(tmp_path))
        stereo_rows = [r for r in result.rows if r[0] == "stereo BP%"]
        for row in stereo_rows:
            assert abs(row[2] - row[3]) < 15.0
        voi_rows = [r for r in result.rows if r[0] == "segmentation VoI"]
        for row in voi_rows:
            assert abs(row[2] - row[3]) < 0.8

    def test_table1_std_devs_finite(self):
        result = table1.run(TINY)
        measured = [row for row in result.rows if not row[0].startswith("paper")]
        for row in measured:
            assert all(np.isfinite(v) for v in row[1:])


class TestHardwareExperiments:
    def test_table2(self):
        result = table2.run(TINY)
        assert len(result.rows) == 4

    def test_table3_matches_paper_exactly(self):
        result = table3.run(TINY)
        for row in result.rows:
            assert row[1] == pytest.approx(row[3])  # area vs paper area

    def test_table4_within_1pct(self):
        result = table4.run(TINY)
        for row in result.rows:
            assert row[1] == pytest.approx(row[2], rel=0.01)


class TestArtifacts:
    def test_fig4_writes_pgms(self, tmp_path):
        from repro.experiments import fig4

        result = fig4.run(TINY, artifact_dir=str(tmp_path))
        assert len(result.artifacts) == 4
        for artifact in result.artifacts:
            assert artifact.endswith(".pgm")

    def test_fig6_writes_pgms(self, tmp_path):
        from repro.experiments import fig6

        result = fig6.run(TINY, artifact_dir=str(tmp_path))
        assert len(result.artifacts) == 3


class TestEnergyBits:
    def test_two_bit_energy_collapses(self):
        from repro.experiments import energy_bits

        result = energy_bits.run(TINY)
        averages = {row[0]: row[-1] for row in result.rows}
        assert averages[2] > averages[8] + 5.0  # coarse energies fail
        software = averages["float (software)"]
        assert abs(averages[8] - software) < 10.0  # 8 bits suffices


def test_common_mean_type_hints_resolve():
    import typing

    from repro.experiments import common

    assert typing.get_type_hints(common.mean)["return"] is float
