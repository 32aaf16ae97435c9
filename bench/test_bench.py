"""Self-tests of the benchmark (outside the tier-1 suite):

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import stats
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = stats.spec()


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 7.0, 0, 0],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == {"self_s": 5.0, "total_s": 10.0}
    assert times["a"] == {"self_s": 4.0, "total_s": 5.0}
    assert times["b"] == {"self_s": 1.0, "total_s": 1.0}
    assert sum(t["self_s"] for t in times.values()) == times["root"]["total_s"]


def test_layer_metrics_cover_the_traced_wall():
    tracer = tracing.Tracer()
    tracer.spans = [
        [tracing.ROOT, 0.0, 1.0, -1, 0],
        ["mrf.solve", 0.01, 0.99, 0, 0],
        ["mrf.sweep", 0.02, 0.98, 1, 0],
    ]
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["trace.wall_s"] == 1.0
    assert metrics["trace.self_coverage"] == pytest.approx(0.98)
    assert metrics["mrf.sweep.self_s"] == pytest.approx(0.96)
    fixed = {m["name"] for m in SPEC["per_layer"]} - {
        "output.bad_pixel_pct", "output.ref_bad_pixel_pct", "trace.overhead_frac",
        "setup.first_repeat_excess_s",
    }
    per_experiment = {name for name in fixed if name.endswith(".s")}
    assert fixed - per_experiment <= set(metrics)


# --- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize(
    "n, pct", [(10_000, 99.9), (1000, 99.0), (200, 95.0), (100, 90.0), (60, 75.0),
               (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# --- compare -----------------------------------------------------------------

def _result(values, host="h", nproc=2, failed=0):
    """A result file whose workload ``w`` reports ``values`` for every
    end-to-end metric."""
    return {
        "env": {"host": host, "nproc": nproc},
        "workloads": {"w": {
            "failed": failed,
            "end_to_end": {
                m["name"]: stats.summary(values, m["unit"]) for m in SPEC["end_to_end"]
            },
        }},
    }


def _verdicts(results, metric="wall_s"):
    return {row[1]: row[-1] for row in compare.compare(results)}[metric]


def test_compare_same_runs_are_unchanged():
    run = _result([1.0, 1.01, 0.99, 1.0, 1.02])
    assert _verdicts([run, run]) == "unchanged"


def test_compare_flags_a_regression_beyond_the_bound():
    parent = _result([1.0, 1.01, 0.99, 1.0, 1.02])
    change = _result([1.5, 1.51, 1.49, 1.5, 1.52])
    assert _verdicts([parent, change]) == "regressed"
    # work_per_s is higher-is-better: the same increase is no regression.
    assert _verdicts([parent, change], "work_per_s") == "unchanged"


def test_compare_noisy_parent_is_unresolved():
    parent = _result([1.0, 1.5, 0.6, 1.2, 0.8])
    change = _result([1.0, 1.4, 0.7, 1.1, 0.9])
    assert _verdicts([parent, change]) == "unresolved"


def test_compare_claims_a_gain_only_over_ten_paired_runs():
    def side(value):
        return _result([value])

    nine = []
    for _ in range(9):
        nine += [side(1.0), side(0.9)]
    assert _verdicts(nine) == "unchanged"
    ten = nine + [side(1.0), side(0.9)]
    assert _verdicts(ten) == "improved"
    lost_two = nine[:-2] + [side(1.0), side(1.1), side(1.0), side(1.1), side(1.0), side(0.9)]
    assert _verdicts(lost_two) == "unchanged"


def test_compare_claims_no_gain_from_the_repeats_of_one_pair():
    parent = [1.0 + 0.001 * i for i in range(20)]
    change = _result([0.7 + 0.001 * i for i in range(20)])
    assert _verdicts([_result(parent), change]) == "unchanged"
    # A noisy parent stays unresolved even when every change repeat is faster.
    noisy = _result([0.6 + 0.04 * i for i in range(20)])
    assert _verdicts([noisy, _result([0.5 + 0.001 * i for i in range(20)])]) == "unresolved"
    # The same values over ten pairs of one-sample files do claim the gain.
    pairs = []
    for p, c in zip(parent[:10], [0.7 + 0.001 * i for i in range(10)]):
        pairs += [_result([p]), _result([c])]
    assert _verdicts(pairs) == "improved"


def test_compare_counts_failures():
    rows = compare.compare([_result([1.0]), _result([1.0], failed=1)])
    assert ("w", "failed", 0, 1, 0.0, 0.0, "regressed") in rows


def test_compare_refuses_other_hosts(tmp_path, capsys):
    paths = []
    for index, env in enumerate([("a", 2), ("b", 2)]):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(_result([1.0], *env)))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert "refusing" in capsys.readouterr().err
    paths[1] = str(tmp_path / "0.json")
    assert compare.main(paths) == 0


# --- tracer wrappers -----------------------------------------------------------

class Layer:
    """Stand-in layer with each kind of attribute the tracer patches."""

    def method(self, x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return x + 2

    @staticmethod
    def static(x):
        return x + 3


def test_missing_targets_are_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install([
        ("gone", "repro_module_that_does_not_exist", "f", None),
        ("gone", __name__, "Layer.no_such_method", None),
        ("gone", __name__, "NoSuchClass.method", None),
    ])
    assert len(tracer.absent) == 3
    tracer.uninstall()


def test_wrappers_record_nested_spans_and_are_removed():
    originals = dict(vars(Layer))
    tracer = tracing.Tracer()

    def probe(tracer, args, kwargs, result):
        tracer.counts["seen"] += result

    tracer.install([
        ("layer.method", __name__, "Layer.method", probe),
        ("layer.klass", __name__, "Layer.klass", None),
        ("layer.static", __name__, "Layer.static", None),
    ])
    try:
        tracer.begin(tracing.ROOT)
        assert (Layer().method(1), Layer.klass(1), Layer().static(1)) == (2, 3, 4)
        tracer.end()
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == [
        tracing.ROOT, "layer.method", tracing.TRACER, "layer.klass", "layer.static",
    ]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 0]
    assert tracer.counts["seen"] == 2
    assert dict(vars(Layer)) == originals


def test_poster_scene_at_seed_13_is_the_poster_preset():
    from repro.data import load_stereo

    preset = load_stereo("poster")
    scene = workloads.poster_scene(13, 1.0)
    for field in ("left", "right", "gt_disparity"):
        assert np.array_equal(getattr(scene, field), getattr(preset, field))
    half = workloads.poster_scene(13, 0.5)
    assert half.shape == (42, 56) and half.n_labels == 15


# --- end to end ----------------------------------------------------------------

def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _tree_state(directory: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in directory.rglob("*")} if directory.exists() else {}


def test_tiny_profile_runs_every_workload_and_prints_every_metric(tmp_path):
    out = tmp_path / "result.json"
    artifacts = _tree_state(ROOT / "artifacts")
    proc = _run("--profile", "tiny", "--seconds", "0.2", "--out", str(out),
                "--trace-out", str(tmp_path / "spans"))
    assert proc.returncode == 0, proc.stderr
    # Experiment images land in the repeat's scratch directory, not here.
    assert _tree_state(ROOT / "artifacts") == artifacts
    result = json.loads(out.read_text())
    assert result["env"]["nproc"] >= 1
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(result["workloads"]) == names
    for name, record in result["workloads"].items():
        # Digests agree across the warm-up, timed and traced repeats.
        assert record["checks"]["digests_identical"], name
        assert record["correct"] and record["failed"] == 0, (name, record["checks"])
        assert (tmp_path / "spans" / f"{name}-seed13.jsonl").stat().st_size > 0
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert f"{name:14s} {metric['name']} " in proc.stdout, (name, metric["name"])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_single_workload_form_prints_the_end_to_end_metrics():
    proc = _run("--workload", "machine_count", "--seed", "5", "--seconds", "0.2",
                "--trace", "0", "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = _run("--workload", "stereo_rsu", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
