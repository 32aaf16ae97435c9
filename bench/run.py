"""Run the benchmark: every workload, its output check, every metric.

    PYTHONPATH=src python bench/run.py [--seed N] [--workloads a,b]
        [--seconds S] [--profile full|tiny] [--out FILE] [--trace-out DIR]

runs each workload (all by default) with its traced repeat, prints every
metric by name with its unit, and writes a result JSON with the
environment (git SHA, nproc, Python and NumPy versions) to ``--out``
(default ``bench/.out/result-seed<N>.json``).  ``bench/compare.py``
compares such files.

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

The load is closed-loop with one caller: workload interpreters run one
at a time, and each repeat starts when the previous one has finished.
Each interpreter gets ``PYTHONPATH=src`` and one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import stats
from workloads import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Set-up-only interpreters per warm workload, besides the measuring one.
PROBES = 4
#: Timed repeats per warm interpreter, however short ``--seconds`` is.
MIN_REPEATS = 5
#: Cold interpreters (one repeat each) for fresh-interpreter workloads.
MIN_COLD = 2
#: Traced self time outside every layer span must stay under this share.
MAX_UNATTRIBUTED = 0.05
#: Wall-clock budget of one workload, under the 180 s one run may take.
BUDGET_S = 170.0


def unit(metric: str) -> str:
    """A metric's unit from ``BENCHMARK.json`` ('' when unlisted)."""
    table = stats.spec()
    return next((m["unit"] for m in table["end_to_end"] + table["per_layer"]
                 if m["name"] == metric), "")


class BenchError(RuntimeError):
    """A workload interpreter failed or the run overran its budget."""


def child(spec: dict, deadline: float) -> dict:
    """Run ``child.py`` with ``spec`` in a fresh interpreter; its JSON."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spec = dict(spec, t0=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']}: interpreter overran the budget") from None
    finally:
        if proc.poll() is None:
            # The session also holds any engine pool workers it started.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']}: interpreter exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, profile, trace, trace_out, deadline) -> dict:
    """Measure one workload; its checks, end-to-end and per-layer metrics."""
    workload = workloads(profile)[name]
    base = {"workload": name, "seed": seed, "profile": profile}
    # Every cold interpreter of a fresh-interpreter workload already gives
    # a set-up sample, so only warm workloads need probes.
    probes = [] if workload.fresh_interpreter else [
        child(dict(base, role="probe", reference=workload.band is not None and i == 0), deadline)
        for i in range(PROBES)
    ]
    trace_path = str(Path(trace_out) / f"{name}-seed{seed}.jsonl") if trace_out else None
    measure = dict(base, role="measure", trace=False, trace_out=trace_path)
    if workload.fresh_interpreter:
        # The traced interpreter takes the place of one cold repeat, so a
        # traced run costs no more interpreters than an untraced one.
        cold = MIN_COLD - 1 if trace else MIN_COLD
        mains = []
        started = time.monotonic()
        while len(mains) < cold or time.monotonic() - started < seconds:
            mains.append(child(dict(measure, warmup=False, min_repeats=1, seconds=0), deadline))
        if trace:
            mains.append(child(
                dict(measure, trace=True, warmup=False, min_repeats=0, seconds=0), deadline
            ))
        warmups = []
    else:
        mains = [child(
            dict(measure, warmup=True, min_repeats=MIN_REPEATS, seconds=seconds, trace=trace),
            deadline,
        )]
        warmups = [mains[0]["warmup"]]
    repeats = [r for m in mains for r in m["repeats"]]
    times = [t for t, _ in repeats]
    traced = next((m["trace"] for m in mains if "trace" in m), None)

    outcomes = [o for _, o in warmups + repeats] + ([traced["outcome"]] if traced else [])
    reference = probes[0].get("reference") if probes else None
    expected = Counter(o["digest"] for o in outcomes).most_common(1)[0][0]

    def in_band(outcome):
        return reference is None or outcome["bad_pixel_pct"] <= reference + workload.band

    failed = sum(o["failed"] + (o["digest"] != expected or not in_band(o)) for o in outcomes)
    checks = {
        "digests_identical": all(o["digest"] == expected for o in outcomes),
        "quality_in_band": all(in_band(o) for o in outcomes),
        "no_failed_operations": failed == 0,
    }

    record = {
        "end_to_end": {
            "wall_s": stats.summary(times, unit("wall_s")),
            "work_per_s": stats.summary(
                [o["work"] / t for t, o in repeats], unit("work_per_s")
            ),
            "setup_s": stats.summary(
                [c["ready_s"] for c in probes + mains], unit("setup_s")
            ),
            "peak_rss_mb": stats.summary(
                [m["max_rss_mb"] for m in mains if m["repeats"]], unit("peak_rss_mb")
            ),
        },
        "digest": expected,
        "bad_pixel_pct": outcomes[0]["bad_pixel_pct"],
        "reference_bad_pixel_pct": reference,
        "band": workload.band,
    }
    if traced:
        layers = dict(traced["metrics"])
        layers["output.bad_pixel_pct"] = outcomes[0]["bad_pixel_pct"] or 0.0
        layers["output.ref_bad_pixel_pct"] = reference or 0.0
        layers["setup.first_repeat_excess_s"] = (
            warmups[0][0] - stats.median(times) if warmups else 0.0
        )
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / stats.median(times) - 1.0
        for metric in stats.spec()["per_layer"]:
            layers.setdefault(metric["name"], 0.0)
        record["per_layer"] = layers
        record["absent"] = traced["absent"]
        checks["traced_spans_cover_wall"] = layers["trace.self_coverage"] >= 1 - MAX_UNATTRIBUTED
        checks["uarch_cycles_accounted"] = traced["uarch_accounting_holds"]
    record["checks"] = checks
    record["correct"] = all(checks.values())
    record["attempted"] = sum(o["attempted"] for o in outcomes)
    record["failed"] = failed
    return record


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def print_record(name: str, record: dict) -> None:
    for metric, s in record["end_to_end"].items():
        print(f"{name:14s} {metric:34s} {s['value']:>14.6g} {s['unit']:6s} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for metric, value in sorted(record.get("per_layer", {}).items()):
        print(f"{name:14s} {metric:34s} {value:>14.6g} {unit(metric)}")
    for target in record.get("absent", []):
        print(f"{name}: trace target absent: {target}", file=sys.stderr)
    for check, ok in record["checks"].items():
        if not ok:
            print(f"{name}: check failed: {check}", file=sys.stderr)


def last_line(records: dict, key: str, prefix: bool) -> str:
    """The closing JSON object over ``records`` for one metric family."""
    metrics = {}
    for name, record in records.items():
        if key == "per_layer":
            values = record["per_layer"]
        else:
            values = {metric: s["value"] for metric, s in record["end_to_end"].items()}
        for metric in stats.spec()[key]:
            label = f"{name}/{metric['name']}" if prefix else metric["name"]
            metrics[label] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    names = [w["name"] for w in stats.spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload")
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated list")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=stats.spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="result JSON path")
    parser.add_argument("--trace-out", help="directory for per-workload span JSONL")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else args.workloads.split(",")
    unknown = sorted(set(selected) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    records = {}
    try:
        for name in selected:
            records[name] = run_workload(
                name, args.seed, args.seconds, args.profile,
                bool(args.trace), args.trace_out, time.monotonic() + BUDGET_S,
            )
            print_record(name, records[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    out = args.out or (None if args.workload else BENCH_DIR / ".out" / f"result-seed{args.seed}.json")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        result = {
            "schema": 1, "env": environment(), "seed": args.seed,
            "seconds": args.seconds, "profile": args.profile, "workloads": records,
        }
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    key = "per_layer" if args.trace else "end_to_end"
    print(last_line(records, key, prefix=not args.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
