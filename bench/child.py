"""One benchmark interpreter: set up a workload, then probe or measure it.

``run.py`` launches this script, one interpreter at a time, with a JSON
spec as its only argument and reads one JSON object from the last line
of its standard output.  Roles:

* ``probe`` — set up only (a set-up time sample for a warm workload),
  then optionally solve the scene with the float ``software`` sampler for
  the quality band;
* ``measure`` — set up, run one warm-up repeat unless the workload runs
  cold in a fresh interpreter per repeat, run timed repeats back to back
  for ``seconds`` (at least ``min_repeats``), then optionally one traced
  repeat with the per-layer wrappers installed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


def _timed(workload, state):
    started = time.perf_counter()
    outcome = workload.repeat(state)
    return time.perf_counter() - started, asdict(outcome)


def _traced(workload, state, request, trace_out):
    import tracing

    tracer = tracing.Tracer()
    tracer.request = request
    tracer.install()
    try:
        tracer.begin(tracing.ROOT)
        try:
            outcome = workload.repeat(state, traced=True)
        finally:
            tracer.end()
    finally:
        tracer.uninstall()
    if trace_out:
        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(trace_out)
    return {
        "outcome": asdict(outcome),
        "metrics": tracing.layer_metrics(tracer, outcome.facts),
        "uarch_accounting_holds": tracing.uarch_accounting_holds(tracer),
        "absent": tracer.absent,
    }


def main(spec: dict) -> dict:
    from workloads import workloads

    workload = workloads(spec["profile"])[spec["workload"]]
    state = workload.setup(spec["seed"])
    out = {"ready_s": time.time() - spec["t0"]}
    if spec["role"] == "probe":
        if spec.get("reference"):
            out["reference"] = workload.reference(state)
    else:
        if spec["warmup"]:
            out["warmup"] = _timed(workload, state)
        repeats = []
        started = time.perf_counter()
        while len(repeats) < spec["min_repeats"] or (
            time.perf_counter() - started < spec["seconds"]
        ):
            repeats.append(_timed(workload, state))
        out["repeats"] = repeats
    # Read before the traced repeat, whose wrappers import every layer.
    out["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["role"] == "measure" and spec["trace"]:
        out["trace"] = _traced(workload, state, len(out["repeats"]), spec.get("trace_out"))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
