"""Per-layer spans recorded from the benchmark side.

:class:`Tracer` wraps public callables of each layer (``TARGETS``) for one
traced repeat and removes the wrappers afterwards.  Each call records a
span ``[name, start, end, parent, request]`` in memory; a span's self
time is its duration minus its children's.  Ratios measured inside a
wrapper run in a child ``bench.tracer`` span, so no layer absorbs their
cost.  A target that no longer exists is reported in ``absent`` rather
than raised: later refactors may move a layer without editing this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

import stats

ROOT = "bench.repeat"
TRACER = "bench.tracer"
_MISSING = object()


def _sample_span(args, kwargs) -> str:
    # The machine-in-the-loop backends live in repro.uarch; their batch
    # entry point is the µarch layer's, not the functional samplers'.
    return "uarch.backend" if type(args[0]).__module__.startswith("repro.uarch") else "core.sample"


def _experiment_span(args, kwargs) -> str:
    return "experiments." + (args[0] if args else kwargs["experiment_id"])


def _ttf_probe(tracer, args, kwargs, result):
    codes = args[1]  # (self, codes, ...) and (ttf_samplers, codes, ...)
    tracer.counts["ttf.active_lanes"] += int(np.count_nonzero(codes))  # codes are >= 0
    tracer.counts["ttf.uniforms"] += codes.size


def _select_probe(tracer, args, kwargs, result):
    ttf = args[0]
    winners = np.count_nonzero(ttf == ttf.min(axis=-1, keepdims=True), axis=-1)
    tracer.counts["select.tied_rows"] += int(np.count_nonzero(winners > 1))
    tracer.counts["select.rows"] += winners.size


def _tempering_probe(tracer, args, kwargs, result):
    tracer.counts["swap.accepted"] += result.swaps_accepted
    tracer.counts["swap.attempts"] += result.swap_attempts


def _machine_probe(tracer, args, kwargs, result):
    """Account the batch's cycles against the new design's resource bound.

    Ideal cycles are the larger of the issue-slot bound (one label per
    cycle) and the RET-circuit bound (each label holds a circuit for a
    sampling window).  Every lost cycle has one cause: pipeline fill,
    from the closed-form timing model, or a stall counted by the machine.
    """
    from repro.core.pipeline import ret_circuit_replicas, sampling_window_cycles, simulate

    machine, quantized = args[0], args[1]
    config = machine.config
    n_vars, labels = quantized.shape
    evaluations = n_vars * labels
    ideal = max(
        evaluations,
        -(-evaluations * sampling_window_cycles(config) // ret_circuit_replicas(config)),
    )
    counts = tracer.counts
    counts["uarch.labels"] += evaluations
    counts["uarch.cycles"] += result.total_cycles
    counts["uarch.ideal"] += ideal
    counts["uarch.fill"] += simulate("new", labels, n_vars, 1, config).fill_latency
    counts["uarch.stall"] += result.stats.get("conflict_stalls", 0) + result.stats.get(
        "temperature_stalls", 0
    )


#: (span name or namer, module, attribute path, probe).
TARGETS = (
    ("mrf.solve", "repro.mrf.solver", "MCMCSolver.run", None),
    ("mrf.tempering", "repro.mrf.tempering", "ParallelTempering.run", _tempering_probe),
    ("mrf.sweep", "repro.mrf.kernel", "SweepWorkspace.sweep", None),
    ("mrf.sweep", "repro.mrf.batch", "BatchedSweepWorkspace.sweep", None),
    ("mrf.energy", "repro.mrf.kernel", "SweepWorkspace.class_energies", None),
    ("mrf.energy", "repro.mrf.batch", "BatchedSweepWorkspace.class_energies", None),
    ("core.sample", "repro.core.rsu", "RSUGSampler.sample_into", None),
    ("core.sample", "repro.core.rsu", "RSUGSampler.sample_chains_into", None),
    (_sample_span, "repro.core.base", "SamplerBackend.sample", None),
    ("core.quantize", "repro.core.energy", "EnergyStage.quantize_into", None),
    ("core.quantize", "repro.core.energy", "EnergyStage.quantize", None),
    ("core.convert", "repro.core.rsu", "lambda_codes_lut_into", None),
    ("core.convert", "repro.core.rsu", "lambda_codes_lut_stacked_into", None),
    ("core.convert", "repro.core.rsu", "stacked_conversion_lut", None),
    ("core.ttf", "repro.core.ttf", "TTFSampler.sample_into", _ttf_probe),
    ("core.ttf", "repro.core.ttf", "TTFSampler.sample_chains_into", _ttf_probe),
    ("core.select", "repro.core.rsu", "select_first_to_fire_into", _select_probe),
    ("core.select", "repro.core.rsu", "select_first_to_fire_chains_into", _select_probe),
    ("uarch.run", "repro.uarch.machines", "NewMachine.run_matrix", _machine_probe),
    ("uarch.events", "repro.uarch.events", "run_new_machine", None),
    ("uarch.stream", "repro.uarch.events", "stream_from_matrix", None),
    ("uarch.ttf", "repro.uarch.events", "ttf_bins_from_uniforms", None),
    ("experiments.run_tasks", "repro.experiments.engine", "ExperimentEngine.run_tasks", None),
    ("experiments.cache.store", "repro.experiments.engine", "ResultCache.store", None),
    (_experiment_span, "repro.experiments", "run_experiment", None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = Counter()
        self.absent = []
        self.request = 0
        self._stack = []
        self._undo = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, func, name, probe=None):
        """``func`` recording a span per call (``name`` may be a callable
        of ``(args, kwargs)``), then running ``probe`` under ``bench.tracer``."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
                if probe is not None:
                    tracer.begin(TRACER)
                    try:
                        probe(tracer, args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001 — reported, never fatal
                        tracer.absent.append(f"probe {func.__qualname__}: {exc!r}")
                    finally:
                        tracer.end()
                return result
            finally:
                tracer.end()

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that resolves; list the rest in ``absent``."""
        for name, module_name, path, probe in targets:
            try:
                owner = importlib.import_module(module_name)
                *owners, attribute = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(raw.__func__, name, probe))
            else:
                patched = self.wrap(raw, name, probe)
            own = vars(owner).get(attribute, _MISSING) if inspect.isclass(owner) else raw
            setattr(owner, attribute, patched)
            self._undo.append((owner, attribute, own))

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the original attributes."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                }
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> dict:
    """Per span name: summed ``self_s`` and ``total_s``."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        out[name]["self_s"] += end - start - children[index]
        out[name]["total_s"] += end - start
    return dict(out)


#: Spans whose self time is reported as ``<name>.self_s``.
SELF_SPANS = (
    ROOT, TRACER,
    "mrf.solve", "mrf.tempering", "mrf.sweep", "mrf.energy",
    "core.sample", "core.quantize", "core.convert", "core.ttf", "core.select",
    "uarch.backend", "uarch.run", "uarch.events", "uarch.stream", "uarch.ttf",
    "experiments.run_tasks",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> dict:
    """Per-layer metrics of one traced repeat (0 where a layer did no work).

    ``facts`` are the repeat's own counts (engine tasks, cache hits,
    worker seconds).  Everything here is measured in the traced repeat.
    """
    times = self_times(tracer.spans)

    def get(name):
        return times.get(name, {"self_s": 0.0, "total_s": 0.0})

    wall = get(ROOT)["total_s"]
    metrics = {f"{name}.self_s": get(name)["self_s"] for name in SELF_SPANS}

    sweeps = [end - start for name, start, end, _, _ in tracer.spans if name == "mrf.sweep"]
    tail = stats.tail_percentile(len(sweeps))
    metrics["mrf.sweep.p50_ms"] = float(np.percentile(sweeps, 50)) * 1e3 if sweeps else 0.0
    metrics["mrf.sweep.tail_pct"] = tail or 0.0
    metrics["mrf.sweep.tail_ms"] = float(np.percentile(sweeps, tail)) * 1e3 if tail else 0.0

    counts = tracer.counts
    metrics["core.ttf.active_lane_ratio"] = _ratio(counts["ttf.active_lanes"], counts["ttf.uniforms"])
    metrics["core.select.tied_row_ratio"] = _ratio(counts["select.tied_rows"], counts["select.rows"])
    metrics["mrf.tempering.swap_accept_ratio"] = _ratio(counts["swap.accepted"], counts["swap.attempts"])

    cycles = counts["uarch.cycles"]
    metrics["uarch.sim_cycles"] = cycles
    metrics["uarch.labels_per_cycle"] = _ratio(counts["uarch.labels"], cycles)
    metrics["uarch.labels_per_cycle_bound"] = _ratio(counts["uarch.labels"], counts["uarch.ideal"])
    metrics["uarch.lost_cycles.fill"] = counts["uarch.fill"]
    metrics["uarch.lost_cycles.stall"] = counts["uarch.stall"]
    metrics["uarch.stall_cycle_ratio"] = _ratio(counts["uarch.stall"], cycles)
    metrics["uarch.events.ns_per_sim_cycle"] = _ratio(get("uarch.events")["self_s"] * 1e9, cycles)

    run_tasks = get("experiments.run_tasks")["total_s"]
    per_experiment = {
        name: entry["total_s"]
        for name, entry in times.items()
        if name.startswith("experiments.")
        and name not in ("experiments.run_tasks", "experiments.cache.store")
    }
    metrics.update({f"{name}.s": seconds for name, seconds in per_experiment.items()})
    metrics["experiments.direct_s"] = sum(per_experiment.values()) - run_tasks
    metrics["experiments.cache.store_s"] = get("experiments.cache.store")["total_s"]
    metrics["experiments.cache_hit_ratio"] = _ratio(facts.get("cache_hits", 0), facts.get("tasks", 0))
    metrics["experiments.worker_busy_ratio"] = _ratio(
        facts.get("task_s", 0.0), facts.get("jobs", 0) * run_tasks
    )

    metrics["trace.wall_s"] = wall
    metrics["trace.self_coverage"] = 1.0 - _ratio(get(ROOT)["self_s"], wall)
    return metrics


def uarch_accounting_holds(tracer: Tracer) -> bool:
    """Ideal + fill + stall cycles equal the measured cycles."""
    counts = tracer.counts
    return counts["uarch.ideal"] + counts["uarch.fill"] + counts["uarch.stall"] == counts["uarch.cycles"]
