"""Event-driven batched timing engine for the structural RSU-G machines.

Both pipelines are specified cycle by cycle: every latch advances in a
fixed step order each cycle, and each paper figure maps onto one step
(``tests/oracles.py`` keeps that per-cycle loop as the reference).
Stepping every cycle costs O(cycles · state) with a large Python
constant — one ``rng.random((1, 1))`` NumPy round-trip *per label*, one
scan of the pending completions *per cycle* — so the machines run on
this module instead, which computes the **same machine, cycle for
cycle**, from its scheduled events:

* **Issue events** are closed-form: both front ends issue one label per
  cycle, so the issue cycle of every evaluation is a cumulative sum over
  the job stream (plus, for the previous design, the LUT-rewrite stall
  blocks).
* **Completion events** need no polling: a RET observation scheduled at
  cycle ``r`` *is* its completion event at ``r + window - 1``.  Idle
  cycles are never visited.
* **Back-end occupancy** of the new design is a pair of max-plus
  recurrences over the pop/convert/RET latches.  Under
  ``conflict_policy="count"`` nothing feeds back into timing, so the
  recurrence collapses to one ``np.maximum.accumulate``; under
  ``"stall"`` the RET-network conflicts do feed back, and a genuine
  event loop (one step per *evaluation*, not per cycle) walks the
  :class:`EventQueue` of winner deliveries and shadow-register updates.
* **Entropy** is drawn in one batched ``rng.random(total)`` call.  The
  per-cycle machine consumes one uniform per RET issue and, under the
  ``random`` tie policy, one row of uniforms per variable completion —
  interleaved in cycle order.  A NumPy ``Generator`` fills a bulk
  request from the identical double stream as repeated scalar requests,
  so slicing the bulk draw at the event-ordered offsets reproduces the
  per-cycle values bit for bit *and* leaves the generator in the
  identical final state.  ``float_time`` configs take the same path:
  :func:`ttf_bins_from_uniforms` returns their float TTFs and
  :func:`~repro.core.base.first_to_fire_winners` selects on them.
* **Traces** are the same timestamps expanded into ``(cycle, stage,
  variable, label)`` events, in the order the per-cycle machine records
  them; only the tail the trace's ring buffer keeps is built.

``tests/test_uarch_events.py`` proves the result cycle-identical to the
per-cycle reference — same winners, same winner cycles, same total
cycles, same stats dict, same generator end state — across designs,
conflict policies, ``Time_bits``, matrix shapes and temperature
schedules, plus an end-to-end machine-in-the-loop solve;
``tests/test_uarch_trace.py`` proves the traces equal event for event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import first_to_fire_winners
from repro.core.convert import boundary_codes, boundary_table, conversion_lut
from repro.core.params import RSUConfig
from repro.core.pipeline import legacy_temperature_stall
from repro.core.ttf import bins_from_uniforms

#: Sentinel "minus infinity" for the max-plus recurrences (int64-safe).
_NEG = np.int64(-(1 << 60))


class EventQueue:
    """Minimal time-ordered event core (binary heap, FIFO within a cycle).

    The batched paths schedule completions arithmetically, but the
    ``stall`` conflict policy genuinely interleaves three event kinds —
    winner deliveries, shadow-register updates, RET issues — whose
    order feeds back into timing.  This queue keeps them sorted by
    ``(cycle, insertion order)`` so the walk advances from event to
    event, never cycle to cycle.
    """

    __slots__ = ("_heap", "_tick")

    def __init__(self):
        self._heap: list = []
        self._tick = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cycle: int, payload) -> None:
        """Schedule ``payload`` at ``cycle``."""
        heapq.heappush(self._heap, (cycle, self._tick, payload))
        self._tick += 1

    def peek_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event (None when empty)."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, cycle: int) -> List[Tuple[int, object]]:
        """Pop every event scheduled at or before ``cycle``, in order."""
        due = []
        while self._heap and self._heap[0][0] <= cycle:
            item = heapq.heappop(self._heap)
            due.append((item[0], item[2]))
        return due


@dataclass
class JobStream:
    """Flat view of an ``(n_jobs, labels)`` energy matrix, in
    *evaluation* order.

    Both machines issue a job's labels with a decrementing counter
    (label ``M-1`` first), so evaluation order within a job is reversed
    label order; ``energies_eval`` stores energies in that order, and
    job ``j``'s evaluations are ``j * labels`` to ``(j + 1) * labels - 1``.
    """

    labels: int
    energies_eval: np.ndarray  # (n_jobs * labels,) int64 quantized energies

    @property
    def n_jobs(self) -> int:
        return self.energies_eval.size // self.labels

    @property
    def n_evals(self) -> int:
        return self.energies_eval.size

    @property
    def first_evals(self) -> np.ndarray:
        """Evaluation index of each job's first (label ``M-1``) issue."""
        return np.arange(0, self.n_evals, self.labels, dtype=np.int64)


def stream_from_matrix(quantized: np.ndarray) -> JobStream:
    """Flatten a validated ``(n_vars, M)`` quantized-energy matrix (see
    :meth:`repro.uarch.machines.LegacyMachine.run_matrix`)."""
    labels = quantized.shape[1]
    energies_eval = np.ascontiguousarray(quantized[:, ::-1], dtype=np.int64)
    return JobStream(labels, energies_eval.reshape(-1))


def ttf_bins_from_uniforms(
    config: RSUConfig, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Binned TTFs for pre-drawn uniforms; bit-identical to
    :meth:`repro.core.ttf.TTFSampler.sample` lane for lane.

    The per-cycle machines call ``sample(np.array([[code]]))`` once per
    label; :func:`repro.core.ttf.bins_from_uniforms` is elementwise, so
    running it over the whole evaluation vector produces the identical
    bins — provided ``uniforms[i]`` is the very double that call would
    have drawn (the caller's interleaving contract).
    """
    return bins_from_uniforms(config, codes, uniforms)


def _interleaved_uniforms(
    rng: np.random.Generator,
    ret_cycles: np.ndarray,
    delivery_last: np.ndarray,
    labels: int,
    tie_random: bool,
):
    """One bulk draw covering every uniform the per-cycle machine consumes.

    Per cycle the per-cycle machine drains completions (step 1 — a
    ``random`` tie-break row of ``M`` uniforms when a variable
    completes) *before* issuing to the RET stage (step 2 — one uniform
    per evaluation).  Encoding each event as ``2 * cycle + phase``
    (selection phase 0, TTF phase 1) and prefix-summing the draw counts
    in that order yields each event's offset into the single bulk draw.

    Returns ``(ttf_uniforms, sel_pool, sel_starts)``; the selection pair
    is ``(None, None)`` for deterministic tie policies.
    """
    n_evals = ret_cycles.size
    if not tie_random:
        return rng.random(n_evals), None, None
    keys = np.concatenate([ret_cycles * 2 + 1, delivery_last * 2])
    counts = np.concatenate(
        [np.ones(n_evals, dtype=np.int64), np.full(delivery_last.size, labels)]
    )
    order = np.argsort(keys, kind="stable")
    starts_sorted = np.zeros(order.size, dtype=np.int64)
    np.cumsum(counts[order][:-1], out=starts_sorted[1:])
    starts = np.empty_like(starts_sorted)
    starts[order] = starts_sorted
    pool = rng.random(int(counts.sum()))
    ttf_uniforms = pool[starts[:n_evals]]
    return ttf_uniforms, pool, starts[n_evals:]


def _select_winners(
    stream: JobStream,
    ttf_eval: np.ndarray,
    tie_policy: str,
    sel_pool: Optional[np.ndarray],
    sel_starts: Optional[np.ndarray],
) -> np.ndarray:
    """Per-variable first-to-fire winners, one vectorized row argmin.

    Mirrors :func:`repro.core.base.select_first_to_fire` on each
    variable's TTF row, indexed by *label*: the eval-order flat array
    holds label ``M-1`` first, so each job's row is reversed.
    """
    labels = stream.labels
    rows = np.ascontiguousarray(ttf_eval.reshape(stream.n_jobs, labels)[:, ::-1])
    u_rows = None
    if tie_policy == "random":  # the rows the per-cycle selection would draw
        u_rows = sel_pool[sel_starts[:, None] + np.arange(labels, dtype=np.int64)]
    winners = first_to_fire_winners(rows, tie_policy, u_rows)
    return winners.astype(np.int64, copy=False)


def _finish(
    stream: JobStream,
    machine,
    codes_eval: np.ndarray,
    ret_cycles: np.ndarray,
    delivery_last: np.ndarray,
    issue_start: np.ndarray,
    stats: Dict[str, int],
):
    """Shared tail: batched entropy, TTF binning, selection, result."""
    from repro.uarch.machines import MachineResult  # local: avoid cycle

    config = machine.config
    ttf_uniforms, sel_pool, sel_starts = _interleaved_uniforms(
        machine._rng,
        ret_cycles,
        delivery_last,
        stream.labels,
        config.tie_policy == "random",
    )
    ttf_eval = ttf_bins_from_uniforms(config, codes_eval, ttf_uniforms)
    winners = _select_winners(
        stream, ttf_eval, config.tie_policy, sel_pool, sel_starts
    )
    total_cycles = int(delivery_last[-1]) + 1
    return MachineResult(winners, delivery_last, issue_start, total_cycles, stats)


def _update_jobs(
    stream: JobStream, temperature_schedule: Dict[int, float]
) -> np.ndarray:
    """Ascending indices of the jobs a temperature update precedes."""
    return np.asarray(
        sorted(j for j in temperature_schedule if 0 <= j < stream.n_jobs),
        dtype=np.int64,
    )


def _delivery_cycles(ret_cycles: np.ndarray, window: int) -> np.ndarray:
    """Selection-latch cycle of each completion event.

    A multi-cycle window's TTF is drained in the window's last cycle
    (``r + window - 1``); a single-cycle window completes in its own
    issue cycle, after that cycle's drain step already ran, so it
    latches one cycle later.
    """
    return ret_cycles + (window - 1 if window > 1 else 1)


def _record_trace(machine, stream: JobStream, stats: Dict[str, int], stages) -> None:
    """Expand per-evaluation stage cycles into the machine's trace.

    ``stages`` lists ``(stage, cycles)`` in the per-cycle machine's step
    order within a cycle; every ``cycles`` array but the ``stall`` one
    is indexed by evaluation.  A RET window is recorded when it opens,
    one event per window cycle.
    """
    n_jobs, per_job = stream.n_jobs, stream.labels
    variables = np.repeat(np.arange(n_jobs, dtype=np.int64), per_job)
    labels = np.tile(np.arange(per_job - 1, -1, -1, dtype=np.int64), n_jobs)
    schedule = []
    for stage, cycles in stages:
        if stage == "stall":
            unattributed = np.full(cycles.size, -1, dtype=np.int64)
            schedule.append((stage, cycles, 1, unattributed, unattributed))
        else:
            width = machine.window if stage == "ret" else 1
            schedule.append((stage, cycles, width, variables, labels))
    trace = machine._trace
    trace.record_schedule(schedule)
    stats["trace_events"] = len(trace.events)
    stats["trace_dropped"] = trace.dropped


# ---------------------------------------------------------------------------
# Previous design (Fig. 2b)
# ---------------------------------------------------------------------------


def run_legacy_machine(
    machine, stream: JobStream, temperature_schedule: Optional[Dict[int, float]]
):
    """Event-driven run of :class:`~repro.uarch.machines.LegacyMachine`.

    The previous design is a hazard-free in-order pipe (the RET stage is
    replicated ``window``-fold, so with one issue per cycle a unit is
    always free): issue at ``t``, energy at ``t+1``, LUT at ``t+2``, RET
    issue at ``t+3``, completion at ``t+2+window``.  Only the issue
    stream needs computing — a temperature update inserts ``1 + stall``
    dead cycles (the update command's issue slot plus the LUT rewrite)
    ahead of its job — and every downstream event follows by fixed
    offsets.  The LUT *epoch* of each evaluation is its convert cycle
    searched against the rewrite cycles: the per-cycle machine rewrites the
    LUT the moment the update pops, so the tail of the preceding job
    (already issued, not yet converted) reads the new table; the
    searchsorted reproduces that boundary exactly.
    """
    temperature_schedule = temperature_schedule or {}
    config = machine.config
    window = machine.window
    stall = legacy_temperature_stall(config, machine._interface_bits)

    labels = stream.labels
    update_jobs = _update_jobs(stream, temperature_schedule)
    # Each update issues its command and rewrites the LUT ahead of its
    # job, pushing that job and every later one back by ``1 + stall``.
    rewrite_cycles = update_jobs * labels + (1 + stall) * np.arange(update_jobs.size)
    issue_start = stream.first_evals + (1 + stall) * np.searchsorted(
        update_jobs, np.arange(stream.n_jobs), side="right"
    )
    issue_eval = (issue_start[:, None] + np.arange(labels)).reshape(-1)
    convert_cycles = issue_eval + 2
    ret_cycles = issue_eval + 3
    delivery = _delivery_cycles(ret_cycles, window)
    delivery_last = delivery[labels - 1 :: labels]

    # LUT epoch per evaluation: a rewrite at cycle c is visible to
    # conversions at cycles > c (the rewrite happens in the issue step,
    # after that cycle's convert step already ran).
    tables = [machine._lut] + [
        conversion_lut(temperature_schedule[j], config) for j in update_jobs.tolist()
    ]
    if update_jobs.size:
        epoch = np.searchsorted(rewrite_cycles, convert_cycles, side="left")
        stacked = np.stack(tables)
        codes_eval = stacked[epoch, stream.energies_eval]
        machine._lut = tables[-1]  # match the per-cycle machine's end state
    else:
        codes_eval = machine._lut[stream.energies_eval]

    stats = {
        "hazard_stalls": 0,
        "temperature_stalls": stall * update_jobs.size,
    }
    result = _finish(
        stream, machine, codes_eval, ret_cycles, delivery_last, issue_start, stats
    )
    if machine._trace is not None:
        # The update command's issue slot, then ``stall`` dead cycles.
        stall_cycles = rewrite_cycles[:, None] + np.arange(
            1, stall + 1, dtype=np.int64
        )
        _record_trace(
            machine,
            stream,
            result.stats,
            [
                ("select", delivery),
                ("ret", ret_cycles),
                ("convert", convert_cycles),
                ("energy", issue_eval + 1),
                ("stall", stall_cycles.reshape(-1)),
                ("issue", issue_eval),
            ],
        )
    return result


# ---------------------------------------------------------------------------
# New design (Fig. 10 / Fig. 11)
# ---------------------------------------------------------------------------


def _scaled_energies(stream: JobStream) -> np.ndarray:
    """Per-evaluation ``energy - min(job energies)`` (the scaling stage)."""
    rows = stream.energies_eval.reshape(stream.n_jobs, stream.labels)
    return (rows - rows.min(axis=1, keepdims=True)).reshape(-1)


def _new_front_end(stream: JobStream) -> Tuple[np.ndarray, np.ndarray]:
    """Issue cycles and back-end availability of the decoupled front end.

    The front end never stalls: evaluation ``i`` issues at cycle ``i``.
    A job becomes poppable two cycles after its minimum latches (the
    latch lands in the FIFO-insert step of cycle ``issue(label 0) + 2``,
    and the pop step of a cycle runs before that cycle's insert step):
    ``avail(j) = first_issue(j) + M + 2``.
    """
    issue_start = stream.first_evals
    return issue_start, issue_start + stream.labels + 2


def _swap_epochs(
    machine,
    stream: JobStream,
    temperature_schedule: Dict[int, float],
    delivery_last: np.ndarray,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Boundary-register epochs from the shadow-swap event walk.

    Updates arm the shadow registers in the issue step of their job's
    first cycle; the next winner delivery (a strictly later cycle —
    deliveries run before issues within a cycle) swaps them in.  Returns
    the swap cycles and the boundary table active from each swap on
    (index 0 is the pre-run table).
    """
    update_jobs = _update_jobs(stream, temperature_schedule)
    # Deliveries are strictly increasing, so each update swaps in at
    # the first delivery after it; of several updates armed before one
    # delivery, the latest overwrites the others in the shadow.
    swap_job = np.searchsorted(delivery_last, update_jobs * stream.labels, side="right")
    latest = np.append(swap_job[1:] != swap_job[:-1], True)[: swap_job.size]
    tables = [machine._bounds] + [
        boundary_table(temperature_schedule[j], machine.config)
        for j in update_jobs[latest].tolist()
    ]
    machine._bounds = tables[-1]
    machine._shadow_bounds = None
    return delivery_last[swap_job[latest]], tables


def _codes_by_epoch(
    convert_cycles: np.ndarray,
    scaled: np.ndarray,
    swap_cycles: np.ndarray,
    tables: List[np.ndarray],
    config: RSUConfig,
) -> np.ndarray:
    """Convert each evaluation against the boundary table live at its
    convert cycle (a swap at cycle ``d`` covers converts at ``>= d``)."""
    if swap_cycles.size == 0:
        return boundary_codes(tables[0], scaled, config.lambda_max_code)
    epoch = np.searchsorted(swap_cycles, convert_cycles, side="right")
    codes = np.empty(scaled.shape, dtype=np.int64)
    for index, bounds in enumerate(tables):
        mask = epoch == index
        if np.any(mask):
            codes[mask] = boundary_codes(bounds, scaled[mask], config.lambda_max_code)
    return codes


def _fifo_stats(
    stream: JobStream, pop_cycles: np.ndarray, stats: Dict[str, int]
) -> None:
    """High-water marks of the energy FIFO, from insert/pop event times.

    Entry ``i`` is inserted in cycle ``i + 2``; the machine samples the
    occupancy once per cycle after both the pop and the insert step, so
    the entry count at an insert cycle ``c`` is ``(inserts <= c) -
    (pops <= c)`` — and the maximum over all cycles is attained at
    insert cycles, the only moments occupancy grows.  Same construction
    per *variable* using each job's first insert and last pop.
    """
    n = stream.n_evals
    insert_cycles = np.arange(n, dtype=np.int64) + 2
    entries = np.arange(1, n + 1, dtype=np.int64) - np.searchsorted(
        pop_cycles, insert_cycles, side="right"
    )
    stats["fifo_max_entries"] = max(0, int(entries.max()))

    first_insert = stream.first_evals + 2
    last_pop = pop_cycles[stream.labels - 1 :: stream.labels]
    variables = np.arange(1, stream.n_jobs + 1, dtype=np.int64) - np.searchsorted(
        last_pop, first_insert, side="right"
    )
    stats["fifo_max_variables"] = max(0, int(variables.max()))


def _count_policy_conflicts(
    ret_cycles: np.ndarray,
    codes_eval: np.ndarray,
    window: int,
    waveguides: int,
    stats: Dict[str, int],
) -> None:
    """Network-conflict stats for ``conflict_policy="count"``.

    Every same-code RET issue after the first within one observation
    window is a conflict (the active waveguide is a function of the
    window index, so the colliding network is fully keyed by
    ``(window, code)``).  Reuse violations are counted per first issue
    of a network in a new window whose rest gap is short — with the
    QDLED counter rotating the waveguide every window the gap between
    uses of one physical network is always a multiple of ``waveguides``,
    so the faithful computation below lands on the per-cycle machine's zero.
    """
    active = codes_eval > 0
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        stats["network_conflicts"] = 0
        stats["reuse_violations"] = 0
        return
    window_index = ret_cycles[active] // window
    conc = np.log2(codes_eval[active]).astype(np.int64)
    n_conc = int(conc.max()) + 1
    pair_key = window_index * n_conc + conc
    unique_pairs = np.unique(pair_key)
    stats["network_conflicts"] = n_active - unique_pairs.size
    # Unique (network, window) uses, sorted; short gaps within one
    # physical network are violations.
    uniq_wi = unique_pairs // n_conc
    uniq_conc = unique_pairs % n_conc
    network = (uniq_wi % waveguides) * n_conc + uniq_conc
    order = np.lexsort((uniq_wi, network))
    network, uniq_wi = network[order], uniq_wi[order]
    same = network[1:] == network[:-1]
    gaps = uniq_wi[1:] - uniq_wi[:-1]
    stats["reuse_violations"] = int(np.count_nonzero(same & (gaps < waveguides)))


def run_new_machine(
    machine, stream: JobStream, temperature_schedule: Optional[Dict[int, float]]
):
    """Event-driven run of :class:`~repro.uarch.machines.NewMachine`.

    Back-end latch recurrences (steps ordered RET < convert < pop
    within a cycle; ``p``/``c``/``r`` are the cycles evaluation ``i``
    enters the scale latch, compare latch and RET stage)::

        p(i) = max(c(i-1), avail(job(i)))      # pop when scale latch frees
        c(i) = max(p(i) + 1, r(i-1))           # convert when compare frees
        r(i) = first conflict-free cycle >= c(i) + 1

    Under ``conflict_policy="count"`` every attempt succeeds, the
    system is max-plus linear and one ``np.maximum.accumulate`` yields
    every latch time.  Under ``"stall"`` a same-window same-code issue
    parks in the compare latch until the window turns — timing now
    depends on the codes, which depend on the boundary epochs, which
    depend on earlier winner deliveries — so an :class:`EventQueue`
    walk advances evaluation by evaluation, draining due
    delivery/update events before each convert.
    """
    temperature_schedule = temperature_schedule or {}
    config = machine.config
    window = machine.window
    waveguides = machine.waveguides
    issue_start, avail = _new_front_end(stream)
    scaled = _scaled_energies(stream)
    n = stream.n_evals

    stats = {
        "network_conflicts": 0,
        "conflict_stalls": 0,
        "fifo_max_entries": 0,
        "fifo_max_variables": 0,
        "reuse_violations": 0,
        "temperature_stalls": 0,
    }

    if machine._conflict_policy == "count":
        # Max-plus closed form: c(i) = i + 1 + max_{k<=i}(avail(k) - k)
        # with avail(k) defined at each job's first evaluation.
        shift = np.full(n, _NEG, dtype=np.int64)
        shift[:: stream.labels] = stream.labels + 2
        convert_cycles = (
            np.arange(n, dtype=np.int64) + 1 + np.maximum.accumulate(shift)
        )
        pop_cycles = convert_cycles - 1
        ret_cycles = convert_cycles + 1
        delivery_last = _delivery_cycles(ret_cycles, window)[
            stream.labels - 1 :: stream.labels
        ]
        swap_cycles, tables = _swap_epochs(
            machine, stream, temperature_schedule, delivery_last
        )
        codes_eval = _codes_by_epoch(
            convert_cycles, scaled, swap_cycles, tables, config
        )
        _count_policy_conflicts(ret_cycles, codes_eval, window, waveguides, stats)
    else:
        codes_eval, pop_cycles, ret_cycles, delivery_last = _stall_policy_walk(
            machine, stream, temperature_schedule, avail, scaled, stats
        )

    _fifo_stats(stream, pop_cycles, stats)
    result = _finish(
        stream, machine, codes_eval, ret_cycles, delivery_last, issue_start, stats
    )
    if machine._trace is not None:
        issue_eval = np.arange(n, dtype=np.int64)
        # c(i) = max(p(i) + 1, r(i-1)) holds under both policies.
        convert_cycles = pop_cycles + 1
        np.maximum(convert_cycles[1:], ret_cycles[:-1], out=convert_cycles[1:])
        _record_trace(
            machine,
            stream,
            result.stats,
            [
                ("select", _delivery_cycles(ret_cycles, window)),
                ("ret", ret_cycles),
                ("convert", convert_cycles),
                ("scale", pop_cycles),
                ("fifo", issue_eval + 2),
                ("energy", issue_eval + 1),
                ("issue", issue_eval),
            ],
        )
    return result


def _stall_policy_walk(
    machine,
    stream: JobStream,
    temperature_schedule: Dict[int, float],
    avail: np.ndarray,
    scaled: np.ndarray,
    stats: Dict[str, int],
):
    """Sequential event walk for ``conflict_policy="stall"``.

    One iteration per *evaluation* (never per cycle): due winner
    deliveries swap the boundary registers, the evaluation converts
    against the live table, and a blocked RET issue fast-forwards to the
    next window boundary, charging the skipped cycles as conflict
    stalls exactly as the per-cycle retry loop does (every cycle of the
    window conflicts on the same network key).
    """
    config = machine.config
    window = machine.window
    waveguides = machine.waveguides
    n = stream.n_evals
    labels = stream.labels
    updates = [
        (j * labels, temperature_schedule[j])
        for j in _update_jobs(stream, temperature_schedule).tolist()
    ]
    # Per-epoch scaled-energy -> code table: the boundary comparison
    # depends only on the integer scaled energy, so one small gather
    # table per epoch replaces the per-evaluation comparator walk.
    code_lut_domain = int(scaled.max()) + 1
    domain = np.arange(code_lut_domain, dtype=np.int64)
    code_lut = boundary_codes(machine._bounds, domain, config.lambda_max_code)
    final_bounds = machine._bounds
    shadow: Optional[float] = None
    update_cursor = 0

    deliveries = EventQueue()
    network_last_use: Dict[Tuple[int, int], int] = {}
    pop_cycles = np.empty(n, dtype=np.int64)
    ret_cycles = np.empty(n, dtype=np.int64)
    codes_eval = np.empty(n, dtype=np.int64)
    delivery_last = np.empty(stream.n_jobs, dtype=np.int64)
    conv_prev = int(_NEG)
    ret_prev = int(_NEG)

    for job in range(stream.n_jobs):
        # The job's first label pops once the job is available; each
        # later label pops after its predecessor converts, which is
        # already past that.
        ready = int(avail[job])
        for i in range(job * labels, (job + 1) * labels):
            pop = max(conv_prev, ready)
            convert = max(pop + 1, ret_prev)
            # Drain deliveries due by the convert cycle: each swaps in the
            # latest shadow armed strictly before it.
            while (
                deliveries.peek_cycle() is not None
                and deliveries.peek_cycle() <= convert
            ):
                (cycle, _), = deliveries.pop_due(deliveries.peek_cycle())
                while update_cursor < len(updates) and updates[update_cursor][0] < cycle:
                    shadow = updates[update_cursor][1]
                    update_cursor += 1
                if shadow is not None:
                    final_bounds = boundary_table(shadow, config)
                    code_lut = boundary_codes(
                        final_bounds, domain, config.lambda_max_code
                    )
                    shadow = None
            code = int(code_lut[scaled[i]])
            attempt = convert + 1
            if code > 0:
                conc = code.bit_length() - 1  # int(log2) of a power of two
                while True:
                    window_index = attempt // window
                    key = (window_index % waveguides, conc)
                    last = network_last_use.get(key)
                    if last == window_index:
                        skipped = (window_index + 1) * window - attempt
                        stats["network_conflicts"] += skipped
                        stats["conflict_stalls"] += skipped
                        attempt += skipped
                        continue
                    if last is not None and window_index - last < waveguides:
                        stats["reuse_violations"] += 1
                    network_last_use[key] = window_index
                    break
            pop_cycles[i] = pop
            ret_cycles[i] = attempt
            codes_eval[i] = code
            conv_prev, ret_prev = convert, attempt
        delivered = attempt + (window - 1 if window > 1 else 1)
        delivery_last[job] = delivered
        deliveries.push(delivered, job)

    machine._bounds = final_bounds
    machine._shadow_bounds = None
    return codes_eval, pop_cycles, ret_cycles, delivery_last
