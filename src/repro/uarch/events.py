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
* **Back-end occupancy** of the new design is a max-plus recurrence
  over the pop/convert/RET latches whose closed form is one
  ``np.maximum.accumulate`` over the conflict stalls.  Under
  ``conflict_policy="count"`` the stalls are zero; under ``"stall"``
  the RET-network conflicts feed back, and a scalar pass steps only
  through the *active* evaluations (nonzero code, the only ones that
  can conflict), once per boundary-register swap.
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


def _back_end_cycles(
    stream: JobStream, window: int, stalls: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pop, convert and RET cycles of every evaluation, and each job's
    winner-delivery cycle, from the per-evaluation conflict stalls ``s``.

    The front end never stalls (evaluation ``i`` issues at cycle ``i``),
    and a job becomes poppable two cycles after its minimum latches (the
    latch lands in the FIFO-insert step of cycle ``issue(label 0) + 2``,
    and the pop step of a cycle runs before that cycle's insert step):
    ``avail(j) = first_issue(j) + M + 2``.  The convert recurrence
    ``c(i) = max(c(i-1) + 1 + s(i-1), avail(job(i)) + 1)`` then unrolls,
    with ``S(i) = sum_{k<i} s(k)``, to::

        c(i) = i + 1 + S(i) + max_{k<=i}(shift(k) - S(k))

    where ``shift`` is ``M + 2`` at each job's first evaluation and minus
    infinity elsewhere.  ``conflict_policy="count"`` is the ``S = 0``
    case.
    """
    n, labels = stream.n_evals, stream.labels
    index = np.arange(n, dtype=np.int64)
    shift = np.full(n, _NEG, dtype=np.int64)
    shift[::labels] = labels + 2
    stalled = np.zeros(n, dtype=np.int64)
    np.cumsum(stalls[:-1], out=stalled[1:])
    convert_cycles = index + 1 + stalled + np.maximum.accumulate(shift - stalled)
    # p(i) = max(c(i-1), avail(job(i))): a stall ahead of i can hold
    # the pop below c(i) - 1.
    pop_cycles = shift + index
    np.maximum(pop_cycles[1:], convert_cycles[:-1], out=pop_cycles[1:])
    ret_cycles = convert_cycles + 1 + stalls
    delivery_last = _delivery_cycles(ret_cycles[labels - 1 :: labels], window)
    return pop_cycles, convert_cycles, ret_cycles, delivery_last


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


def _network_conflict_stats(
    ret_cycles: np.ndarray,
    codes_eval: np.ndarray,
    window: int,
    waveguides: int,
    stats: Dict[str, int],
) -> None:
    """Network-conflict stats of the final RET issues, under either policy.

    Every same-code RET issue after the first within one observation
    window is a conflict (the active waveguide is a function of the
    window index, so the colliding network is fully keyed by
    ``(window, code)``).  Reuse violations are counted per first issue
    of a network in a new window whose rest gap is short — with the
    QDLED counter rotating the waveguide every window the gap between
    uses of one physical network is always a multiple of ``waveguides``,
    so the faithful computation below lands on the per-cycle machine's zero.
    Under ``"stall"`` no two issues share a ``(window, code)`` pair, so
    the conflicts are the stall cycles alone, which the caller adds.
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
    system is max-plus linear and :func:`_back_end_cycles` yields every
    latch time at once.  Under ``"stall"`` a same-window same-code issue
    parks in the compare latch until the window turns — timing now
    depends on the codes, which depend on the boundary epochs, which
    depend on earlier winner deliveries — so :func:`_stall_policy_walk`
    finds the stalls first.
    """
    temperature_schedule = temperature_schedule or {}
    config = machine.config
    window = machine.window
    scaled = _scaled_energies(stream)

    stats = {
        "network_conflicts": 0,
        "conflict_stalls": 0,
        "fifo_max_entries": 0,
        "fifo_max_variables": 0,
        "reuse_violations": 0,
        "temperature_stalls": 0,
    }

    if machine._conflict_policy == "count":
        pop_cycles, convert_cycles, ret_cycles, delivery_last = _back_end_cycles(
            stream, window, np.zeros(stream.n_evals, dtype=np.int64)
        )
        swap_cycles, tables = _swap_epochs(
            machine, stream, temperature_schedule, delivery_last
        )
        codes_eval = _codes_by_epoch(
            convert_cycles, scaled, swap_cycles, tables, config
        )
    else:
        codes_eval, stalls, pop_cycles, convert_cycles, ret_cycles, delivery_last = (
            _stall_policy_walk(machine, stream, temperature_schedule, scaled)
        )
        stats["conflict_stalls"] = int(stalls.sum())
    _network_conflict_stats(ret_cycles, codes_eval, window, machine.waveguides, stats)
    # Each cycle a parked issue waits is one more conflict.
    stats["network_conflicts"] += stats["conflict_stalls"]

    _fifo_stats(stream, pop_cycles, stats)
    result = _finish(
        stream, machine, codes_eval, ret_cycles, delivery_last, stream.first_evals, stats
    )
    if machine._trace is not None:
        issue_eval = np.arange(stream.n_evals, dtype=np.int64)
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
    scaled: np.ndarray,
):
    """Codes, conflict stalls and latch cycles for ``conflict_policy="stall"``.

    Only an *active* evaluation (nonzero code) can stall, so Python
    steps through the active evaluations alone.  Between two of them,
    ``a' < a``, nothing stalls, and the convert cycle follows in closed
    form from the stall-free cycles ``base`` of :func:`_back_end_cycles`::

        c(a) = max(c(a') + s(a') + (a - a'), base(a))

    Issue cycles strictly increase, so the network key ``(window %
    waveguides, conc)`` was last used in window ``w`` exactly when
    concentration ``conc`` fired in ``w``: the conflict state is one
    last-fired window per concentration.  A blocked issue parks until
    the next window opens, where nothing has fired yet — one jump,
    charging the skipped cycles as stalls exactly as the per-cycle retry
    loop does.

    Temperature updates are applied by repair.  A pass converts against
    the live boundary table and runs far enough to settle the next swap:
    the first winner delivery after the next armed update, which swaps
    in the latest update armed before it (as in :func:`_swap_epochs`).
    Every evaluation converting before the swap is kept, the conflict
    state is rebuilt from that prefix, and the next pass resumes there
    with the new table — one pass per swap, a single pass without
    updates.
    """
    config = machine.config
    window = machine.window
    n, labels = stream.n_evals, stream.labels
    update_jobs = _update_jobs(stream, temperature_schedule)
    armed = update_jobs * labels  # each update arms in its job's first issue cycle
    # The update's own job delivers ``delta`` cycles after its last RET
    # issue, and the evaluation ``delta`` past that job converts no
    # earlier: a pass stepped to ``armed + settle`` settles the swap.
    delta = window - 1 if window > 1 else 1
    settle = labels + delta
    # Stall-free c(i) - i: the floor every evaluation's convert keeps.
    stalls = np.zeros(n, dtype=np.int64)
    lift = _back_end_cycles(stream, window, stalls)[1] - np.arange(n, dtype=np.int64)
    codes_eval = np.empty(n, dtype=np.int64)
    bounds = machine._bounds
    start = cursor = 0
    floor = int(_NEG)  # c(a) + s(a) - a of the last evaluation stepped
    last_fired = [-1] * config.lambda_max_code.bit_length()

    while True:
        end = n if cursor == armed.size else min(n, int(armed[cursor]) + settle)
        codes_eval[start:end] = boundary_codes(
            bounds, scaled[start:end], config.lambda_max_code
        )
        stalls[start:] = 0
        active = np.flatnonzero(codes_eval[start:end]) + start
        conc = np.log2(codes_eval[active]).astype(np.int64)
        stalled_at, stalled_for = [], []
        for a, k, lift_a in zip(active.tolist(), conc.tolist(), lift[active].tolist()):
            if floor < lift_a:
                floor = lift_a
            attempt = floor + a + 1
            window_index = attempt // window
            if last_fired[k] == window_index:
                window_index += 1
                stall = window_index * window - attempt
                stalled_at.append(a)
                stalled_for.append(stall)
                floor += stall
            last_fired[k] = window_index
        stalls[stalled_at] = stalled_for
        pop_cycles, convert_cycles, ret_cycles, delivery_last = _back_end_cycles(
            stream, window, stalls
        )
        if cursor == armed.size:
            break

        swap = delivery_last[
            np.searchsorted(delivery_last, armed[cursor], side="right")
        ]
        cursor = int(np.searchsorted(armed, swap, side="left"))
        bounds = boundary_table(
            temperature_schedule[int(update_jobs[cursor - 1])], config
        )
        start = int(np.searchsorted(convert_cycles, swap, side="left"))
        floor = int(_NEG)
        if start:
            last = start - 1
            floor = int(convert_cycles[last] + stalls[last]) - last
        # Only issues in the resumed pass's first window can still
        # collide, and at most ``window`` kept issues share a window.
        last_fired = [-1] * len(last_fired)
        lo = max(0, start - window)
        tail = np.flatnonzero(codes_eval[lo:start]) + lo
        for k, window_index in zip(
            np.log2(codes_eval[tail]).astype(np.int64).tolist(),
            (ret_cycles[tail] // window).tolist(),
        ):
            last_fired[k] = window_index

    machine._bounds = bounds
    machine._shadow_bounds = None
    return codes_eval, stalls, pop_cycles, convert_cycles, ret_cycles, delivery_last
