"""Pipeline event tracing and text rendering.

A :class:`PipelineTrace` collects ``(cycle, stage, variable, label)``
events from a structural machine and renders them as a text pipeline
diagram — one row per label evaluation, one column per cycle, stage
letters marking where the evaluation was each cycle.  Useful for
documentation, debugging, and the ``examples/uarch_trace.py`` demo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigError

#: Stage display letters, in pipeline order.
STAGE_LETTERS = {
    "issue": "I",
    "energy": "E",
    "convert": "C",
    "fifo": "F",
    "scale": "S",
    "ret": "R",
    "select": "W",
    "stall": "x",
}


@dataclass
class TraceEvent:
    """One pipeline occurrence."""

    cycle: int
    stage: str
    variable: int
    label: int


@dataclass
class PipelineTrace:
    """Collects events in a bounded ring buffer.

    The buffer holds the **most recent** ``max_events`` events — on a
    long run the interesting end-of-run behaviour survives while memory
    stays O(``max_events``) no matter how many cycles execute.
    ``dropped`` counts the overwritten (oldest) events, so a consumer
    can tell a complete trace from a windowed one.  Tracing is opt-in:
    machines run untraced (``trace=None``) unless one is passed, and an
    untraced run touches no trace storage at all.
    """

    max_events: int = 100_000
    events: Deque[TraceEvent] = field(default_factory=deque)
    dropped: int = 0

    def __post_init__(self):
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")
        initial: Iterable[TraceEvent] = self.events
        self.events = deque(initial, maxlen=self.max_events)

    def record(self, cycle: int, stage: str, variable: int, label: int) -> None:
        """Append one event (overwrites the oldest beyond ``max_events``)."""
        if stage not in STAGE_LETTERS:
            raise ConfigError(f"unknown stage {stage!r}")
        if len(self.events) == self.max_events:
            self.dropped += 1
        self.events.append(TraceEvent(cycle, stage, variable, label))

    def record_schedule(self, schedule: Sequence[tuple]) -> None:
        """Record a whole run given as per-stage event times.

        ``schedule`` lists ``(stage, cycles, width, variables, labels)``
        in the order a machine records its stages within one cycle.
        ``cycles`` is strictly increasing; its entry ``i`` records
        ``width`` events, at cycles ``cycles[i]`` to ``cycles[i] + width
        - 1``, for ``variables[i]`` and ``labels[i]``.  The ring ends in
        the state that :meth:`record` calls in recording order would
        leave, but only the events it keeps are built: the cut-off cycle
        of the last ``max_events`` is found by bisection over the sorted
        ``cycles``.
        """
        for stage, *_ in schedule:
            if stage not in STAGE_LETTERS:
                raise ConfigError(f"unknown stage {stage!r}")
        total = sum(len(cycles) * width for _, cycles, width, _, _ in schedule)
        keep = min(total, self.max_events)
        self.dropped += max(0, len(self.events) + total - self.max_events)
        if keep == 0:
            return

        def recorded_from(cycle: int) -> int:
            return sum(
                (len(cycles) - int(np.searchsorted(cycles, cycle))) * width
                for _, cycles, width, _, _ in schedule
            )

        # Latest cycle from which at least ``keep`` events are recorded.
        lo = min(int(cycles[0]) for _, cycles, *_ in schedule if len(cycles))
        hi = max(int(cycles[-1]) for _, cycles, *_ in schedule if len(cycles))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if recorded_from(mid) >= keep:
                lo = mid
            else:
                hi = mid - 1
        columns = []  # (record cycle, step, offset, variable, label)
        for rank, (_, cycles, width, variables, labels) in enumerate(schedule):
            first = int(np.searchsorted(cycles, lo))
            count = len(cycles) - first
            columns.append(
                (
                    np.repeat(cycles[first:], width),
                    np.full(count * width, rank),
                    np.tile(np.arange(width), count),
                    np.repeat(variables[first:], width),
                    np.repeat(labels[first:], width),
                )
            )
        record, step, offset, variable, label = (
            np.concatenate(column) for column in zip(*columns)
        )
        order = np.lexsort((offset, step, record))[-keep:]
        names = [stage for stage, *_ in schedule]
        self.events.extend(
            TraceEvent(cycle, names[index], var, lab)
            for cycle, index, var, lab in zip(
                (record[order] + offset[order]).tolist(),
                step[order].tolist(),
                variable[order].tolist(),
                label[order].tolist(),
            )
        )

    def by_evaluation(self) -> Dict[Tuple[int, int], List[TraceEvent]]:
        """Events grouped per (variable, label), cycle-ordered."""
        grouped: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault((event.variable, event.label), []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: e.cycle)
        return grouped

    def last_cycle(self) -> int:
        """Largest recorded cycle."""
        if not self.events:
            raise ConfigError("trace is empty")
        return max(event.cycle for event in self.events)

    def render(
        self,
        max_rows: int = 24,
        start_cycle: int = 0,
        end_cycle: Optional[int] = None,
    ) -> str:
        """Text pipeline diagram: rows = evaluations, columns = cycles."""
        if not self.events:
            raise ConfigError("trace is empty")
        end = self.last_cycle() if end_cycle is None else end_cycle
        if end < start_cycle:
            raise ConfigError("end_cycle must be >= start_cycle")
        width = end - start_cycle + 1
        lines = [
            "evaluation  " + "".join(str(c % 10) for c in range(start_cycle, end + 1))
        ]
        grouped = self.by_evaluation()
        for (variable, label), events in list(grouped.items())[:max_rows]:
            row = [" "] * width
            for event in events:
                if start_cycle <= event.cycle <= end:
                    row[event.cycle - start_cycle] = STAGE_LETTERS[event.stage]
            lines.append(f"v{variable:<3}l{label:<4}  " + "".join(row))
        if len(grouped) > max_rows:
            lines.append(f"... ({len(grouped) - max_rows} more evaluations)")
        legend = "  ".join(f"{letter}={name}" for name, letter in STAGE_LETTERS.items())
        lines.append(legend)
        if self.dropped:
            lines.append(
                f"(windowed trace: {self.dropped} oldest events dropped, "
                f"{len(self.events)} retained)"
            )
        return "\n".join(lines)

    def occupancy(self, stage: str) -> Dict[int, int]:
        """Events per cycle for one stage (utilization profile)."""
        if stage not in STAGE_LETTERS:
            raise ConfigError(f"unknown stage {stage!r}")
        counts: Dict[int, int] = {}
        for event in self.events:
            if event.stage == stage:
                counts[event.cycle] = counts.get(event.cycle, 0) + 1
        return counts
