"""Helpers shared by the runner, the tracer and the comparer: the
``BENCHMARK.json`` table and order statistics.

Standard library only, so ``compare.py`` runs without NumPy or the
package under test.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from pathlib import Path
from typing import Optional, Sequence, Tuple


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units and bounds."""
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


#: Candidate percentiles for a latency tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single sample is its own quartiles.
    """
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, q3 = quartiles(values)
    centre = median(values)
    return (q3 - q1) / abs(centre) if centre else math.inf


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least ``TAIL_BEYOND`` samples
    beyond it among ``n``; None when even the median has too few."""
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND - 1e-9:
            return pct
    return None


def summary(values: Sequence[float], unit: str) -> dict:
    """Median, quartiles, sample count and the samples themselves."""
    q1, q3 = quartiles(values)
    return {
        "value": median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }
