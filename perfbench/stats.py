"""Arithmetic the benchmark reports with: sample summaries and the FFT floor.

Kept free of numpy and of ``wlns`` so the self-tests can check it alone.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Transforms per RK4 step in the solver's scheme, computed from the code and
# not measured: 4 stages x (3 inverse + 6 forward) transforms.
TRANSFORMS_PER_STEP = 4 * (3 + 6)


def nearest_rank(sorted_values, p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and the count of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values) -> tuple[str, float] | None:
    """The highest ladder percentile with at least ``TAIL_SAMPLES`` samples beyond it."""
    ordered = sorted(values)
    for p in PERCENTILE_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= TAIL_SAMPLES:
            return f"p{p:g}", value
    return None


def summarize(values, unit: str) -> dict:
    """Median, the tail percentile (or null), and the sample count."""
    if not values:
        raise ValueError("no samples to summarize")
    tail = tail_percentile(values)
    return {
        "unit": unit,
        "median": statistics.median(values),
        "percentile": None if tail is None else tail[0],
        "percentile_value": None if tail is None else tail[1],
        "samples": len(values),
        "min": min(values),
        "values": list(values),
    }


def fft_floor_ratio(step_ms: float, fft_floor_ms: float) -> float:
    """Step time as a multiple of its FFT floor (transforms per step x one transform)."""
    return step_ms / (TRANSFORMS_PER_STEP * fft_floor_ms)

