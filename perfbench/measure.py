"""Step statistics, host-speed calibration, metric naming and the
result line of a run."""

from __future__ import annotations

import json
import math
import re
import resource
import time

import numpy as np

__all__ = [
    "LADDER",
    "METRIC_NAME",
    "REFERENCE_S",
    "HostSpeed",
    "metric",
    "peak_rss_mb",
    "percentile",
    "result_line",
    "tail_percentile",
]

#: Candidate tail percentiles, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: The charset (and length) every printed metric name keeps to.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """The highest :data:`LADDER` percentile with at least ten of
    ``count`` samples beyond it (the median when none has)."""
    best = LADDER[0]
    for q in LADDER:
        # In thousandths, so 99.9 leaves exactly count/1000 beyond it.
        if count * (1000 - round(q * 10)) >= 10 * 1000:
            best = q
    return best


#: What one calibration kernel run takes on the reference host.  Timed
#: results are scaled by ``REFERENCE_S / measured kernel time``, so they
#: read as seconds at the reference host's speed.
REFERENCE_S = 0.011


class HostSpeed:
    """A fixed calibration kernel -- dict-heavy interpreter work plus a
    float32 GEMM, the two kinds of work the workloads do -- timed to
    measure how fast the host runs right now.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds; the workload's wall time divided by the kernel's time
    measured around it does not.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 576), dtype=np.float32)
        self._b = rng.standard_normal((576, 128), dtype=np.float32)

    def _kernel(self) -> float:
        table: dict[int, int] = {}
        total = 0
        for i in range(30000):
            key = i & 255
            table[key] = table.get(key, 0) + i
            total += key
        product = self._a
        for _ in range(75):
            product = self._a @ self._b
        return total + float(product[0, 0])

    def sample(self) -> float:
        """Seconds of the fastest of three kernel runs."""
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - started)
        return best


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The run's last stdout line; refuses malformed metric names."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} breaks [A-Za-z0-9_.-]")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )

