"""Metric names and units, sample statistics, and the output check.

Names follow the contract grammar checked by :func:`check_name`: a
letter or digit first, then at most 63 more letters, digits, ``_``,
``.`` or ``-``.  Units are at most 16 of letters, digits, ``_``, ``/``,
``%``, ``.`` and ``-``.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Names, units and directions of the metrics come from BENCHMARK.json at
#: the checkout root, the one place they are declared.
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

#: End-to-end metrics (tracing off, host time): name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
}

#: Per-layer metrics (traced run): name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
}


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


def report(values: Dict[str, float], table: Dict[str, Tuple[str, str]]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the names in ``table``."""
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    out = {}
    for name, (unit, _better) in table.items():
        value = values[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        out[check_name(name)] = {"value": value, "unit": check_unit(unit)}
    return out


# --------------------------------------------------------------------------
# sample statistics
# --------------------------------------------------------------------------

def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail(samples: Sequence[float], beyond: int = 10) -> Optional[Tuple[int, float]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, or None when there are too few
    samples for any percentile to have ``beyond`` samples past it.
    """
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    k = n - beyond - 1            # index with exactly `beyond` samples above
    return math.floor(100 * (k + 1) / n), ordered[k]


def calibration_loop(n: int = 20000) -> float:
    """Host seconds of a fixed pure-Python loop shaped like the simulator's
    hot path (heap push/pop of tuples, dict updates).

    Timed just before every timed run, so its median over a run measures
    how fast the host ran that run (see :func:`at_reference_speed`).
    """
    heap: list = []
    counts: Dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


#: Per-workload speed exponents and the reference loop time, fitted by
#: ``fit_speed.py fit`` from the segment data stored alongside them.
SPEED_FIT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "speed_fit.json")


def load_speed_fit(path: str = SPEED_FIT) -> dict:
    with open(path) as fh:
        return json.load(fh)


def at_reference_speed(samples: Sequence[float], calib: Sequence[float],
                       exponent: float, ref_calib_s: float) -> float:
    """Median of ``samples`` scaled to the host speed at which the
    calibration loop takes ``ref_calib_s``.

    A shared host's speed drifts by tens of percent over minutes as its
    neighbours' load changes, and a run's median moves with it.  The loop
    is timed just before each sample, so ``median(calib)`` measures the
    speed of the same stretch; ``exponent`` is how strongly the
    workload's time follows the loop's, fitted per workload.
    """
    return statistics.median(samples) * (ref_calib_s / statistics.median(calib)) ** exponent


def fit_exponent(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log(time) on log(loop time) over
    ``(time, loop time)`` points, clipped to [0, 1], and the correlation."""
    ys = [math.log(t) for t, _ in points]
    xs = [math.log(c) for _, c in points]
    my, mx = statistics.fmean(ys), statistics.fmean(xs)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    return min(1.0, max(0.0, slope)), statistics.correlation(xs, ys) if sxx else 0.0


def fit_pooled_exponent(groups: Iterable[Sequence[Tuple[float, float]]]) -> Tuple[float, float]:
    """:func:`fit_exponent` over several groups of points, each divided by
    its own geometric means, so that only variation within a group counts."""
    pooled = []
    for points in groups:
        gt = statistics.geometric_mean(t for t, _ in points)
        gc = statistics.geometric_mean(c for _, c in points)
        pooled += [(t / gt, c / gc) for t, c in points]
    return fit_exponent(pooled)


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Checker:
    """Counts runs whose simulated outputs differ from the reference.

    With a pinned ``reference`` (the default seed) every run is compared
    to it; without one, the first checked run becomes the reference, so
    every repeat must reproduce it.
    """

    def __init__(self, reference: Optional[dict] = None) -> None:
        self.reference = None if reference is None else canonical(reference)
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, outputs: dict) -> bool:
        got = canonical(outputs)
        self.attempted += 1
        if self.reference is None:
            self.reference = got
        if got == self.reference:
            return True
        self.failed += 1
        ref = json.loads(self.reference)
        self.mismatches.extend(
            f"{key}: {ref.get(key)!r} != {outputs.get(key)!r}"
            for key in sorted(set(ref) | set(outputs))
            if canonical(ref.get(key)) != canonical(outputs.get(key))
        )
        return False

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
