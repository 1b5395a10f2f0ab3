"""The benchmark's own arithmetic: percentiles, spreads, digests and identity.

Everything here is pure and imports nothing from ``repro``, so the rules can be
tested on their own (``python3 -m pytest perfbench``) and reused by the
comparison tool without loading the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick from, lowest first.
CANDIDATE_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


# ---------------------------------------------------------------- percentiles
def _rank(count: int, percentile: float) -> int:
    # The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(percentile * count / 100.0 - 1e-9))


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), percentile) - 1]


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - _rank(count, percentile)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.  At
    139 samples this is the 90th percentile (13 beyond; the 95th has 6).
    """
    chosen = None
    for percentile in CANDIDATE_PERCENTILES:
        if samples_beyond(count, percentile) >= MIN_SAMPLES_BEYOND:
            chosen = percentile
    return chosen


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``) with the sample count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    stats = summarize(values)
    if stats["median"] == 0:
        return math.inf
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


# ------------------------------------------------------------------ self time
def covered_length(start: float, end: float,
                   intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, so children that overlap each
    other, or stick out of their parent, are never counted twice.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals
        if min(end, hi) > max(start, lo)
    )
    covered = 0.0
    run_lo: Optional[float] = None
    run_hi = 0.0
    for lo, hi in clipped:
        if run_lo is None or lo > run_hi:
            if run_lo is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_lo is not None:
        covered += run_hi - run_lo
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(start, end, children)


# -------------------------------------------------------------------- digests
def canonical(value: object) -> object:
    """A JSON-ready form that is equal exactly when the outputs are equal.

    Mappings get string keys (sorted at encoding), tuples and lists become
    lists, sets become sorted lists, and numpy scalars and arrays become
    Python numbers and lists.  Floats keep every digit (``repr``).
    """
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=_sort_key)
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    tolist = getattr(value, "tolist", None)  # numpy scalars and arrays
    if callable(tolist):
        return canonical(tolist())
    raise TypeError(f"cannot canonicalise {type(value).__name__} for a digest")


def _sort_key(value: object) -> str:
    return json.dumps(value, sort_keys=True)


def canonical_json(value: object) -> str:
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def digest(value: object) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# ------------------------------------------------------------------- identity
def definition_hash(workload: str, params: Mapping[str, object],
                    fingerprints: Sequence[str]) -> str:
    """Identity of a workload's definition: its cells plus its pass parameters.

    ``fingerprints`` are the expanded campaign-job fingerprints at the
    reference seed, in expansion order; a changed cell, cell count, order or
    pass parameter gives a different hash.
    """
    return digest({"workload": workload, "params": params,
                   "cells": list(fingerprints)})


def tree_revision(paths: Iterable[Path], root: Path) -> str:
    """Content hash of a set of files, keyed by their path below ``root``."""
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def machine() -> Dict[str, object]:
    """What makes timings from two hosts incomparable."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def comparability_problems(left: Mapping[str, object],
                           right: Mapping[str, object]) -> List[str]:
    """Why two result records must not be compared (empty when they may)."""
    problems = []
    for key in ("workload", "definition_hash", "benchmark_revision",
                "run_seconds", "trace", "machine"):
        if left.get(key) != right.get(key):
            problems.append(f"{key} differs: {left.get(key)!r} != {right.get(key)!r}")
    return problems
