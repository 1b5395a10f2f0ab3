"""Host-speed probe: timings expressed in reference-speed seconds.

On a few vCPUs of a shared host, speed can drift by up to half for tens of
seconds at a time (neighbours on the same cores), and no run length averages
that out.  So every timed process also times a fixed
kernel every :data:`INTERVAL_S`, from a ``SIGALRM`` handler: the kernel's CPU
time says how fast the host runs at that moment.  A host interval is then
reported in reference seconds: each stretch between two probe samples is
scaled by :data:`REFERENCE_KERNEL_S` over the samples' kernel time, and the
probe's own windows are taken out.  The kernel is the benchmark's own code and
never changes with the program, so a faster program still reads faster.

A probe can also append its samples to a file (``sink``), so that the parent
of a process pool can scale by the speed its workers saw.  The kernel's data
adds about 3.3 MB to the resident memory of every process the benchmark
times, so ``peak_rss_mb`` includes it.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import signal
import statistics
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

#: Seconds between two probe samples.
INTERVAL_S = 0.04
#: A round figure for the kernel's CPU time on the 2-vCPU Xeon host the
#: baseline was taken on (1.0 ms when the host is quiet, 1.3 ms median); a
#: reference second is a host second at that speed.
REFERENCE_KERNEL_S = 0.001
#: Samples (either side included) whose median smooths one sample's cost.
SMOOTH = 2

Sample = Tuple[float, float, float]  # (window start, window end, kernel CPU s)

# Neighbours slow integer work, memory-bound work and allocation-heavy work by
# different amounts, and the program does all three, so the kernel does too.
# Of the mixes tried against paper-eval passes, this one tracked the program's
# slowdown best: the integer loop alone or with the dict/JSON part
# under-corrects, random reads alone over-correct.
_RANDOM = random.Random(20250101)
#: 3.2 MB of boxed floats, more than a core's L2 cache: reads chase pointers
#: out to the shared L3, as the interpreter does over the program's objects.
_FLOATS = [_RANDOM.random() for _ in range(100_000)]
_INDICES = [_RANDOM.randrange(len(_FLOATS)) for _ in range(3000)]
_DOCUMENT = {"a": [1.5, 2.5, 3.5] * 8, "b": {"x": "yyyy", "z": [1, 2, 3]},
             "c": "hello world" * 4}


def kernel() -> float:
    """A fixed slice of interpreter work, 1 to 1.5 ms."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    for i in _INDICES:
        total += _FLOATS[i]
    table = {}
    for i in range(150):
        table[f"k{i}"] = [i, i * 0.5, str(i)]
    for _, row in sorted(table.items(), key=lambda item: item[1][1], reverse=True):
        total += row[1]
    return total + len(json.loads(json.dumps(_DOCUMENT)))


class SpeedProbe:
    """Samples host speed while the process runs (main thread only)."""

    def __init__(self, sink: Optional[Path] = None,
                 interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[Sample] = []
        self._sink = os.open(sink, os.O_WRONLY | os.O_CREAT | os.O_APPEND) \
            if sink is not None else None
        self._previous = None

    def sample(self, *_: object) -> None:
        start, cpu = time.monotonic(), time.thread_time()
        kernel()
        cost = time.thread_time() - cpu
        end = time.monotonic()
        self.samples.append((start, end, cost))
        if self._sink is not None:
            os.write(self._sink, f"{start!r} {end!r} {cost!r}\n".encode())

    def start(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()
        if self._sink is not None:
            os.close(self._sink)
            self._sink = None

    def timeline(self) -> "Timeline":
        return Timeline(self.samples)


class Timeline:
    """Probe samples in time order, answering questions about host intervals."""

    def __init__(self, samples: Iterable[Sample]) -> None:
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("no probe samples")
        self.starts = [s[0] for s in ordered]
        self.ends = [s[1] for s in ordered]
        costs = [s[2] for s in ordered]
        self.costs = [
            statistics.median(costs[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(costs))
        ]

    def _stretches(self, a: float, b: float):
        """``(length, kernel cost)`` of each probe-free stretch of ``[a, b]``.

        Stretch ``i`` runs from the end of sample ``i - 1`` to the start of
        sample ``i``; its cost is the mean of the two samples' (one at the
        ends of the timeline).
        """
        count = len(self.starts)
        i = bisect.bisect_right(self.ends, a)
        while i <= count:
            lo = self.ends[i - 1] if i > 0 else -float("inf")
            hi = self.starts[i] if i < count else float("inf")
            length = min(b, hi) - max(a, lo)
            if length > 0:
                if i == 0:
                    cost = self.costs[0]
                elif i == count:
                    cost = self.costs[-1]
                else:
                    cost = 0.5 * (self.costs[i - 1] + self.costs[i])
                yield length, cost
            if hi >= b:
                return
            i += 1

    def host_s(self, a: float, b: float) -> float:
        """Host seconds in ``[a, b]`` outside the probe's own windows."""
        return sum(length for length, _ in self._stretches(a, b))

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds in ``[a, b]``: host seconds scaled by speed."""
        return sum(length * REFERENCE_KERNEL_S / cost
                   for length, cost in self._stretches(a, b))

    def speed(self, a: float, b: float) -> float:
        """Reference seconds per host second over ``[a, b]``."""
        host = self.host_s(a, b)
        return self.reference_s(a, b) / host if host > 0 else 1.0


def read_samples(paths: Sequence[Path]) -> List[List[Sample]]:
    """The samples pool workers appended to their sink files, one list each."""
    per_file = []
    for path in paths:
        samples = []
        for line in path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 3:  # a torn last line is skipped
                samples.append(tuple(float(field) for field in fields))
        if samples:
            per_file.append(samples)
    return per_file


def pool_speed(per_worker: Sequence[Sequence[Sample]], a: float, b: float) -> float:
    """Reference seconds per host second of a pool of workers over ``[a, b]``.

    A pool's throughput is the sum of its workers' speeds, so this is the
    mean of their speeds.
    """
    speeds = [Timeline(samples).speed(a, b) for samples in per_worker]
    if not speeds:
        raise ValueError("no worker probe samples")
    return sum(speeds) / len(speeds)
