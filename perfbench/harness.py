"""Timing, host normalisation and result assembly shared by every workload.

Host speed on small shared machines drifts by 2x within a minute, so every
time the benchmark reports is *host-normalised*: the raw seconds of an
interval times ``K_REF / k``, where ``k`` is the mean of two timings of a
fixed pure-Python reference kernel taken just before and just after the
interval, and ``K_REF`` is the constant below.  Requests are kept short so
that each one falls inside a single host phase.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

#: Lint rules whose findings read lint's own deadlock search, which stops
#: on a 1 s wall-clock budget: ERM5xx report its verdict, and ERM604 fires
#: only when it is inconclusive.  Whether they appear depends on host speed,
#: so outcome digests and ``lint.findings`` leave them out.
CLOCKED_RULES = ("ERM5", "ERM604")

#: Reference kernel time (seconds) that normalised times are expressed in.
K_REF = 0.012

#: 16 MiB the kernel reads at pseudo-random offsets.  It is larger than the
#: CPU caches, so contention for caches and memory bandwidth, which slows
#: the program's large analyses, slows the kernel too.
_MEMORY = bytearray(range(256)) * (1 << 16)


def kernel() -> float:
    """Fixed pure-Python work (about 10 ms) mixing the program's own kinds
    of work: tuple hashing and dict updates (simulation, lowering), exact
    ``Fraction`` arithmetic (cycle-time certification), float compares over
    a list (branch-and-bound), and reads scattered over a buffer larger
    than the caches (large heaps)."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(3000):
        key = (i & 255, i >> 3)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) & 0xFFFFFFFF
    ratio = Fraction(0)
    for i in range(1, 400):
        ratio = max(ratio, Fraction(i * 37 % 101, i % 13 + 1)) + Fraction(1, i % 7 + 1)
    values = [float(i % 17) * 0.5 for i in range(64)]
    best = 0.0
    for i in range(15000):
        v = values[i & 63] + values[(i * 7) & 63]
        if v > best:
            best = v - 0.25
    memory = _MEMORY
    mask = len(memory) - 1
    offset = 12345
    for _ in range(20000):
        offset = (offset * 1103515245 + 12345) & mask
        acc += memory[offset]
    return acc + len(sorted(table.values())) + float(ratio) + best


def assert_quiescent() -> None:
    """Raise unless this process is alone: one thread, no child process.

    Background work left running by the program (a pool, a thread, a child
    process) would slow the kernel and inflate ``k``, hiding the slowdown it
    causes; the benchmark refuses to sample in that state.
    """
    if threading.active_count() != 1:
        raise RuntimeError(
            f"{threading.active_count()} Python threads alive at a kernel sample"
        )
    task_dir = "/proc/self/task"
    if not os.path.isdir(task_dir):
        return
    tasks = os.listdir(task_dir)
    if len(tasks) != 1:
        raise RuntimeError(f"{len(tasks)} native threads alive at a kernel sample")
    try:
        with open(os.path.join(task_dir, tasks[0], "children")) as handle:
            children = handle.read().split()
    except OSError:
        children = []
    if children:
        raise RuntimeError(f"child processes {children} alive at a kernel sample")


def sample_kernel() -> float:
    """One guarded timing of the reference kernel, in seconds.

    The cyclic garbage collector is paused while the kernel runs: a
    collection there would cost time in proportion to the program's heap,
    not to host speed.
    """
    assert_quiescent()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    """One timed interval: raw seconds and host-normalised seconds."""

    raw_s: float
    norm_s: float

    @property
    def k_s(self) -> float:
        """The kernel time the interval was normalised by (time-weighted)."""
        return self.raw_s * K_REF / self.norm_s if self.norm_s else K_REF


class Clock:
    """Times intervals back to back, sampling the kernel between them.

    Adjacent intervals share the sample taken between them.  Inside an
    interval longer than ``TICK_S`` the kernel is also sampled every
    ``TICK_S`` from a ``SIGALRM`` handler (same thread, no helper process);
    the interval is then normalised piecewise, each piece by the mean of
    the samples around it, and the handler's own time is left out of the
    interval.
    """

    TICK_S = 0.25

    def __init__(self) -> None:
        self.ticks = hasattr(signal, "setitimer")
        self.timings: list[Timing] = []
        #: Seconds spent in the in-interval kernel samples so far.
        self.stolen_s = 0.0
        self._last_k = sample_kernel()

    def now(self) -> float:
        """A clock that excludes the in-interval kernel samples."""
        return time.perf_counter() - self.stolen_s

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result and record its timing."""
        raw = norm = 0.0
        piece_k = self._last_k
        piece_start = time.perf_counter()

        def tick(signum, frame) -> None:
            nonlocal raw, norm, piece_k, piece_start
            piece = time.perf_counter() - piece_start
            k = sample_kernel()
            raw += piece
            norm += piece * K_REF / ((piece_k + k) / 2)
            piece_k = k
            resumed = time.perf_counter()
            self.stolen_s += resumed - piece_start - piece
            piece_start = resumed

        if self.ticks:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            return fn(*args)
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            piece = time.perf_counter() - piece_start
            after = sample_kernel()
            raw += piece
            norm += piece * K_REF / ((piece_k + after) / 2)
            self.timings.append(Timing(raw, norm))
            self._last_k = after

    @property
    def raw_s(self) -> float:
        return sum(t.raw_s for t in self.timings)

    @property
    def norm_s(self) -> float:
        return sum(t.norm_s for t in self.timings)

    @property
    def mean_k_s(self) -> float:
        return statistics.fmean(t.k_s for t in self.timings)


def spread_evenly(rng, low: int, high: int, count: int) -> list[int]:
    """``count`` integers covering ``[low, high]`` evenly, in seeded order.

    Drawing sizes this way gives every run the same size mix, so run
    totals and percentiles do not swing with the luck of the draw."""
    if count == 1:
        return [rng.randint(low, high)]
    sizes = [low + (high - low) * j // (count - 1) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean; the empty product reads 1."""
    if not values:
        return 1.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value: object) -> str:
    """SHA-256 of ``repr(value)``; callers pass plain, ordered containers."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass
class RequestRecord:
    """What one request left behind for the checks and the metrics."""

    outcome: object = None
    digest: str = ""
    error: str = ""
    extra: dict = field(default_factory=dict)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
