"""Host-speed normalisation and the setup clock.

The benchmark host's speed drifts by tens of percent over a minute (a
fixed pure-Python loop's 5-second medians ranged 35-55 ms, with CPU
time tracking wall time), so raw rates do not repeat from run to run.
The benchmark therefore times short pieces of work and, after each,
runs a fixed calibration loop (more loops after longer pieces, so the
loops sample the host evenly in time).  A piece's time is divided by
the median of the calibration times taken within
:data:`WINDOW_S` of it and multiplied by :data:`NOMINAL_CALIB_S`, which
keeps the unit in seconds: "seconds on a host whose calibration loop
takes the nominal time".  The median over a window, rather than the
loops right next to the piece, keeps the noise of single 6 ms loops out
while still following the drift.  Raw figures are reported beside the
normalised ones.

The loop is a breadth-first search over a fixed random graph, not an
arithmetic loop, because the host's drift slows dict- and list-heavy
work, which is most of the program's, more than arithmetic.  Over
180 s of alternating samples, the spread of 10-second medians of
program work (0.21-0.30 raw) normalised by an arithmetic loop, and by
the search, was: a 12-trial reference-backend cell 0.114 and 0.053; a
``containment_radius`` BFS on ER(4096) 0.124 and 0.059; a
``run_until_stable`` beacon run 0.109 and 0.038; a vectorized SMM run
0.093 and 0.087.
"""

from __future__ import annotations

import bisect
import os
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Calibration-loop time the normalised figures are scaled to.  A
#: constant, so normalised values keep the units of the raw ones.
NOMINAL_CALIB_S = 0.006
#: Calibration samples within this many seconds of a piece set its speed.
WINDOW_S = 2.5
#: One calibration loop per this much timed work (at least one, at most
#: :data:`MAX_LOOPS`, after every piece).
LOOP_EVERY_S = 0.1
MAX_LOOPS = 16

_CALIB_NODES = 2048
_calib_graph: List[List[int]] = []


def _calibration_graph() -> List[List[int]]:
    """Adjacency lists of a fixed random graph (2,048 nodes, 6,144
    edges), the same in every run; built on first use."""
    if not _calib_graph:
        gen = random.Random(0x5EED)
        adj: List[List[int]] = [[] for _ in range(_CALIB_NODES)]
        for _ in range(3 * _CALIB_NODES):
            u = int(gen.random() * _CALIB_NODES)
            v = int(gen.random() * _CALIB_NODES)
            adj[u].append(v)
            adj[v].append(u)
        _calib_graph.extend(adj)
    return _calib_graph


def calibrate() -> float:
    """Seconds taken by one fixed piece of pure-Python work: four
    breadth-first searches of the calibration graph."""
    adj = _calibration_graph()
    t0 = time.perf_counter()
    for source in range(4):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
    return time.perf_counter() - t0


def process_age() -> float:
    """Seconds since this process was started by the kernel (10 ms
    resolution), or 0.0 where ``/proc`` is unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


class Host:
    """The run's calibration samples, ``(perf_counter time, seconds)``."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.loops: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            took = calibrate()
            self.times.append(t0 + took / 2)
            self.loops.append(took)

    def calib_at(self, t0: float, t1: float) -> float:
        """Median calibration time over ``[t0 - WINDOW_S, t1 + WINDOW_S]``
        (the five nearest samples if the window holds fewer)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < 5:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo, hi = max(0, mid - 3), min(len(self.times), mid + 3)
        return statistics.median(self.loops[lo:hi])

    def median(self) -> float:
        return statistics.median(self.loops)

    def normalise(self, raw: float, t0: float, t1: float) -> float:
        return raw * NOMINAL_CALIB_S / self.calib_at(t0, t1)


class SetupClock:
    """Times the cold set-up from interpreter start to the first timed
    operation, and samples the host right after it."""

    def __init__(self, started: float, age_at_start: float, host: Host) -> None:
        self.started = started  # perf_counter() at the top of run.py
        self.age_at_start = age_at_start
        self.host = host
        self.raw_s: Optional[float] = None
        self._end = 0.0

    def ready(self) -> float:
        """Stop the clock (once); returns the raw set-up seconds."""
        if self.raw_s is None:
            self._end = time.perf_counter()
            self.raw_s = self.age_at_start + self._end - self.started
            self.host.sample(MAX_LOOPS)
        return self.raw_s

    def normalised(self) -> float:
        return self.host.normalise(self.raw_s, self._end, self._end)


class Meter:
    """Times pieces of work and samples the host after each.

    ``pieces`` holds ``(key, ops, raw_seconds, start, end)``: the key
    names the piece's position in a round of operations (pieces with
    one key do the same kind and amount of work on different inputs).
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self.pieces: List[Tuple[object, float, float, float, float]] = []

    def time(self, fn: Callable[[], object], ops=1.0, key: object = None):
        """Run ``fn`` once, timed; return its result.  ``ops`` is the
        piece's operation count, or a function of the result giving it."""
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.host.sample(min(MAX_LOOPS, max(1, round((t1 - t0) / LOOP_EVERY_S))))
        if callable(ops):
            ops = ops(out)
        self.pieces.append((key, ops, t1 - t0, t0, t1))
        return out

    @classmethod
    def merged(cls, meters) -> "Meter":
        """One meter holding the pieces of several (same host)."""
        meters = list(meters)
        out = cls(meters[0].host)
        for meter in meters:
            out.pieces.extend(meter.pieces)
        return out

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def _norm(self, piece) -> float:
        return self.host.normalise(piece[2], piece[3], piece[4])

    def rate(self) -> Tuple[float, float]:
        """``(normalised ops/s, raw ops/s)``: per key, the median
        operation count over the median time, summed over keys.  Medians
        keep a piece that a neighbour on the host slowed down from
        moving the rate."""
        groups: Dict[object, list] = {}
        for piece in self.pieces:
            groups.setdefault(piece[0], []).append(
                (piece[1], piece[2], self._norm(piece))
            )
        ops = sum(statistics.median(p[0] for p in g) for g in groups.values())
        raw = sum(statistics.median(p[1] for p in g) for g in groups.values())
        norm = sum(statistics.median(p[2] for p in g) for g in groups.values())
        return ops / norm, ops / raw

    def call_time(self) -> Tuple[float, float]:
        """``(normalised, raw)`` seconds per piece: per key, the median
        time, averaged over keys.  Whole rounds fix the mix of keys, so
        the figure does not hinge on which key sits at the middle of
        all pieces."""
        groups: Dict[object, list] = {}
        for piece in self.pieces:
            groups.setdefault(piece[0], []).append((piece[2], self._norm(piece)))
        norm = statistics.mean(statistics.median(p[1] for p in g) for g in groups.values())
        raw = statistics.mean(statistics.median(p[0] for p in g) for g in groups.values())
        return norm, raw

    def normalised_times(self) -> List[float]:
        return [self._norm(p) for p in self.pieces]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)
    in MB, read from ``/proc``."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
