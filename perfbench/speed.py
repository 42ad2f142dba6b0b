"""Machine-speed reference samples, taken while the workload runs.

The benchmark's host shares its cores: for seconds at a time every piece of
code in the workload process runs 1.3–1.6x slower, and a run of 15 s can fall
mostly in a fast or mostly in a slow phase.  The median of a run's wall-clock
op times then jumps between the two phases' values from run to run.

A reference sample times a fixed kernel written here (numpy on a 4 MB array
into a preallocated buffer, small eigenproblems, a JSON round trip and a
Python loop; nothing from metriclp), so a change to the program cannot change
it.  `Sampler` takes a sample every `INTERVAL_S` from a SIGALRM handler,
which runs in the workload's own thread between two bytecodes, so the op
stands still while the kernel runs.  `scale` then cuts each timed window at
the samples, drops the samples' own time, and scales every piece by
`NOMINAL_S` over the mean of the samples on either side of it: the piece's
time on a machine that runs the kernel in `NOMINAL_S`.
"""

from __future__ import annotations

import array
import bisect
import gc
import json
import signal
import time

import numpy as np

# One sample's time at the nominal speed: about the unloaded time on a
# 2-vCPU Xeon (105 MB L3) VM with Python 3.11 and numpy 2.4.
NOMINAL_S = 0.008
INTERVAL_S = 0.25  # between two samples
REPEATS = 2  # a sample is the fastest of this many kernel runs


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal(1 << 19)
        self.buf = np.empty_like(self.x)  # no large allocation while timing
        self.m = rng.standard_normal((32, 32))
        self.items = [float(v) for v in self.x[:4000]]
        for _ in range(REPEATS):
            self._kernel()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        np.multiply(self.x, self.x, out=self.buf)
        np.add(self.buf, 1.0, out=self.buf)
        acc = float(np.sqrt(self.buf, out=self.buf).sum())
        head = self.buf[:16384]
        head[:] = self.x[:16384]
        head.sort()
        acc += float(head[0])
        for _ in range(6):
            acc += float(np.linalg.eigvalsh(self.m @ self.m.T).sum())
        acc += len(json.loads(json.dumps(self.items)))
        total = 0
        for i in range(20000):
            total += i * i
        acc += total * 0.0
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):  # keeps the work from being skipped
            raise RuntimeError("reference kernel lost its value")
        return elapsed

    def sample(self) -> float:
        """The fastest of REPEATS kernel runs, so one preemption does not count."""
        best = self._kernel()
        for _ in range(REPEATS - 1):
            best = min(best, self._kernel())
        return best


class Sampler:
    """Reference samples every INTERVAL_S between start() and stop().

    start() and stop() each take one more sample, so every window between
    them has a sample on both sides.  A sample leaves no object behind that
    the garbage collector tracks, and no collection runs during it: the
    workload's collections, and with them its peak memory, stay where they
    would be without samples.
    """

    def __init__(self, probe: Probe | None = None) -> None:
        self.probe = probe or Probe()
        self._starts = array.array("d")
        self._ends = array.array("d")
        self._samples = array.array("d")
        self._busy = False

    def _mark(self, *_signal) -> None:
        if self._busy:  # a signal that came during a sample: skip it
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            s = self.probe.sample()
            self._starts.append(t0)
            self._ends.append(time.perf_counter())
            self._samples.append(s)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    @property
    def marks(self) -> list[tuple[float, float, float]]:
        """(start, end, sample) per sample, in time order."""
        return list(zip(self._starts, self._ends, self._samples))

    def start(self) -> None:
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()

    def samples(self) -> list[float]:
        return list(self._samples)

    def scale(self, windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
        return scale(windows, self.marks)


def scale(windows: list[tuple[float, float]],
          marks: list[tuple[float, float, float]]) -> list[tuple[float, float]]:
    """(wall, nominal) seconds of each (start, end) window.

    `wall` leaves out the samples taken inside the window.  The pieces
    between them are scaled by NOMINAL_S over the mean of the samples just
    before and just after each piece (one of them at the ends of `marks`).
    A sample runs between two bytecodes, so it is wholly inside or wholly
    outside a window.
    """
    starts = [t0 for t0, _t1, _s in marks]
    out = []
    for a, b in windows:
        lo, hi = bisect.bisect_left(starts, a), bisect.bisect_left(starts, b)
        edges = [a, *(t for t0, t1, _s in marks[lo:hi] for t in (t0, t1)), b]
        wall = nominal = 0.0
        for k in range(hi - lo + 1):
            piece = edges[2 * k + 1] - edges[2 * k]
            near = [marks[i][2] for i in (lo + k - 1, lo + k) if 0 <= i < len(marks)]
            wall += piece
            nominal += piece * NOMINAL_S * len(near) / sum(near)
        out.append((wall, nominal))
    return out
