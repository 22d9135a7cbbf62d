"""Reference-speed clock: wall time corrected for the host's own speed drift.

A small fixed probe runs every PROBE_PERIOD_S seconds from a SIGALRM
handler, in the same single thread as the workload. The probe calls
nothing in demoforge, so a slower program still shows in full, while a
slower host slows the probe and the program alike. Probe time is left out
of every measured interval (the handler is atomic with respect to the
code it interrupts, so an interval either contains a whole probe or none
of it), and each interval is rescaled by the ratio of REFERENCE_PROBE_S to
the median probe duration seen around it, raised to SENSITIVITY:

    reference seconds = (wall seconds - probe seconds) * (REFERENCE_PROBE_S / local probe) ** SENSITIVITY

REFERENCE_PROBE_S sets the unit: figures are what this host gives when the
probe takes that long. SENSITIVITY is how strongly the workloads follow the
probe when the host changes speed, measured on this host (README.md,
"Reference speed"); the probe, which spends all its time on the CPU, swings
more than programs that also wait on memory.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.spatial.transform import Rotation as _SR

PROBE_PERIOD_S = 0.25
REFERENCE_PROBE_S = 0.0020
SENSITIVITY = 0.83
# probes within this many seconds of an interval set its speed factor
WINDOW_S = 2.0
MIN_WINDOW_PROBES = 5

_PROBE_MATRIX = _SR.from_euler("XYZ", [10.0, 20.0, 30.0], degrees=True).as_matrix()


def probe() -> float:
    """Fixed work in the mix the workloads run: interpreter, small numpy
    arrays and scipy rotations. Returns a value so nothing is optimised out."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(600):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc
    v = np.array([0.1, 0.2, 0.3])
    m = np.eye(3)
    total = 0.0
    for _ in range(60):
        m = m @ _PROBE_MATRIX
        total += float(np.linalg.norm(m @ v - v))
    for _ in range(12):
        total += float(_SR.from_matrix(_PROBE_MATRIX).as_rotvec()[0])
    return total + acc + len(table)


class RefClock:
    """Runs the probe on a timer and converts wall intervals to reference time."""

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.ends: list[float] = []  # perf_counter at the end of each probe
        self.durations: list[float] = []
        self._cumulative: list[float] = []  # probe seconds up to and including probe i
        self._running = False

    def _on_alarm(self, signum, frame) -> None:
        self.run_probe()

    def run_probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._cumulative.append((self._cumulative[-1] if self._cumulative else 0.0) + t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        i0 = bisect.bisect_right(self.ends, t0)
        i1 = bisect.bisect_right(self.ends, t1)
        if i1 == 0:
            return 0.0
        before = self._cumulative[i0 - 1] if i0 > 0 else 0.0
        return self._cumulative[i1 - 1] - before

    def work_seconds(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] with the probe's own time left out."""
        return (t1 - t0) - self.probe_seconds(t0, t1)

    def local_probe(self, t0: float, t1: float) -> float:
        """Median probe duration around [t0, t1]; the median ignores the odd
        probe an interrupt or preemption lengthened."""
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        window = self.durations[lo:hi]
        if len(window) < MIN_WINDOW_PROBES:
            window = self.durations
        if not window:
            raise RuntimeError("too few probes to put the interval at reference speed")
        return statistics.median(window)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """[t0, t1] in seconds at reference machine speed."""
        return self.work_seconds(t0, t1) * (REFERENCE_PROBE_S / self.local_probe(t0, t1)) ** SENSITIVITY

    def ensure_probes(self, min_probes: int = MIN_WINDOW_PROBES) -> None:
        """Run probes back to back until a short interval has enough of them.

        Busy, not sleeping: an idle core may clock down and read slow."""
        while len(self.durations) < min_probes:
            self.run_probe()
