"""Host-speed probe: a fixed pure-Python kernel timed on the CPU clock.

A shared virtual machine does not run at one speed. On the two-vCPU
host this benchmark was written on, the same interpreter loop took
11 ms for seconds at a time and 20 ms for the next seconds, as other
tenants came and went on the physical core; the CPU clock of the
process counts both the same, so a run's timings moved with the share of
it that fell in each mode.

The benchmark therefore runs this kernel between its timed calls and
scales every call by the speed measured next to it:

    scaled_s = cpu_s * NOMINAL_S / (mean of the probes before and after)

The kernel does the kind of work the codec's Python loops do (integer
arithmetic, comparisons, list appends, dict updates) on fixed data.
This module imports only small standard modules, so that ``run.py`` can
load it in a fresh process to time ``import ecgz.cli`` without importing
anything that import would load.
It touches nothing in ``src/``: a change to the codec moves the scaled
times exactly as it moves the CPU times.
"""

from __future__ import annotations

import contextlib
import signal
import time

# CPU seconds of one kernel run on a quiet core of the machine the benchmark
# was written on (Intel Xeon, two vCPUs, Python 3.11). Scaled times are
# CPU times as they would read on a host where a probe takes this long.
NOMINAL_S = 0.0015
ROUNDS = 2  # kernel runs per probe


def _data(n: int = 6000) -> list[int]:
    state, out = 12345, []
    for _ in range(n):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        out.append((state >> 16) % 601 - 300)
    return out


DATA = _data()


def kernel(xs: list[int] = DATA) -> int:
    """Second-order residuals, width classes and a packed word list."""
    out: list[int] = []
    counts: dict[int, int] = {}
    a = b = 0
    for x in xs:
        r = x - 2 * a + b
        b, a = a, x
        w = 2 if -2 <= r < 2 else 3 if -4 <= r < 4 else 5 if -16 <= r < 16 else 8
        counts[w] = counts.get(w, 0) + 1
        out.append((r & 0xFF) << 4 | w)
    return len(out) + sum(counts.values())


def probe() -> float:
    """CPU seconds of one kernel run, the mean of ROUNDS runs.

    The thread's own CPU clock is used: while a process-wide CPU timer is
    armed (Meter arms one), Linux reads the process clock only to the
    scheduler tick.
    """
    start = time.thread_time()
    for _ in range(ROUNDS):
        kernel()
    return (time.thread_time() - start) / ROUNDS


class Meter:
    """Times ops and probes the host's speed around and inside them.

    ``probe()`` runs the kernel between ops. Inside an op, a
    CPU-time interval timer runs it again every ``tick_s``, so that an op
    of several seconds is scaled by the speed of the host while it ran,
    not only at its ends. The CPU time spent in those ticks is left out
    of the op; its wall time is kept, as a caller waiting for the op
    would see it. Every op is kept as (kind, wall s, CPU s, scaled s):
    each stretch of the op between two probes is scaled by
    ``NOMINAL_S`` over the mean of those probes.

    An op's CPU time is read on the process clock, before the timer is
    armed and after it is disarmed. Tick positions within the op are
    read on the thread clock, which stays exact while the timer runs.
    """

    def __init__(self, tick_s: float = 0.1) -> None:
        self.tick_s = tick_s
        self.probes: list[float] = []
        self._ops: list[tuple] = []
        self._thread_start = 0.0
        self._ticks: list[tuple[float, float]] = []
        self._ticks_cpu = 0.0

    def probe(self) -> None:
        self.probes.append(probe())

    def _tick(self, signum, frame) -> None:
        now = time.thread_time()
        value = probe()
        self._ticks.append((now - self._thread_start - self._ticks_cpu, value))
        self._ticks_cpu += time.thread_time() - now

    @contextlib.contextmanager
    def timed(self, kind: str):
        if not self.probes:
            self.probe()
        self._ticks, self._ticks_cpu = [], 0.0
        previous = signal.signal(signal.SIGPROF, self._tick)
        wall, cpu = time.perf_counter(), time.process_time()
        self._thread_start = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, self.tick_s, self.tick_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            thread = time.thread_time() - self._thread_start - self._ticks_cpu
            cpu = time.process_time() - cpu - self._ticks_cpu
            wall = time.perf_counter() - wall
            signal.signal(signal.SIGPROF, previous)
            self._ops.append((kind, wall, cpu, thread, len(self.probes) - 1, self._ticks))

    def close(self) -> list[tuple[str, float, float, float]]:
        """Probe once more, after the last op; return every op."""
        self.probe()
        ops = []
        for kind, wall, cpu, thread, i, ticks in self._ops:
            points = [(0.0, self.probes[i]), *ticks, (thread, self.probes[i + 1])]
            if thread > 0:
                # Mean slowdown over the op, each stretch weighted by its share of the op.
                factor = sum(
                    (b[0] - a[0]) / thread / ((a[1] + b[1]) / 2) for a, b in zip(points, points[1:])
                )
            else:
                factor = 2 / (points[0][1] + points[-1][1])
            ops.append((kind, wall, cpu, cpu * NOMINAL_S * factor))
        return ops
