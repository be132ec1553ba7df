"""The machine's speed, sampled inside each process of a run.

Shared machines change speed by tens of percent within seconds, as other
tenants load the cores, caches and memory the benchmark runs on.  Every
process of a run therefore times a short, fixed pure-Python loop (dict
stores and integer arithmetic, like the simulator's hot loops) on an
interval timer, on the CPU it is running on, and reports the samples
``(monotonic start, loop CPU seconds)``.  The loop costs about 2% of the
process's time, in traced and untraced runs alike.

:func:`scale` turns the samples taken during a measured interval into a
factor that expresses that interval's host seconds at the reference speed,
the loop taking :data:`REFERENCE_LOOP_S`.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_ITERATIONS = 2_000
PERIOD_S = 0.025
#: The loop's CPU time on the machine the bounds were set on (a 2-vCPU
#: virtual machine, Python 3.11) at its median speed.
REFERENCE_LOOP_S = 0.00045
#: Samples this close to a short interval still describe it.
PAD_S = 0.25


def calibration_loop() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        table[i & 1023] = total
        total += i * i % 7
    return total


class Sampler:
    """Times :func:`calibration_loop` every :data:`PERIOD_S` seconds.

    Runs from a ``SIGALRM`` interval timer in the main thread, so it
    measures the CPU the process itself is running on.  Forked pool
    workers do not inherit the timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        cpu = time.thread_time()
        calibration_loop()
        self.samples.append((started, time.thread_time() - cpu))

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


def scale(
    samples: list[tuple[float, float]], start: float, end: float,
    statistic=statistics.fmean,
) -> float:
    """Reference seconds per host second over ``[start, end]``.

    The loop time of the samples taken in the interval (widened by
    :data:`PAD_S` for short intervals; all samples if none fall near it),
    summarised by ``statistic``, relative to :data:`REFERENCE_LOOP_S`.  The
    mean suits one long interval; a median of many short timings is scaled
    by the median loop time."""
    if not samples:
        raise RuntimeError("no speed samples were recorded")
    inside = [s for at, s in samples if start - PAD_S <= at <= end + PAD_S]
    if not inside:
        inside = [s for _, s in samples]
    return REFERENCE_LOOP_S / statistic(inside)
