"""Machine-speed calibration.

Shared 2-core VM hosts run the same code at speeds up to 2x apart from one
second to the next: a busy neighbour on the sibling hyperthread slows every
instruction, and the process's own CPU time grows with it, so neither wall
time nor CPU time is steady from run to run.  While a workload runs, a
``Speedometer`` times a short fixed kernel every ``INTERVAL_S`` (from a
SIGALRM handler, between two bytecodes of the workload) and at every
operation boundary.  Each operation's time is then reported at reference
speed: ``seconds * REFERENCE_S / mean kernel time during it``.  Handler time
is excluded from the operation's time.  The raw wall times are printed too.

The kernel is numpy on small matrices plus plain Python calls, the mix the
toolkit's per-op overhead is made of, but it uses no toolkit code: a change
to the toolkit cannot move it, so it cannot hide or fake a gain.  Garbage
collection is off while it runs, so the toolkit's heap cannot move it either.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# Kernel time on the 2-core reference box in its common (contended) state;
# scaled times read as wall time on that box in that state.
REFERENCE_S = 0.00025
ITERATIONS = 10
INTERVAL_S = 0.05
BOUNDARY_SAMPLES = 5

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(32, 16))
_W = _rng.normal(size=(16, 16)) / 4.0


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value = value
        self.parent = parent


def _kernel() -> float:
    x, node = _X, None
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        y = np.tanh(x @ _W)
        z = np.where(y >= 0, y, 0.5 * y) + 0.1 * x
        x, node = z / (1.0 + float(np.abs(z).max())), _Node(z.sum(), node)
    return time.perf_counter() - start


class Speedometer:
    """Samples the kernel's time on a clock that excludes the sampling."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock time, kernel seconds)
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns the samples' clock time."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        at = start - self.paused
        try:
            for _ in range(count):
                self.samples.append((at, _kernel()))
        finally:
            if enabled:
                gc.enable()
            self.paused += time.perf_counter() - start
        return at

    def boundary(self) -> float:
        """Sample at an operation boundary; returns the clock time."""
        return self.sample(BOUNDARY_SAMPLES)

    def scale(self, since: float, until: float) -> float:
        """REFERENCE_S over the mean kernel time sampled in [since, until]."""
        inside = [k for t, k in self.samples if since <= t <= until]
        return REFERENCE_S / statistics.fmean(inside)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
