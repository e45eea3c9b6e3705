"""Wall-clock timing scaled to a nominal machine speed.

On a shared 2-core x86_64 VM (where the figures in README.md were taken) all
code changes speed together by up to 2x, in phases that last from seconds to
more than a whole run (a fixed probe took 1.3 ms to 3.6 ms; no steal
time is reported, so the process cannot see the cause).  Raw wall times of
a run therefore depend on the phase it fell in.

``Clock`` times the same fixed probe just before and just after each
sample and scales the sample's wall time by ``NOMINAL_PROBE_S`` over the
mean of the two probes: the result is the sample's duration at the speed
where the probe takes ``NOMINAL_PROBE_S``.  The probe uses numpy and
Python only, never gtattack, so a change to the program cannot move it.
``Clock.to_nominal`` applies the same scaling to any ``perf_counter``
reading, so that traced spans are in nominal seconds too.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_PROBE_S = 1.5e-3  # the probe on that VM in a fast phase

_PROBE_MATRIX = np.linspace(-1.0, 1.0, 900).reshape(30, 30)


def _probe_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(180):
        b = _PROBE_MATRIX @ _PROBE_MATRIX
        acc += float(np.tanh(b[i % 30]).sum())
        acc += sum({j: j * i for j in range(30)}.values())
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe takes now (fastest of three)."""
    return min(_probe_once() for _ in range(3))


class Clock:
    """Times consecutive segments of work.

    ``start`` probes and opens a segment; each ``lap`` closes the current
    segment, probes, and opens the next, returning the closed segment's
    (wall seconds, nominal seconds).  Probe time falls outside every segment;
    while ``tracer`` is installed, each probe is a span of its own, so it is
    not counted as self time of the gtattack call it interrupts.

    ``marks`` holds ``(perf_counter time, scale)`` pairs: from that time
    on, one wall second is ``scale`` nominal seconds.  A segment's scale is
    the one ``lap`` applies to it; a probe's is its own.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probes: list[float] = []
        self.marks: list[tuple[float, float]] = []
        self._before = 0.0
        self._mark = 0.0

    def _probe(self) -> float:
        traced = self.tracer is not None and self.tracer.installed
        idx = self.tracer.open("perfbench.probe") if traced else -1
        begin = time.perf_counter()
        try:
            seconds = probe()
        finally:
            if traced:
                self.tracer.close(idx)
        self.probes.append(seconds)
        self.marks.append((begin, NOMINAL_PROBE_S / seconds))
        return seconds

    def start(self) -> None:
        self._before = self._probe()
        self._mark = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        wall = time.perf_counter() - self._mark
        after = self._probe()
        scale = NOMINAL_PROBE_S / (0.5 * (self._before + after))
        self.marks.append((self._mark, scale))
        self._before = after
        self._mark = time.perf_counter()
        return wall, wall * scale

    def to_nominal(self, times) -> np.ndarray:
        """``perf_counter`` readings mapped onto a nominal time line: the
        time between consecutive marks is scaled by the earlier mark's
        scale, and times before the first mark by the first scale."""
        marks = sorted(self.marks)
        at = np.array([t for t, _ in marks])
        scale = np.array([s for _, s in marks])
        base = at[0] + np.concatenate([[0.0], np.cumsum(np.diff(at) * scale[:-1])])
        t = np.asarray(times, dtype=float)
        k = np.maximum(np.searchsorted(at, t, side="right") - 1, 0)
        return base[k] + (t - at[k]) * scale[k]
