"""Host speed, sampled while the benchmark runs.

The host this benchmark was written on switches between speed states about
1.8x apart, for a second to minutes at a time, and every part of nilbound
slows by about the same factor.  A median over one run then depends on how
much of the run fell into the slow state, and two runs of the same code
differed by more than any useful bound.  So the benchmark reports every
timed interval in nominal seconds: its wall time, without the probes run
inside it, scaled by the host's speed while it ran, relative to the speed
at which the probe below takes NOMINAL_PROBE_S.

The probe is fixed pure-Python work that shares no code with nilbound, so
no change to nilbound changes it.  A SIGALRM timer runs it every INTERVAL_S
of wall time, which costs about 1% of the timed work.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL_S = 0.02
# the probe's median time on the host's fast state (2-vCPU VM, Python 3.11.7)
NOMINAL_PROBE_S = 1.05e-4


def _compositions(k: int, c: int):
    if c == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, c - 1):
            yield (first, *rest)


def probe() -> float:
    """Seconds taken by the fixed probe: score every composition of 6 into 4
    parts, through recursive generators, tuple building and int arithmetic,
    with the garbage collector off so that it never runs inside the probe.

    Three probes were tried on repeated sessions of one seed, during which
    raw wall times spread by 17-20% (coefficient of variation): this one,
    tuple indexing, and tuple building hashed into a set and a dict.  This
    one tracked all three workloads best, leaving 3.2% on witness, 1.5% on
    bounds and 4.1% on search; tuple indexing left 4-7%."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    best = 0
    for parts in _compositions(6, 4):
        value = 0
        for i, part in enumerate(parts):
            value += part * 3**i
        if value > best:
            best = value
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def take_probes(samples: list, n: int) -> None:
    """Append n back-to-back probes to samples as (start, seconds) pairs."""
    for _ in range(n):
        start = time.perf_counter()
        samples.append((start, probe()))


class NominalClock:
    """Maps a time.perf_counter reading to nominal seconds.  Between two
    probes the host's speed is the mean of theirs; while a probe runs the
    clock stands still, so no probe counts in a timed interval.  samples
    are (start, seconds) pairs sorted by start, with a probe on each side of
    every interval the clock is asked about."""

    def __init__(self, samples: list):
        speeds = [NOMINAL_PROBE_S / seconds for _, seconds in samples]
        self.knots: list[float] = []
        self.values: list[float] = []
        self.rates: list[float] = []
        total = 0.0
        for j, (start, seconds) in enumerate(samples):
            if j:
                total += (start - self.knots[-1]) * self.rates[-1]
            after = speeds[min(j + 1, len(speeds) - 1)]
            self.knots += [start, start + seconds]
            self.values += [total, total]
            self.rates += [0.0, (speeds[j] + after) / 2]
        self.first_rate = speeds[0]

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.knots, t) - 1
        if i < 0:
            return self.values[0] - (self.knots[0] - t) * self.first_rate
        return self.values[i] + (t - self.knots[i]) * self.rates[i]


class Sampler:
    """Runs the probe on a SIGALRM timer in the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        take_probes(self.samples, 1)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        take_probes(self.samples, 1)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        take_probes(self.samples, 1)
