"""Host-speed normalisation of the benchmark's timings.

On a shared machine the speed at which the same code runs drifts by tens of
percent over seconds.  Every timing is therefore divided by the time of a
fixed reference loop measured while the timed work runs, and reported at the
reference's nominal speed: a change to the library moves the timing but not
the reference, while a slow host moves both.

``Probe`` samples the reference from a SIGALRM timer every ``INTERVAL_S``,
so that long operations are sampled throughout; the time the samples take is
kept off the work clock.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter
from typing import NamedTuple

INTERVAL_S = 0.01
# Reference samples this close to an operation also scale it.  A single 1 ms
# sample is itself noisy; the host's speed drifts over seconds, not within
# a tenth of one.
WINDOW_S = 0.05
# Reference time on the 2-CPU host that calibrated the catalogue, when
# uncontended (its 10th percentile); timings are reported at this speed.
NOMINAL_S = 0.001


class _Var(NamedTuple):
    series: str
    offset: int


_rng = random.Random(5)
_NODES = [_Var(f"V{i}", -j) for i in range(30) for j in range(10)]
_CHILDREN = {v: [_rng.choice(_NODES) for _ in range(3)] for v in _NODES}


def reference_s() -> float:
    """Time of a fixed pure-Python workload shaped like the library's own:
    reachability over named-tuple nodes, frozensets and a keyed sort."""
    t0 = perf_counter()
    for start in _NODES[:5]:
        seen = {start}
        stack = [start]
        while stack:
            for w in _CHILDREN[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sorted(frozenset(seen), key=lambda v: (-v.offset, v.series))
    return perf_counter() - t0


def at_nominal_speed(seconds: float, ref_s: float) -> float:
    return seconds * NOMINAL_S / ref_s


class Probe:
    """Reference samples taken on a timer while work runs in this process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, reference seconds)
        self.paused_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append((t0, reference_s()))
        self.paused_s += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall clock that stands still while a sample runs."""
        return perf_counter() - self.paused_s

    def ref_s(self, t0: float, t1: float) -> float:
        """Mean reference time over [t0 - WINDOW_S, t1 + WINDOW_S] (wall
        clock), or the sample nearest to it when none fell inside."""
        inside = [r for t, r in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if inside:
            return sum(inside) / len(inside)
        if not self.samples:
            return reference_s()
        mid = (t0 + t1) / 2
        return min(self.samples, key=lambda s: abs(s[0] - mid))[1]
