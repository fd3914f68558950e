"""Host-speed sampling: a fixed probe run from a timer signal during timing.

On a shared host the speed a core gives this process swings between two
states, about 1.7x apart, as the load of other tenants comes and goes,
every second or so; how long a run spends in the slow state moves all of
its timings together by a quarter or more.  The sampler runs a tiny probe
every ``INTERVAL_S`` from a ``SIGALRM`` handler, in the same thread as the
program under test, so it sees the core the program runs on.  For each
timed sample, ``effective`` returns the time with the sampler's own time
taken out, and the slowdown around it: the mean probe time in the
interval widened by ``PAD_NS`` on each side, over ``REFERENCE_NS``.  The
end-to-end metrics divide each time by its slowdown (and multiply each
rate by it), which puts every run at the same host speed; the unscaled
values are printed beside them.

The probe does dictionary lookups and string tests on a small fixed table
and allocates no container.  It never touches the package and never
triggers the garbage collector.  Each sample runs the probe twice and
times only the second pass, whose data are then in the core's own caches,
so the time does not depend on what the program under test left in the
shared caches.  Sampling takes about 1.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

_now = time.perf_counter_ns

INTERVAL_S = 0.01
PAD_NS = 50_000_000
# A typical sampled probe time during a run on the machine the bounds were
# set on (2-core Xeon VM, Python 3.11), so that scaled values stay close to
# what that machine usually measures.
REFERENCE_NS = 60_000

_WORDS = tuple(f"w{i * 7919 % 997}" for i in range(250))
_TABLE = {f"w{i}": i for i in range(0, 997, 3)}


def probe() -> int:
    hits = 0
    for w in _WORDS:
        if w in _TABLE:
            hits += _TABLE[w]
        if w.endswith("7"):
            hits += 1
    return hits


class SpeedSampler:
    """Probe samples taken while the sampler is entered.

    ``at`` holds each sample's start, ``spent`` its whole time and
    ``took`` the time of its timed (second) probe pass.
    """

    def __init__(self):
        self.at = array("q")
        self.spent = array("q")
        self.took = array("q")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = _now()
        probe()
        t1 = _now()
        probe()
        t2 = _now()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def effective(self, t0: int, t1: int) -> tuple:
        """(ns of [t0, t1) minus sampling time inside it, slowdown around it)."""
        at, took = self.at, self.took
        inside = sum(self.spent[bisect.bisect_left(at, t0):bisect.bisect_left(at, t1)])
        lo, hi = bisect.bisect_left(at, t0 - PAD_NS), bisect.bisect_left(at, t1 + PAD_NS)
        if hi == lo:
            raise ValueError("no speed probe sample near a timed interval")
        return t1 - t0 - inside, sum(took[lo:hi]) / (hi - lo) / REFERENCE_NS
