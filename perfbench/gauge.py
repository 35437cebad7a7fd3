"""Host-speed gauge, sampled inside the measured run.

The benchmark's host is shared, and its speed changes in spells of
seconds to minutes: one seed's median ``wall_us_per_op`` on W1 moved
between about 530 and 700 from one invocation to the next.  A median
over repeats cannot remove a spell that lasts the whole invocation.

:class:`HostGauge` samples the host's speed at the same moments the
workload runs.  A timer signal interrupts the run every
``PERIOD_S`` seconds, and the handler times one *slice*: a fixed,
small pure-Python load that allocates and frees about 1 MB of dicts,
lists and strings (:func:`gauge_load`).  It never touches ``repro``,
and the cyclic garbage collector is off while it runs, so the size of
the program's heap does not change its time.  The slices' time is
taken out of the run's wall time.  The mean slice time tracks the
speed the host gave the run: over 10 runs of W1 at full length, the
run's wall time and its mean slice time correlated at 0.91.  A slice
that only probed a prebuilt table, without allocating, correlated at
0.62.  ``run.py`` expresses each run's wall time at the reference
speed with :func:`scaled`.  Set-up is gauged by one slice right before
and one right after each cluster build.
"""

from __future__ import annotations

import gc
import random
import signal
import time

#: Keys of the slice's table and random probes into it: about 12 ms.
KEYS = 6_000
PROBES = 12_000
#: Seconds between slices (the slices add about 5% to a run's length).
PERIOD_S = 0.25
#: The speed scaled wall times are expressed at: a host on which one
#: slice takes this long (about its median on a shared 2-core x86 host
#: running Python 3.11).
REFERENCE_S = 0.0125
#: How strongly the program's wall time follows the slice time: the
#: slope of log wall time on log mean slice time, fitted over all runs
#: of one set of 5 or 10 seeds, was 0.70 and 0.75 on W1 and 0.75 and
#: 0.91 on W3 (two sets each); 0.8 is about their mean.
ELASTICITY = 0.8


def scaled(seconds: float, gauge_s: float) -> float:
    """``seconds`` measured while a slice took ``gauge_s``, expressed at
    the reference host speed."""
    return seconds * (REFERENCE_S / gauge_s) ** ELASTICITY


def gauge_load() -> int:
    """One slice of the fixed load, with the cyclic garbage collector
    off; returns a checksum."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(1)
        table = {(key, key * 7): [key, str(key)] for key in range(KEYS)}
        keys = list(table)
        checksum = 0
        for _ in range(PROBES):
            checksum += table[keys[rng.randrange(KEYS)]][0]
        del table, keys
        return checksum
    finally:
        if enabled:
            gc.enable()


class HostGauge:
    """Times one gauge slice every ``period_s`` seconds of wall time
    (``SIGALRM``), except while :attr:`paused`."""

    def __init__(self, period_s: float = PERIOD_S, load=gauge_load):
        self.period_s = period_s
        self.load = load
        self.paused = False
        #: Seconds each slice took.
        self.slices: list[float] = []
        self._previous = None

    def install(self) -> "HostGauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def remove(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self) -> float:
        """Time one slice now; returns its seconds."""
        start = time.perf_counter()
        self.load()
        self.slices.append(time.perf_counter() - start)
        return self.slices[-1]

    def _on_alarm(self, signum, frame) -> None:
        if not self.paused:
            self.sample()
