"""A clock that runs at the host's speed instead of the wall's.

The benchmark runs on shared hosts whose speed drifts by up to a factor
of two, in stretches of seconds to minutes, with CPU time following wall
time.  Ten runs of the same code then spread by more than any useful
bound.  `HostClock` takes that drift out.  While it runs, an interval
timer interrupts the measured code every `INTERVAL_S` seconds and times
a fixed pure-Python probe.  Each stretch of wall time between probes is
scaled by `REF_PROBE_S / p`, where `p` is the median of the last three
probe times, and the probes' own time is left out.  The clock reads the
time the work would have taken on a host on which the probe takes
`REF_PROBE_S`.  That is about what the probe takes, with its table out
of cache as it is between ticks, on the 2-core host the benchmark was
tuned on in its faster stretches; there host-clock and wall times are
about the same.

A change to linctx does not change the probe, so a change that makes a
check faster makes its host-clock time smaller by the same share.  The
probe does what linctx's inner loops do: look-ups, inserts and deletes
with string keys, reads from a table of about 2 MB, and small frozensets
of ints.  Every object
it makes is freed before it returns, so it leaves the cyclic garbage
collector's counters where they were.

The handler runs in the main thread between bytecodes, so it cannot
interrupt a long call into C; such a call makes one stretch longer, and
the stretch is still scaled.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
PROBE_LOOPS = 1000
REF_PROBE_S = 0.00085

_KEYS = [str(i) for i in range(1 << 13)]
_TABLE = {i: (i, -i) for i in range(1 << 13)}


def probe(loops: int = PROBE_LOOPS) -> float:
    """Seconds taken by a fixed amount of pure-Python work."""
    start = time.perf_counter()
    keys, table, seen = _KEYS, _TABLE, {}
    x = 1
    for i in range(loops):
        x = (x * 1103515245 + 12345) & 0x1FFF
        seen[keys[x]] = table[x]
        small = frozenset((x, i, x ^ i))
        if keys[x] in seen and x in small:
            del seen[keys[x]]
    return time.perf_counter() - start


class HostClock:
    """A monotonic clock in host-clock seconds, running inside a `with` block."""

    def __init__(self) -> None:
        # (host-clock seconds up to the end of the last probe, wall time at
        # that end, host-clock seconds per wall second), replaced as a whole
        # so that a reading never mixes two probes.
        self._state = (0.0, 0.0, 1.0)
        self._recent = []       # the last three probe times
        self._busy = False
        self._previous = None

    def _sample(self) -> float:
        self._recent = (self._recent + [probe()])[-3:]
        return REF_PROBE_S / statistics.median(self._recent)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:          # a tick that came during a probe is dropped
            return
        self._busy = True
        scaled, mark, scale = self._state
        scaled += (time.perf_counter() - mark) * scale
        scale = self._sample()
        self._state = (scaled, time.perf_counter(), scale)
        self._busy = False

    def __enter__(self) -> "HostClock":
        for _ in range(3):
            scale = self._sample()
        self._state = (0.0, time.perf_counter(), scale)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __call__(self) -> float:
        """Host-clock seconds since the `with` block began."""
        while True:
            state = self._state
            now = time.perf_counter()
            if self._state is state:
                scaled, mark, scale = state
                return scaled + (now - mark) * scale
