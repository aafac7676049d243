"""Wall time scaled to the host's speed at each moment.

The benchmark runs on a shared host whose speed moves by up to 2x over
seconds to minutes, as other work competes for the same cores; process
CPU time moves just as much, so it is no way out. A HostClock samples
that speed while the timed work runs: a timer signal interrupts the work
every PERIOD seconds and times a fixed pure-Python reference loop. Each
stretch of work between two samples is scaled by REF_S over the sample
that ends it, so `scaled` is the time the work would take on a host
where the reference loop takes REF_S. The samples' own time is not
counted. `raw` is the plain wall time of the same work.

    with HostClock() as clock:
        work()
    clock.scaled, clock.raw

The clock uses SIGALRM and must run in the main thread.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.1
# about the reference loop's fastest time on the machine the reference
# figures were measured on (2.1 GHz x86-64, Python 3.11)
REF_S = 0.0045


def reference_loop(steps: int = 20_000) -> float:
    """A fixed amount of list indexing and float arithmetic; returns its time."""
    t0 = perf_counter()
    x = [0.0] * 64
    s = 12345
    for _ in range(steps):
        s = (s * 1103515245 + 12345) & 0x7FFFFFFF
        i = s & 63
        j = (s >> 6) & 63
        x[i] += 0.5 * (x[j] - x[i]) + 1e-3
    return perf_counter() - t0


class HostClock:
    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.samples = 0

    def _close_stretch(self) -> None:
        work = perf_counter() - self._since
        ref = reference_loop()
        self.raw += work
        self.scaled += work * REF_S / ref
        self.samples += 1
        self._since = perf_counter()

    def _tick(self, signum, frame) -> None:
        self._close_stretch()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def __enter__(self) -> HostClock:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._since = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        # a signal already on its way still finds _tick, which no longer re-arms
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close_stretch()
        signal.signal(signal.SIGALRM, self._saved)
