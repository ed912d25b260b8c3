"""A host-speed probe, to take the host's drift out of timed metrics.

On a shared virtual machine the same call on the same input runs 30% slower
or faster from one minute to the next, whatever the program does.  The
probe is a fixed numpy workload (sorting and counting seeded integer keys)
that does not touch the ``repro`` package, so a change to the program
cannot move it.  Timing it right before and right after a measured call
tells how fast the host ran meanwhile.  A time in *reference seconds* is a
wall time rescaled to the speed at which the probe takes ``REFERENCE_S``:

    reference = wall * REFERENCE_S / probe

Sorting keys that do not fit in the cache tracked the MFBC calls' drift
about twice as closely as a pure-Python loop did.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: keys the probe sorts; fixed, so every probe does the same work
_KEYS = np.random.default_rng(20261017).integers(0, 1 << 20, 100_000)
#: the probe's median duration on a 2-vCPU x86-64 virtual machine at its
#: usual speed; it only fixes the scale of reference seconds
REFERENCE_S = 0.035
#: probe runs per measurement; the median is kept
REPS = 3


def _probe_once() -> float:
    t0 = time.perf_counter()
    order = np.lexsort((_KEYS, _KEYS >> 7))
    np.unique(_KEYS[order])
    np.cumsum(np.bincount(_KEYS % 4096))
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe takes on this host now (median of ``REPS``)."""
    return statistics.median(_probe_once() for _ in range(REPS))


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, in
    reference seconds."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


class Sampler:
    """Probes the host every ``period`` seconds on a thread of its own.

    For a workload whose work runs on a schedule (the serving workload), so
    the probe cannot go between calls.  numpy releases the GIL while it
    sorts, so the probe mostly occupies the second core; at one probe per
    second it is busy about a tenth of the time.

    Use as a context manager; ``speed()`` is the median probe time.
    """

    def __init__(self, period: float = 1.0) -> None:
        self.period = period
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-probe")

    def _run(self) -> None:
        while True:
            self.probes.append(probe())
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        return statistics.median(self.probes)
