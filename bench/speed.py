"""Host-speed probe: fixed slices of reference work run at a steady rate
inside the measured process, so that timings can be normalised to a
nominal host speed.

The benchmark's host is a shared virtual machine whose speed drifts by
tens of percent over minutes and jumps over seconds, as other tenants come
and go.  A probe slice run before and after a sample samples the speed only
at the sample's edges; the probe here interrupts the program every
``interval`` seconds (``SIGALRM``) and runs one slice, so the slices sample
the host speed over the same seconds as the program.  The time spent in
slices is subtracted from the program's wall time, and

    normalised time = raw time * NOMINAL_SLICE_S / (mean slice time)

is the time the program would have taken on a host where one slice takes
``NOMINAL_SLICE_S``.  A change to the program moves the raw time and not
the slices, which depend only on this file.

The slice is pure Python with no import from ``bookturan``: brute-force
canonical forms of small bitmask graphs, the same kind of interpreter work
(small ints, tuples, sorting, function calls) as the program's canon.
"""

from __future__ import annotations

import itertools
import signal
import time

NOMINAL_SLICE_S = 0.01
_PERMS = list(itertools.permutations(range(5)))


def reference_slice() -> int:
    """One fixed slice of work; returns a checksum so nothing is skipped."""
    acc = 0
    for g in range(9):
        rows = [((g * 2654435761 >> (3 * i)) & 0x1f) & ~(1 << i)
                for i in range(5)]
        best = None
        for p in _PERMS:
            key = tuple(sorted(sum(1 << p[j] for j in range(5)
                                   if rows[i] >> j & 1) for i in range(5)))
            if best is None or key < best:
                best = key
        acc += sum(best)
    return acc


EXPECTED_CHECKSUM = reference_slice()


class SpeedProbe:
    """Runs one reference slice every ``interval`` seconds of wall time,
    from ``start`` until ``stop``, in the main thread."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.slices = 0
        self.spent = 0.0  # wall seconds inside slices
        self.bad = 0  # slices whose checksum differed

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        if reference_slice() != EXPECTED_CHECKSUM:
            self.bad += 1
        self.spent += time.perf_counter() - t0
        self.slices += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slice_s(self) -> float:
        """Mean wall time of one slice."""
        if not self.slices or self.bad:
            raise RuntimeError(f"speed probe ran {self.slices} slices,"
                               f" {self.bad} with a wrong checksum")
        return self.spent / self.slices
