"""Latency at the processor's full speed, on a machine shared with other tenants.

On a shared machine the same CPU-bound call takes up to twice as long while
a neighbour runs, in spells that last from milliseconds to minutes, and a
spell can cover a whole run. CPU time does not see this: the process is not
descheduled, it runs slower. A median over a 20-second run then follows the
neighbours more than the program.

``reference_s()`` times a fixed reference, pure-Python work independent of
zslp that walks a 256 KB buffer and updates a dict as the program's own
loops do: the median of ``RUNS`` runs of it. The harness takes it right
before and right after each timed query operation. A latency ``t`` between
reference times ``r1`` and ``r2`` is reported as
``t * FULL_SPEED_S / ((r1 + r2) / 2)``: the latency the operation would have
had while the reference takes ``FULL_SPEED_S``. That constant is the
reference's time on an idle core of the machine the benchmark was tuned on
(an AVX-512 Intel Xeon, KVM guest, Python 3.11), so a latency reads as
milliseconds there. It is a constant rather than the fastest reference time
of the run because a run spent wholly beside a busy neighbour never sees
full speed. The program's own work is unchanged by any of this; the
harness prints the unscaled medians and the reference times as well.
"""

from __future__ import annotations

import statistics

from tracing import clock

FULL_SPEED_S = 0.65e-3
RUNS = 3

_BUFFER = bytes(range(256)) * 1024


def reference_work() -> int:
    counts: dict = {}
    data = _BUFFER
    for i in range(0, len(data) - 1, 61):
        key = data[i] * 256 + data[i + 1]
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _time_reference() -> float:
    start = clock()
    reference_work()
    return clock() - start


def reference_s() -> float:
    """Seconds the reference takes now (median of a few runs)."""
    return statistics.median(_time_reference() for _ in range(RUNS))


def full_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``, at full speed."""
    return seconds * FULL_SPEED_S / reference_s
