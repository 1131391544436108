"""Machine-speed calibration for the benchmark's timings.

On a shared VM the speed of one vCPU swings by up to half, in spells
from under a second to minutes, whatever the benchmark does.  A fixed
reference kernel, the benchmark's own code and independent of ditkit, is
therefore timed between stretches of ops; each op's wall time is scaled by
REFERENCE_NS / (the kernel's time around that op).  The result reads as
milliseconds on the reference machine in a fast spell, and a change to
ditkit moves it as it moves wall time.  See README.md, "Calibrated time".
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

# Close to the time of probe() on the reference machine (2 vCPU Xeon,
# Python 3.11) in a fast spell.  Fixed, so that runs at different times
# share one unit.
REFERENCE_NS = 3_000_000


def _kernel() -> int:
    """Python work of the kind ditkit does: exact rational arithmetic,
    small dicts and lists, sorting and JSON text."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * 7919 % 1009 + 1, i * 104729 % 997 + 1)
    rows: dict = {}
    for i in range(600):
        rows.setdefault((i % 13, i % 7), []).append(i)
    text = json.dumps({f"{a}:{b}": sorted(v, reverse=True) for (a, b), v in rows.items()})
    return acc.denominator.bit_length() + len(text)


def probe() -> int:
    """Nanoseconds for three kernel calls: three times the median call, so
    that a pause the machine imposes on one call does not count."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(3):
        started = clock()
        _kernel()
        times.append(clock() - started)
    return 3 * statistics.median(times)


def factor(before: int, after: int) -> float:
    """Scale for wall times taken between two probes."""
    return 2 * REFERENCE_NS / (before + after)
