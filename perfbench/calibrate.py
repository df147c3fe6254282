"""Machine-speed reference for the benchmark's timings.

On a host that shares its cores with other tenants, the speed of
pure-Python work swings by a quarter or more over seconds to minutes, and
CPU time swings as much as wall time.  On the 2-vCPU host this benchmark was
sized on, such swings moved whole runs by 20-30%, more than any regression
bound allows.  To keep them out of the reported times, a fixed pure-Python
loop that never touches tanglex is timed with every request: in a
long-lived worker before and after it (the mean is used), in a CLI child as
the child's last act (median of three passes).  Each request's wall time is
then scaled by REFERENCE_NOMINAL_S over its reference time.  A scaled time
is what the request would have taken with the host running the reference
loop at its nominal speed.  Raw wall times are reported beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

# the reference loop's time on a quiet 2-vCPU Intel Xeon host; a fixed scale
# factor, so it must never change once runs have been recorded
REFERENCE_NOMINAL_S = 0.0006


def _reference_work() -> int:
    d = {}
    for i in range(6000):
        k = i & 31
        d[k] = d.get(k, 0) + i * 3
    return len(d)


def reference_seconds(passes: int = 1) -> float:
    """Median wall time of ``passes`` passes of the reference loop.  A single
    sample, as in a fresh process, takes the median of three."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(raw, refs):
    """Scale each raw time by the reference time taken with it."""
    if len(refs) != len(raw):
        raise ValueError("need one reference time per raw time")
    return [dt * REFERENCE_NOMINAL_S / ref for dt, ref in zip(raw, refs)]
