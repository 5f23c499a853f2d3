"""Speed of the host at this moment, from a fixed piece of work.

The machine the benchmark runs on is shared, and its speed drifts by tens
of percent within a minute. Every end-to-end time the benchmark reports
is scaled by REFERENCE_S / seconds(), where seconds() is taken in the same
process right around the measured work: the result is the time the work
would take on a host whose calibration takes REFERENCE_S. The calibration
is compiling fixed, generated source texts. It uses nothing from
thetalift, so no change to the package can move it, and the compiler's
mix of small allocations, dict lookups and branching tracks the package's
own work more closely than an arithmetic loop does.
"""

from __future__ import annotations

from time import perf_counter

# About the median calibration time on the host the bounds were set on
# (2 cores, Python 3.11.7); any fixed value works, it only sets the scale.
REFERENCE_S = 0.025
REPEATS = 3

# Compiled one function at a time, so the calibration's memory stays small
# and does not show in the unit's peak RSS.
SOURCES = [
    f"def f{i}(a, b=({i}, 'k{i}'), *rest, **kw):\n"
    f"    d = {{'x': a, 'y': [v * {i % 7} for v in range(a) if v % 3], 'z': b}}\n"
    f"    for key, value in sorted(d.items()):\n"
    f"        if key in kw and value != rest:\n"
    f"            return {{**kw, key: (value, {i})}}\n"
    f"    return d.get('y', None) or f{i}.__name__\n"
    for i in range(200)
]


def seconds() -> float:
    """Least of REPEATS timings of compiling SOURCES."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for source in SOURCES:
            compile(source, "<calibration>", "exec")
        best = min(best, perf_counter() - t0)
    return best
