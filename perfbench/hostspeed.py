"""Host speed probe: a fixed pure-Python workload timed next to the program.

On a shared VM the same code runs at two or three speeds, up to 1.8 times
apart.  They switch every few tenths of a second, and a slow spell can
outlast a whole run.  ``run.py`` times one probe just before every segment
of program work and keeps the segment's time as a ratio to the probe; the
two almost always run at the same speed.  The probe does no msubres work, so
a change to the program moves the ratios exactly as it moves the program's
own time.

The probe multiplies two sparse polynomials held as dicts of exponent tuples
to big integers, the data structure and the operations that dominate
``msubres.polyring``.
"""

from __future__ import annotations

import time

PROBE_PRODUCTS = 8  # about 7 ms on the reference host, 12 ms in a slow spell
# the probe's time on the 2-vCPU VM the benchmark was written on, at its
# faster speed (Python 3.11.7); ratios times this are seconds on that host
REFERENCE_S = 0.007

_A = {(i, j, (i * j) % 5): 12345678901234567 * (i + 1) - j for i in range(9) for j in range(7)}
_B = {(j, i, (i + j) % 3): 98765432109876543 * (j + 1) + i for i in range(7) for j in range(6)}


def _work() -> int:
    out: dict[tuple[int, int, int], int] = {}
    for (a0, a1, a2), ca in _A.items():
        for (b0, b1, b2), cb in _B.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


def probe() -> float:
    """Wall seconds of one probe."""
    t0 = time.perf_counter()
    for _ in range(PROBE_PRODUCTS):
        _work()
    return time.perf_counter() - t0
