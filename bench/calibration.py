"""Host-speed calibration of the timed metrics.

The two-core host this benchmark was written on switches between speed
phases about 40 % apart, each lasting from a second to a minute; a fixed
pure-Python loop timed for a minute reads anywhere from 7 to 11 ms.  Raw
wall times of one 20-second run therefore spread by 20 to 40 % from run to
run, whatever the inputs.

So a probe runs before every timed operation: a fixed computation from
:mod:`inputs` that does the same kind of work as ratpark (tuples, sorting,
small lists) and never changes with the library.  Each operation's wall time
is multiplied by ``REF_PROBE_S`` over the median of the probes around it,
which reports it at the host speed where the probe takes ``REF_PROBE_S``
(close to its time in this host's fast phase).  Both the scaled and the raw
figures are printed.
"""

from __future__ import annotations

import random
import statistics
import time

import inputs as gen

REF_PROBE_S = 2.5e-4
RADIUS = 5  # probes on each side of an operation that set its scale

_WORD = gen.parking_word(random.Random(0), 13, 21)


def probe() -> float:
    """Run the reference computation once and return its wall time."""
    t0 = time.perf_counter()
    for _ in range(4):
        gen.zeta_letters(13, 21, _WORD)
    return time.perf_counter() - t0


def scales(probe_times: list[float]) -> list[float]:
    """Scale factor for the operation after each probe."""
    return [
        REF_PROBE_S / statistics.median(probe_times[max(0, j - RADIUS): j + RADIUS + 1])
        for j in range(len(probe_times))
    ]
