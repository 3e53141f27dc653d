"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants.
Their speed drifts by up to 1.6x over tens of seconds. A fixed pure-Python
loop varies that much, in wall time and in CPU time alike, with no steal
time, and it switches within a second, so a run cannot average the drift
out. The benchmark therefore runs a fixed kernel, which depends on nothing
in eofbounds, before and after every timed call. It multiplies each call's
time by REF_S over the mean of those two kernel times. The scaled timings
are in seconds at the reference speed, the speed at which the kernel takes
REF_S. A change to the program leaves the kernel alone, so its gains and
losses stay visible.

Checked on one 2-vCPU machine, in 20-second blocks over five minutes of
analyze calls. Without scaling, the mean call time of the blocks spread
1.41x from fastest to slowest (interquartile range over median 0.18). With
each call scaled by the kernel just before it, the spread was 1.06x (0.02).
One scale for a whole block left 1.22x, because the kernel and the program
do not speed up alike during a fast spell.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time that defines the reference machine speed.  Never change it:
#: it sets the scale of every timing the benchmark reports but setup_s.
REF_S = 0.005

#: Time of a fresh interpreter importing numpy that defines the reference
#: speed for setup_s.  Never change it.  The kernel follows set-up time
#: poorly: spawning an interpreter and loading extension modules speed up
#: and slow down unlike interpreter work.  Over ten runs of nine imports of
#: eofbounds.cli on the machine described above, the median scaled by the
#: kernel spread 0.13 (interquartile range over median), and scaled by the
#: numpy imports next to each import 0.04.
REF_IMPORT_S = 0.15

_M = np.eye(4) + 0.1 * np.ones((4, 4))


def kernel_seconds() -> float:
    """Time a fixed mix of interpreter work and small numpy calls, like the program's."""
    t0 = time.perf_counter()
    table = {}
    s = 0.0
    for i in range(20000):
        s += math.sqrt(i) * 1.0001
        table[i % 97] = s
    for _ in range(150):
        s += float(np.linalg.eigvalsh(_M @ _M.T)[0])
    return time.perf_counter() - t0


def scaled(times: list[float], probe: list[float], ref: float = REF_S) -> list[float]:
    """Each time at the reference speed, at which the probe takes ref seconds.

    probe[i] ran before times[i] and probe[i + 1] after it.
    """
    return [t * 2.0 * ref / (before + after)
            for t, before, after in zip(times, probe, probe[1:])]
