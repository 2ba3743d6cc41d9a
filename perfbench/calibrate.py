"""Host-speed calibration: a fixed reference loop timed next to the work.

The shared 2-core host the benchmark was built on runs the same code at two
speeds, and switches between them for stretches that can last a whole run:
a pass of ``hyper-mixed`` took 1.0x or 1.6-1.9x its fastest time depending
on the stretch, in CPU time as well as wall time. Taking each piece's
fastest repeat only helps when a run happens to catch a fast stretch.

So the benchmark times ``probe``, a fixed loop of small numpy calls driven
from Python (the same kind of work as boxprop's kernel), right before each
timed piece, and scales the piece by ``REF_PROBE_S`` over the mean of the
probes around it. On that host the probe's slowdown tracked the pieces' to
a few percent (per-pass ratios to the fastest pass of 1.03-1.91 for the
roots, 1.07-1.89 for the probe), so a calibrated time reads the same in slow
and fast stretches. The mean, not the median: when the host stalls the
process now and then, the stalls land in probes as often, for their length,
as in the pieces, and only the mean counts them. The probe is benchmark code
and never changes with boxprop, so a change that makes boxprop faster lowers
calibrated times in proportion.

A calibrated time is in seconds at the reference speed: the speed at which
the probe takes ``REF_PROBE_S``, about the fast speed of that host (Intel
Xeon, 2 vCPUs). The probe allocates no objects the garbage collector tracks,
so a collection caused by boxprop's allocations never lands in a probe.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_PROBE_S = 1e-3
PROBE_REPS = 200
# A piece is scaled by the mean of the probes within HALF_WINDOW ticks of
# the one right before it, on both sides: the speed switches last seconds,
# while 17 probes span about half a second on hyper-mixed, and the probes
# after a long piece (an oracle on compare-cli) cover its end.
HALF_WINDOW = 8

_A = np.linspace(0.1, 1.0, 8)


def probe() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    t0 = perf_counter()
    s = 0.0
    for i in range(PROBE_REPS):
        m = np.outer(_A, _A[: 2 + i % 4])
        s += float(m.sum(axis=0).max()) * 0.5 + i
    return perf_counter() - t0


class Clock:
    """The probes of one run, and the scales they give.

    ``tick`` runs one probe and returns its index; a piece timed right after
    tick ``i`` turns into seconds at the reference speed when multiplied by
    ``scale_at(i)``, once the pass has ticked a last time after its pieces.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.pass_start = 0

    def tick(self) -> int:
        self.probes.append(probe())
        return len(self.probes) - 1

    def start_pass(self) -> None:
        self.pass_start = len(self.probes)

    def scale_at(self, i: int) -> float:
        window = self.probes[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        return REF_PROBE_S / statistics.fmean(window)

    def pass_probe_s(self) -> float:
        return sum(self.probes[self.pass_start:])

    def pass_scale(self) -> float:
        """The scale for the whole pass: its mean probe."""
        return REF_PROBE_S / statistics.fmean(self.probes[self.pass_start:])
