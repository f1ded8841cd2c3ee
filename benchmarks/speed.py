"""Machine speed, for command times that hold steady on a shared host.

On a host shared with other work, the CPU speed one process gets can swing
by 1.75x within seconds, and CPU time swings with it. So a fixed piece of
Fraction arithmetic, much like the work inside rankgames, is timed right
before and right after each measured step. A step's scaled time is its wall
time times REFERENCE_S over the mean of those two reference times: what the
step would take at the speed where the reference takes REFERENCE_S.
"""

import time
from fractions import Fraction

# The fastest wall time of reference_seconds()'s loop seen on an idle 2-vCPU
# Intel Xeon VM.
REFERENCE_S = 0.012


def reference_seconds():
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2001):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - start


class Scaler:
    """Scales consecutive steps; the reference after one step is the
    reference before the next."""

    def __init__(self):
        reference_seconds()  # the first pass warms the interpreter up
        self._before = reference_seconds()

    def scale(self, wall_s):
        after = reference_seconds()
        factor = 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return wall_s * factor
