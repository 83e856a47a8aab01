"""The machine's current speed, from a fixed kernel owned by the benchmark.

This module imports only NumPy, so a ``snra`` command can be run with a
calibration on each side of it at no extra import cost.
"""

import time

import numpy as np

# calibrate()'s time on this machine in its fast phase (2-core Xeon, 2.1 GHz).
CALIBRATION_S = 1.10e-3
_INPUT = np.arange(784, dtype=np.int64)


def calibrate():
    """Seconds taken by a fixed mix of small NumPy calls and Python work.

    It runs next to every timed operation: the machine's speed at that
    moment is CALIBRATION_S over its time.
    """
    start = time.perf_counter()
    table = {}
    for k in range(150):
        clipped = np.clip(_INPUT + k, 0, 500)
        table[k % 7] = int(clipped[k]) + len(str(k) * 3)
    return time.perf_counter() - start
