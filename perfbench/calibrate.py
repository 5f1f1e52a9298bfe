"""Reference loop that measures how fast the machine runs at the moment.

On a shared host the speed of a core drifts by tens of percent over minutes.
Every child process of a timed run calls ``reference()`` after its timed
work, and the run divides the times of that process by its reference time
(see ``run.py``). The loop mixes the three kinds of work the program does:
interpreted arithmetic, many small numpy calls, and sweeps over large arrays.
It does not use ``mafoliation``, so no change to the program moves it.
"""

from __future__ import annotations

import time

# seconds reference() took on the 2-core x86-64 box where the benchmark was
# defined; normalised times are seconds on a machine running at that speed
REF_SECONDS = 0.125


def reference():
    # imported here: run.py imports this module before it pins the BLAS threads
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    for i in range(150_000):
        s += (i % 7) * 0.5
    a = np.eye(4) * 3.0 + 0.1
    b = np.ones(4)
    for _ in range(4000):
        b = np.linalg.solve(a, b) + 1.0
    x = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(15):
        x = np.sqrt(x * x + 1.0) - 0.5
    return time.perf_counter() - t0

