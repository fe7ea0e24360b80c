"""Host-speed probe: a fixed kernel timed next to every benchmark job.

The benchmark host shares its cores with other tenants, and its speed drifts
by tens of percent for a minute or more at a time, in CPU time as much as in
wall time. Dividing each job's wall time by the mean of the probe times
measured just before and just after it, on the same CPU, and scaling by the
probe's time on a fast host (``NOMINAL_S``), gives the job time at nominal
host speed.

The probe is owned by the benchmark and imports nothing from heatgauss, so a
change to the program never changes it. It mirrors the program's hottest
path, cyclic Jacobi rotations made of small numpy row and column updates (the
seed's eigensolver), plus elementwise work on a larger array. It calls no
BLAS, so it reads the same whatever BLAS thread count the process runs with.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.017  # the probe's fastest time seen on a 2-vCPU Intel Xeon VM
_N = 36

_rng = np.random.default_rng(20020212)
_B = _rng.standard_normal((_N, _N))
_SYM = _B + _B.T
_DENSE = _rng.standard_normal((128, 128))


def _rotations(a: np.ndarray) -> None:
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if apq == 0.0:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            colp = a[:, p].copy()
            colq = a[:, q].copy()
            a[:, p] = c * colp - s * colq
            a[:, q] = s * colp + c * colq
            rowp = a[p, :].copy()
            rowq = a[q, :].copy()
            a[p, :] = c * rowp - s * rowq
            a[q, :] = s * rowp + c * rowq


def _kernel() -> float:
    a = _SYM.copy()
    _rotations(a)
    _rotations(a)
    m = _DENSE
    for _ in range(8):
        m = np.exp(-np.abs(m)) * _DENSE + np.sqrt(np.abs(m))
    return float(m.sum() + a[0, 0])


def measure() -> float:
    """Wall time of one probe kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
