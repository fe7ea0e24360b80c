"""Continuum references for the discrete kernels, numpy only.

Whole line: the heat kernel of (-d^2/dx^2)^m on R is k(t, x, y) = t^{-1/(2m)} F_m(|x - y| t^{-1/(2m)}),
F_m(u) = pi^{-1} int_0^inf exp(-xi^{2m}) cos(u xi) dxi. At m = 1, F_1(u) = exp(-u^2/4) / sqrt(4 pi);
for m >= 2, F_m changes sign.
"""

from __future__ import annotations

import numpy as np

WHOLE_LINE_NODES = 400  # Gauss-Legendre nodes of F_m
WHOLE_LINE_CUT = 60.0  # F_m integrates up to xi^{2m} = 60, where the integrand is below e^{-60}


def whole_line_profile(m: int, u) -> np.ndarray:
    """F_m(u) by WHOLE_LINE_NODES-node Gauss-Legendre on [0, WHOLE_LINE_CUT^{1/(2m)}]."""
    x, w = np.polynomial.legendre.leggauss(WHOLE_LINE_NODES)
    half = 0.5 * WHOLE_LINE_CUT ** (1.0 / (2 * m))
    xi = half * (x + 1.0)
    return np.cos(np.multiply.outer(np.asarray(u, dtype=float), xi)) @ (half * w * np.exp(-xi ** (2 * m))) / np.pi


def whole_line_kernel(m: int, t: float, x, y) -> np.ndarray:
    """k(t, x, y) = t^{-1/(2m)} F_m(|x - y| t^{-1/(2m)}) of (-d^2/dx^2)^m on the whole line."""
    ell = t ** (1.0 / (2 * m))
    return whole_line_profile(m, np.abs(np.subtract.outer(x, y)) / ell) / ell
