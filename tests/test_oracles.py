import math

import numpy as np
import pytest

from heatgauss import HeatKernelEvaluator, polyharmonic_spec

from conftest import _eigh_decomp
from oracles import whole_line_kernel, whole_line_profile


def test_whole_line_profile_is_the_gaussian_at_m1():
    u = np.linspace(0.0, 12.0, 49)
    gauss = np.exp(-(u**2) / 4.0) / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(whole_line_profile(1, u) - gauss)) <= 1e-12 * gauss[0]


@pytest.mark.parametrize("m", [2, 3])
def test_interior_kernel_converges_to_the_whole_line_kernel(m):
    # t^{1/(2m)} = 0.02 on [0, 1], column n/2, within 10 diffusion lengths: the boundary is 15 away.
    # The discrete symbol is second order, so the error of the peak falls about 4x per doubling
    # (2.6e-3 -> 6.6e-4 at m = 2, 2.5e-3 -> 6.2e-4 at m = 3)
    ell = 0.02
    t = ell ** (2 * m)
    peak = whole_line_profile(m, 0.0) / ell
    errors = []
    for n in (200, 400):
        _, d = _eigh_decomp(polyharmonic_spec(m), n)
        x, j = d.grid.points, n // 2
        near = np.flatnonzero(np.abs(x - x[j]) <= 10.0 * ell)
        k = HeatKernelEvaluator(d).block(t, near, [j])[:, 0]
        errors.append(float(np.max(np.abs(k - whole_line_kernel(m, t, x[near], x[j])))) / peak)
    assert errors[1] < 1e-3 and errors[0] >= 3.5 * errors[1], errors
    assert whole_line_profile(m, 5.0) < 0.0  # the kernel changes sign, unlike the Gaussian
