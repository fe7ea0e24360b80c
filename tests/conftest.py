import math

import numpy as np
import pytest

from heatgauss import OperatorSpec, SpectralDecomposition, assemble_form, polyharmonic_spec
from heatgauss.core import Grid1D
from heatgauss.profiles import get_profile
from heatgauss.spectral import decay_weights


def semigroup_apply(d, t: float, f: np.ndarray) -> np.ndarray:
    """Oracle evolution of f by the semigroup: sum_k exp(-mu_k t) <f, phi_k>_h phi_k."""
    return d.eigenvectors @ (decay_weights(t * d.eigenvalues) * d.coefficients(f))


def envelope_eval(env, t: float, x: float, y: float, d_x: float, d_y: float) -> float:
    """Oracle envelope at one (t, x, y) in scalar libm arithmetic:
    (c1/eps) t^{-(N + 2 gamma)/(2m)} (d_x d_y)^gamma exp(-c2 |x-y|^{2m/(2m-1)} / t^{1/(2m-1)} - s t)."""
    sch = env.schedule
    m, N, gamma = sch.m, sch.N, sch.gamma
    power = (N + 2.0 * gamma) / (2.0 * m)
    decay = d_x**gamma * d_y**gamma if gamma > 0 else 1.0
    expo = -env.c2 * abs(x - y) ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1)) - env.s * t
    return env.c1 / sch.eps * t ** (-power) * decay * math.exp(expo)


def general_m2_spec() -> OperatorSpec:
    """Non-diagonal m = 2 table: a_12 = a_21 != 0 with |a_12|^2 < a_11 a_22."""
    return OperatorSpec(m=2, coefficients={
        (0, 0): lambda x: 0.3 + 0.2 * np.sin(5.0 * x),
        (1, 1): lambda x: 0.4 + 0.3 * x,
        (2, 2): lambda x: 1.0 + 0.5 * x**2,
        (1, 2): lambda x: 0.05 * np.cos(3.0 * x),
        (2, 1): lambda x: 0.05 * np.cos(3.0 * x),
    })


def _decomp(name: str, n: int):
    profile = get_profile(name)
    form = assemble_form(profile.spec, profile.grid(n))
    return form, SpectralDecomposition.from_form(form)


@pytest.fixture(scope="session")
def laplace200():
    return _decomp("laplace-pi", 200)


@pytest.fixture(scope="session")
def laplace400():
    return _decomp("laplace-pi", 400)


@pytest.fixture(scope="session")
def beam100():
    return _decomp("beam-1", 100)


@pytest.fixture(scope="session")
def beam200():
    return _decomp("beam-1", 200)


@pytest.fixture(scope="session")
def beam400():
    return _decomp("beam-1", 400)


@pytest.fixture(scope="session")
def poly3_40():
    form = assemble_form(polyharmonic_spec(3), Grid1D(length=1.0, n_interior=40))
    return form, SpectralDecomposition.from_form(form)


@pytest.fixture(scope="session")
def poly3_100():
    form = assemble_form(polyharmonic_spec(3), Grid1D(length=1.0, n_interior=100))
    return form, SpectralDecomposition.from_form(form)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
