import numpy as np
import pytest

from heatgauss import SpectralDecomposition, assemble_form, polyharmonic_spec
from heatgauss.core import Grid1D
from heatgauss.profiles import get_profile
from heatgauss.spectral import decay_weights


def semigroup_apply(d, t: float, f: np.ndarray) -> np.ndarray:
    """Oracle evolution of f by the semigroup: sum_k exp(-mu_k t) <f, phi_k>_h phi_k."""
    return d.eigenvectors @ (decay_weights(t * d.eigenvalues) * d.coefficients(f))


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
