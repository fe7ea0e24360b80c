import math
import time

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


def evolved_form_ratio_oracle(d, t_grid, f_samples) -> np.ndarray:
    """Oracle (sample, t) table of Q(e^{-Ht} f) / (g~(t) ||f||^2) in log space over the modes with c_k != 0:
    log sum_k mu_k e^{-2 t mu_k} c_k^2 - log g~(t) - log sum_k c_k^2, with log g~(t) = log s - 2 s t for
    t > 1/s and -s t - 1 - log t before, so neither side flushes; a sample with every c_k = 0 reads 0.
    Summed in long double: 2 t mu reaches 4.6e5 at m = 3 on the default t grid, where its rounding to a
    double alone moves the ratio by 5e-11."""
    s, mu = np.longdouble(d.gap), d.eigenvalues.astype(np.longdouble)
    c = np.array([d.coefficients(f) for f in np.atleast_2d(f_samples)])
    out = np.zeros((len(c), len(t_grid)))
    for fi, ck in enumerate(c):
        live = ck != 0
        if not live.any():
            continue
        log_c2 = 2.0 * np.log(np.abs(ck[live]).astype(np.longdouble))
        for ti, t in enumerate(np.asarray(t_grid, dtype=np.longdouble)):
            log_g = np.log(s) - 2 * s * t if t > 1 / s else -s * t - 1 - np.log(t)
            log_q = np.logaddexp.reduce(np.log(mu[live]) - 2 * t * mu[live] + log_c2)
            out[fi, ti] = np.exp(log_q - log_g - np.logaddexp.reduce(log_c2))
    return out


def jacobi_oracle(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """jacobi_eigh with one plain rotation loop: each pair turns A's columns, then A's rows,
    then V's columns, from copies. Same pair order, skip rule and c, s formulas."""
    n = M.shape[0]
    scale = np.linalg.norm(M)
    A = 0.5 * (M + M.T)
    V = np.eye(n)
    tol = 1e-12 * max(scale, np.finfo(float).tiny)
    skip = tol / (2.0 * n)
    for _ in range(100):
        if math.sqrt(2.0) * np.linalg.norm(A[np.triu_indices(n, 1)]) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - s * colq
                A[:, q] = s * colp + c * colq
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - s * rowq
                A[q, :] = s * rowp + c * rowq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        raise AssertionError("the oracle did not converge in 100 sweeps")
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def general_m2_spec() -> OperatorSpec:
    """Non-diagonal m = 2 table: a_12 = a_21 != 0 with |a_12|^2 < a_11 a_22."""
    return OperatorSpec(m=2, coefficients={
        (0, 0): lambda x: 0.3 + 0.2 * np.sin(5.0 * x),
        (1, 1): lambda x: 0.4 + 0.3 * x,
        (2, 2): lambda x: 1.0 + 0.5 * x**2,
        (1, 2): lambda x: 0.05 * np.cos(3.0 * x),
        (2, 1): lambda x: 0.05 * np.cos(3.0 * x),
    })


# wall time of each profile decomposition's assembly and solve, by (profile, n): a test with a time
# budget adds it, so the budget still covers the solve its session fixture did
BUILD_SECONDS = {}


def _decomp(name: str, n: int):
    start = time.perf_counter()
    profile = get_profile(name)
    form = assemble_form(profile.spec, profile.grid(n))
    out = form, SpectralDecomposition.from_form(form)
    BUILD_SECONDS[(name, n)] = time.perf_counter() - start
    return out


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


def _eigh_decomp(spec: OperatorSpec, n: int):
    """Form and decomposition of spec on [0, 1] from LAPACK eigh, whatever the coefficient table:
    the m = 3 and beam-1 cells at n >= 400 where cyclic Jacobi's mu_1 is far off or too slow."""
    form = assemble_form(spec, Grid1D(length=1.0, n_interior=n))
    w, v = np.linalg.eigh(form.operator)
    phi = v / math.sqrt(form.grid.h)
    return form, SpectralDecomposition(eigenvalues=w, eigenvectors=phi, grid=form.grid, m=spec.m)


@pytest.fixture(scope="session")
def poly3_400_eigh():
    return _eigh_decomp(polyharmonic_spec(3), 400)


@pytest.fixture(scope="session")
def poly3_800_eigh():
    return _eigh_decomp(polyharmonic_spec(3), 800)


@pytest.fixture(scope="session")
def beam800_eigh():
    return _eigh_decomp(polyharmonic_spec(2), 800)


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
