"""Symmetric eigendecomposition (cyclic Jacobi; the Dirichlet Laplacian in closed
form), heat kernel and semigroup action."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .assembly import FormMatrix
from .core import Grid1D, GTildeFn, freeze, gtilde, log_gtilde, read_only
from .errors import (
    ContractError,
    DomainError,
    NumericalError,
    PropertyViolation,
    ResolutionWarning,
)

JACOBI_MAX_SWEEPS = 100
EXP_UNDERFLOW_CAP = 700.0  # exp(-x) underflows to exact zero well before x = 745
EVOLVED_FORM_SLACK = 1e-10  # relative round-off allowed above 1 in evolved_form_bound_check


def _jacobi_sweeps(A: np.ndarray, V: np.ndarray, tol: float, max_sweeps: int) -> int:
    """Cyclic Jacobi sweeps with row-vectorized rotations, in place on A and V."""
    n = A.shape[0]
    skip = tol / (2.0 * n)
    for sweep in range(max_sweeps):
        off = math.sqrt(2.0) * np.linalg.norm(A[np.triu_indices(n, 1)])
        if off <= tol:
            return sweep
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
    return -1


def decay_weights(ex: np.ndarray) -> np.ndarray:
    """Modal decay factors exp(-ex), exactly zero where ex exceeds EXP_UNDERFLOW_CAP."""
    return np.where(ex > EXP_UNDERFLOW_CAP, 0.0, np.exp(-np.clip(ex, None, EXP_UNDERFLOW_CAP)))


def jacobi_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Rotates until all off-diagonal magnitudes are below 1e-12 * ||M||_F,
    at most 100 sweeps. Returns ascending eigenvalues and orthonormal columns.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if scale > 0 and np.linalg.norm(M - M.T) > 1e-10 * scale:
        raise ContractError("jacobi_eigh requires a symmetric matrix")
    n = M.shape[0]
    A = 0.5 * (M + M.T)
    V = np.eye(n)
    tol = 1e-12 * max(scale, np.finfo(float).tiny)
    sweeps = _jacobi_sweeps(A, V, tol, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise NumericalError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and h-orthonormal eigenvectors of a form matrix.

    Both arrays are read-only by construction (a writable one is copied), so
    quantities derived from them are kept on the decomposition (twisted_spectra).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns phi_k with <phi_k, phi_l>_h = delta_kl
    grid: Grid1D
    m: int
    # sorted real spectra of twisted conjugates E^{-1} H E, keyed by TwistSpec:
    # O(n) per twist, filled by twist.appendix_b_identities
    twisted_spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", read_only(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", read_only(self.eigenvectors))

    @classmethod
    def from_form(cls, form: FormMatrix) -> "SpectralDecomposition":
        w, v = jacobi_eigh(form.operator)
        phi = v / math.sqrt(form.grid.h)
        return cls(eigenvalues=freeze(w), eigenvectors=freeze(phi), grid=form.grid, m=form.m)

    @property
    def gap(self) -> float:
        return spectral_gap(self)

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Modal coefficients <f, phi_k>_h."""
        return self.grid.h * (self.eigenvectors.T @ f)

    def operator_matrix(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Matrix sum_k w_k phi_k phi_k^T h acting in the discrete L2 geometry."""
        w = self.eigenvalues if weights is None else weights
        return self.grid.h * (self.eigenvectors * w) @ self.eigenvectors.T

    def propagator(self, t: float) -> np.ndarray:
        """Matrix of exp(-H t) with underflowing modes dropped."""
        return self.operator_matrix(decay_weights(t * self.eigenvalues))


def dirichlet_laplacian(grid: Grid1D) -> SpectralDecomposition:
    """Read-only decomposition of the difference Laplacian H = D^T D from its sine modes.

    mu_k = (2/h sin(k pi / (2(n+1))))^2 and phi_k(x_j) = sqrt(2/L) sin(j k pi / (n+1)),
    k, j = 1..n; the ground mode is positive. H is the operator of
    assemble_form(polyharmonic_spec(1), grid), so this replaces its eigensolve.
    """
    n = grid.n_interior
    k = np.arange(1, n + 1)
    mu = (2.0 / grid.h * np.sin(k * math.pi / (2 * (n + 1)))) ** 2
    # j k reduced mod 2(n+1) keeps the sine argument in [0, 2 pi)
    jk = np.outer(k, k) % (2 * (n + 1))
    phi = math.sqrt(2.0 / grid.length) * np.sin(jk * (math.pi / (n + 1)))
    return SpectralDecomposition(eigenvalues=freeze(mu), eigenvectors=freeze(phi), grid=grid, m=1)


def spectral_gap(d: SpectralDecomposition) -> float:
    """Least eigenvalue; the infimum of the discrete Rayleigh quotient."""
    s = float(d.eigenvalues[0])
    if s <= 0:
        raise PropertyViolation(f"Dirichlet positivity violated: mu_1 = {s}")
    return s


def semigroup_apply(d: SpectralDecomposition, t: float, f: np.ndarray) -> np.ndarray:
    """Evolve f by the semigroup: sum_k exp(-mu_k t) <f, phi_k>_h phi_k."""
    if t < 0:
        raise DomainError(f"semigroup time must be non-negative, got {t}")
    c = d.coefficients(f)
    return d.eigenvectors @ (decay_weights(t * d.eigenvalues) * c)


@dataclass(frozen=True)
class HeatKernelEvaluator:
    """Heat kernel by eigen-expansion: k(t, x_i, y_j) = sum exp(-mu t) phi(x) phi(y)."""

    decomposition: SpectralDecomposition

    @property
    def grid(self) -> Grid1D:
        return self.decomposition.grid

    @property
    def t_floor(self) -> float:
        """Resolvable-time floor h^{2m}; below it the continuum short-time
        singularity is not representable on the grid."""
        return self.grid.h ** (2 * self.decomposition.m)

    def _weights(self, t: float) -> np.ndarray:
        return decay_weights(t * self.decomposition.eigenvalues)

    def matrix(self, t: float) -> np.ndarray:
        """Full kernel table k(t, x_i, x_j) over the grid."""
        self._check_floor(t)
        phi = self.decomposition.eigenvectors
        return (phi * self._weights(t)) @ phi.T

    def block(self, t: float, idx: np.ndarray) -> np.ndarray:
        """Kernel table restricted to the sampled nodes: ev.matrix(t)[np.ix_(idx, idx)]."""
        self._check_floor(t)
        phi = self.decomposition.eigenvectors[idx]
        return (phi * self._weights(t)) @ phi.T

    def _check_floor(self, t: float) -> None:
        if t <= 0:
            raise DomainError(f"kernel time must be positive, got {t}")
        if t < self.t_floor:
            warnings.warn(
                f"t={t} below the resolvable floor {self.t_floor}; result is discretization-limited",
                ResolutionWarning,
                stacklevel=3,
            )


def kernel_eval(ev: HeatKernelEvaluator, t: float, i: int, j: int) -> float:
    """Kernel value at grid indices (i, j); symmetric in (i, j) by construction."""
    ev._check_floor(t)
    phi = ev.decomposition.eigenvectors
    return float(np.sum(ev._weights(t) * phi[i] * phi[j]))


_CENTERED_STENCILS = {
    0: (np.array([1.0]), 0),
    1: (np.array([-0.5, 0.0, 0.5]), 1),
    2: (np.array([1.0, -2.0, 1.0]), 1),
}
_ONESIDED_STENCILS = {
    # forward one-sided, first-order accurate; mirrored for the right boundary
    1: np.array([-1.0, 1.0]),
    2: np.array([1.0, -2.0, 1.0]),
}


def grid_derivative(grid: Grid1D, values: np.ndarray, order: int, i: int) -> float:
    """Finite-difference derivative of a grid function at node i.

    Uses the centered stencil when it fits; falls back to a one-sided stencil
    of matching order near the boundary (flagged with a ResolutionWarning).
    """
    if order not in _CENTERED_STENCILS:
        raise DomainError(f"derivative order {order} not supported (v1 caps m <= 3)")
    coeffs, halo = _CENTERED_STENCILS[order]
    n = grid.n_interior
    h = grid.h
    if halo <= i <= n - 1 - halo:
        window = values[i - halo : i + halo + 1]
        return float(np.dot(coeffs, window)) / h**order
    stencil = _ONESIDED_STENCILS[order]
    width = len(stencil)
    warnings.warn(
        f"one-sided order-{order} stencil at node {i}", ResolutionWarning, stacklevel=2
    )
    if i < halo:  # left boundary
        window = values[i : i + width]
        return float(np.dot(stencil, window)) / h**order
    window = values[i - width + 1 : i + 1]
    sgn = (-1.0) ** order
    return sgn * float(np.dot(stencil[::-1], window)) / h**order


def evolved_form_bound_check(
    d: SpectralDecomposition,
    t_grid: np.ndarray,
    f_samples: np.ndarray,
) -> list[dict]:
    """Check Q(e^{-Ht} f) <= g~(t) ||f||^2 for each (t, f); returns report rows.

    The decay weights of the whole t grid are computed once. Where either
    side underflows below the normal range (in particular where every mode
    with c_k != 0 is capped past 2 t mu_k = 700 and Q reads exactly 0), log
    sum_k mu_k e^{-2t mu_k} c_k^2 over those modes is compared with log g~(t)
    + log ||f||^2, so no ratio rests on 0/0 or on a flushed 0. Raises
    PropertyViolation when any ratio exceeds 1 + EVOLVED_FORM_SLACK.
    """
    s = spectral_gap(d)
    g = GTildeFn(s)
    mu = d.eigenvalues
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    weights = decay_weights(2.0 * ts[:, np.newaxis] * mu)  # one row per t
    g_t = gtilde(g, ts)
    tiny = np.finfo(float).tiny
    rows = []
    for fi, f in enumerate(np.atleast_2d(f_samples)):
        c = d.coefficients(f)
        c2 = c**2
        norm2 = float(np.sum(c2))  # Parseval in the h geometry
        live = c != 0
        log_c2 = 2.0 * np.log(np.abs(c[live]))
        q_ft = np.sum(mu * weights * c2, axis=1)
        bound = g_t * norm2
        for ti, t in enumerate(ts):
            if not live.any():  # f = 0: both sides vanish
                ratio = 0.0
            elif q_ft[ti] >= tiny and bound[ti] >= tiny:
                ratio = float(q_ft[ti] / bound[ti])
            else:
                log_q = np.logaddexp.reduce(np.log(mu[live]) - 2.0 * t * mu[live] + log_c2)
                log_bound = log_gtilde(g, float(t)) + np.logaddexp.reduce(log_c2)
                with np.errstate(over="ignore"):
                    ratio = float(np.exp(log_q - log_bound))
            rows.append({"t": float(t), "sample": fi, "ratio": ratio})
            if ratio > 1.0 + EVOLVED_FORM_SLACK:
                raise PropertyViolation(
                    f"evolved form bound violated: ratio {ratio} at t={t}",
                    witness={"t": float(t), "sample_index": fi},
                )
    return rows
