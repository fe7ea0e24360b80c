"""Symmetric eigendecomposition and heat kernel.

A form whose coefficient table holds only diagonal entries a_ii is decomposed by
cyclic Jacobi (jacobi_eigh); a table with any off-diagonal entry a_ij, i != j,
takes LAPACK's np.linalg.eigh. The Dirichlet Laplacian has its modes in closed
form (dirichlet_laplacian).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import FormMatrix
from .core import Grid1D, error_ratio, freeze, read_only
from .errors import (
    ContractError,
    DomainError,
    NumericalError,
    PropertyViolation,
    ResolutionWarning,
)

JACOBI_MAX_SWEEPS = 100
EXP_UNDERFLOW_CAP = 700.0  # exp(-x) underflows to exact zero well before x = 745


def _jacobi_sweeps(W: np.ndarray, tol: float, max_sweeps: int) -> int:
    """Cyclic Jacobi sweeps in place on W = [A; V], A's n rows over V's in one (2n x n) array.

    One rotation of W's columns p, q turns A's and V's columns at once; A's rows p, q follow.
    Each entry keeps its two products and one sum, so jacobi_eigh's results stay bit-identical.
    """
    n = W.shape[1]
    A = W[:n]
    cols = [W[:, k] for k in range(n)]
    rows = list(A)
    cx, sy, sx, cy = np.empty((4, 2 * n))  # products of a column rotation
    rcx, rsy, rsx, rcy = cx[:n], sy[:n], sx[:n], cy[:n]  # and of a row rotation
    upper = np.triu_indices(n, 1)
    skip = tol / (2.0 * n)
    for sweep in range(max_sweeps):
        if math.sqrt(2.0) * np.linalg.norm(A[upper]) <= tol:
            return sweep
        for p in range(n - 1):
            colp, rowp = cols[p], rows[p]
            for q in range(p + 1, n):
                apq = A.item(p, q)
                if abs(apq) <= skip:
                    continue
                theta = (A.item(q, q) - A.item(p, p)) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colq = cols[q]
                np.multiply(colp, c, out=cx)
                np.multiply(colq, s, out=sy)
                np.multiply(colp, s, out=sx)
                np.multiply(colq, c, out=cy)
                np.subtract(cx, sy, out=colp)
                np.add(sx, cy, out=colq)
                rowq = rows[q]
                np.multiply(rowp, c, out=rcx)
                np.multiply(rowq, s, out=rsy)
                np.multiply(rowp, s, out=rsx)
                np.multiply(rowq, c, out=rcy)
                np.subtract(rcx, rsy, out=rowp)
                np.add(rsx, rcy, out=rowq)
    return -1


def decay_weights(ex: np.ndarray) -> np.ndarray:
    """Modal decay factors exp(-ex), exactly zero past ex = EXP_UNDERFLOW_CAP and finite below -EXP_UNDERFLOW_CAP."""
    return np.where(ex > EXP_UNDERFLOW_CAP, 0.0, np.exp(-np.clip(ex, -EXP_UNDERFLOW_CAP, EXP_UNDERFLOW_CAP)))


def jacobi_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the pairs p < q in row order, at most 100 times, and stops once
    sqrt(2) * ||triu(A, 1)||_F <= tol = 1e-12 * ||M||_F; within a sweep a pair
    with |a_pq| <= tol / (2n) is skipped. The rotation arithmetic is fixed:
    each new entry is c x - s y or s x + c y, each product and the sum rounded
    once, so a given M always gives the same eigenvalue and eigenvector bits.
    Returns ascending eigenvalues and orthonormal columns. A non-finite or
    non-symmetric M raises ContractError; a 0 x 0 M gives empty arrays.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ContractError("jacobi_eigh requires a finite matrix")
    n = M.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    scale = np.linalg.norm(M)
    if scale > 0 and np.linalg.norm(M - M.T) > 1e-10 * scale:
        raise ContractError("jacobi_eigh requires a symmetric matrix")
    W = np.empty((2 * n, n))  # A over V
    W[:n] = 0.5 * (M + M.T)
    W[n:] = np.eye(n)
    tol = 1e-12 * max(scale, np.finfo(float).tiny)
    sweeps = _jacobi_sweeps(W, tol, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise NumericalError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    w = np.diag(W).copy()
    order = np.argsort(w, kind="stable")
    return w[order], W[n:, order]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and h-orthonormal eigenvectors of a form matrix.

    Both arrays are read-only by construction (a writable one is copied), so quantities derived from
    them are kept on the decomposition (operator, derived). The constructor checks what every reader
    assumes: shapes (n,) and (n, n), finite non-decreasing values (ContractError), mu_1 > 0 (PropertyViolation).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns phi_k with <phi_k, phi_l>_h = delta_kl
    grid: Grid1D
    m: int
    # what other modules compute from the arrays, under keys each module chooses
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu, phi, n = read_only(self.eigenvalues), read_only(self.eigenvectors), self.grid.n_interior
        object.__setattr__(self, "eigenvalues", mu)
        object.__setattr__(self, "eigenvectors", phi)
        if mu.shape != (n,) or phi.shape != (n, n):
            raise ContractError(f"expected shapes ({n},) and ({n}, {n}), got {mu.shape} and {phi.shape}")
        if not (np.isfinite(mu).all() and np.isfinite(phi).all() and (mu[1:] >= mu[:-1]).all()):
            raise ContractError("eigenvalues and eigenvectors must be finite, the eigenvalues non-decreasing")
        if not mu[0] > 0:
            raise PropertyViolation(f"Dirichlet positivity violated: mu_1 = {mu[0]}", witness={"mu_1": float(mu[0])})

    @classmethod
    def from_form(cls, form: FormMatrix) -> "SpectralDecomposition":
        """Decompose H = form.operator: jacobi_eigh for a diagonal coefficient table, else
        np.linalg.eigh with each eigenvector's first entry above 1e-8 of its largest positive."""
        if all(i == j for i, j in form.spec.coefficients):
            w, v = jacobi_eigh(form.operator)
        else:
            w, v = np.linalg.eigh(form.operator)
            mag = np.abs(v)
            first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
            v *= np.where(v[first, np.arange(v.shape[1])] < 0.0, -1.0, 1.0)
        phi = v / math.sqrt(form.grid.h)
        return cls(eigenvalues=freeze(w), eigenvectors=freeze(phi), grid=form.grid, m=form.m)

    @property
    def gap(self) -> float:
        """Least eigenvalue mu_1 > 0, the infimum of the discrete Rayleigh quotient."""
        return float(self.eigenvalues[0])

    def coefficients(self, f: np.ndarray) -> np.ndarray:
        """Modal coefficients <f, phi_k>_h."""
        return self.grid.h * (self.eigenvectors.T @ f)

    @cached_property
    def operator(self) -> np.ndarray:
        """H = operator_matrix(), computed once per decomposition and read-only."""
        return freeze(self.operator_matrix())

    def operator_matrix(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Matrix sum_k w_k phi_k phi_k^T h acting in the discrete L2 geometry."""
        w = self.eigenvalues if weights is None else weights
        return self.grid.h * (self.eigenvectors * w) @ self.eigenvectors.T


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
        """decay_weights(t mu), the modal weights of every kernel read; DomainError unless
        0 < t < inf, and a ResolutionWarning below the resolvable floor."""
        if not (0 < t < math.inf):  # also rejects nan
            raise DomainError(f"kernel time must be positive and finite, got {t}")
        if t < self.t_floor:
            warnings.warn(
                f"t={t} below the resolvable floor {self.t_floor}; result is discretization-limited",
                ResolutionWarning,
                stacklevel=3,
            )
        return decay_weights(t * self.decomposition.eigenvalues)

    def matrix(self, t: float) -> np.ndarray:
        """Full kernel table k(t, x_i, x_j) over the grid: the block over every node."""
        nodes = np.arange(self.grid.n_interior)
        return self.block(t, nodes, nodes)

    def diagonal(self, t: float) -> np.ndarray:
        """Diagonal k(t, x_i, x_i) of the kernel table, in O(n^2) against matrix(t)'s O(n^3)."""
        phi = self.decomposition.eigenvectors
        return np.einsum("ij,ij->i", phi * self._weights(t), phi)

    def block(self, t: float, rows, cols) -> np.ndarray:
        """Kernel entries k(t, x_i, x_j) for i in rows and j in cols: the one modal product
        (Phi[rows] w) Phi[cols]^T."""
        w, phi = self._weights(t), self.decomposition.eigenvectors
        return (phi[self._nodes(rows)] * w) @ phi[self._nodes(cols)].T

    def _nodes(self, idx) -> np.ndarray:
        """idx as node indices; DomainError outside 0..n-1, where numpy would wrap or raise IndexError."""
        idx, n = np.asarray(idx), self.grid.n_interior
        outside = idx[(idx < 0) | (idx >= n)]
        if outside.size:
            raise DomainError(f"node index {outside[0]} outside 0..{n - 1}")
        return idx


def kernel_eval(ev: HeatKernelEvaluator, t: float, i: int, j: int) -> float:
    """Kernel value at grid indices (i, j) by a scalar sum apart from `block`; symmetric in (i, j)."""
    w = ev._weights(t)
    phi_i, phi_j = ev.decomposition.eigenvectors[ev._nodes([i, j])]
    return float(np.sum(w * phi_i * phi_j))


def evolved_forms(d: SpectralDecomposition, coeffs: np.ndarray, t_arr: np.ndarray,
                  mixing: np.ndarray | None = None) -> np.ndarray:
    """(sample, t) table of e^{2st} Q(g) = sum_k mu_k beta_k^2, s = mu_1, beta = (c e^{-t(mu - s)}) mixing^T
    for each coefficient row c (no mixing: the plain semigroup). The ground-mode weight is 1 at every t,
    so no entry flushes where 2 s t passes the underflow cap."""
    mu, s = d.eigenvalues, d.gap
    vals = np.empty((len(coeffs), len(t_arr)))
    for ti, t in enumerate(t_arr):
        beta = coeffs * decay_weights(t * (mu - s))
        if mixing is not None:
            beta = beta @ mixing.T
        vals[:, ti] = (beta**2) @ mu
    return vals


def evolved_form_bound_check(
    d: SpectralDecomposition,
    t_grid: np.ndarray,
    f_samples: np.ndarray,
) -> list[dict]:
    """Check Q(e^{-Ht} f) <= g~(t) ||f||^2 for each (t, f); returns report rows.

    Both sides are read with e^{-2st} factored out: e^{2st} Q(e^{-Ht} f) = sum_k mu_k e^{-2t(mu_k - s)}
    c_k^2 from evolved_forms against e^{2st} g~(t) ||f||^2 (s ||f||^2 for t > 1/s, e^{st-1}/t ||f||^2
    before), so neither side flushes. Each term is at most the bound's on an ascending positive spectrum:
    PropertyViolation at the first (f, t), in row order, where Q - bound > eps n (Q + bound) (core.error_ratio).
    """
    s, n = d.gap, d.eigenvalues.size
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    # one product per sample: a matrix product would round the coefficients differently
    c = np.array([d.coefficients(f) for f in np.atleast_2d(f_samples)]).reshape(-1, n)
    q = evolved_forms(d, c, ts)
    # e^{2st} g~(t): s past t = 1/s, e^{st-1}/t before (the minimum keeps the unused branch finite)
    bound = np.where(ts > 1.0 / s, s, np.exp(np.minimum(s * ts, 1.0) - 1.0) / ts) * np.sum(c**2, axis=1)[:, np.newaxis]
    ratios = np.divide(q, bound, out=np.zeros_like(q), where=bound > 0)  # f = 0: both sides vanish
    err, scale = np.maximum(q - bound, 0.0).ravel().tolist(), (n * (q + bound)).ravel().tolist()
    bad = [k for k, pair in enumerate(zip(err, scale)) if not error_ratio(*pair) <= 1.0]
    if bad:
        fi, ti = np.unravel_index(bad[0], ratios.shape)
        raise PropertyViolation(
            f"evolved form bound violated: ratio {float(ratios[fi, ti])} at t={float(ts[ti])}",
            witness={"t": float(ts[ti]), "sample_index": int(fi)},
        )
    return [{"t": float(t), "sample": fi, "ratio": float(r)}
            for fi, row in enumerate(ratios) for t, r in zip(ts, row)]
