"""Discretization of the quadratic form and the ellipticity measurement.

The derivative of order k is realized as the k-fold forward difference with
zero extension, so membership in the Dirichlet form domain is built into the
matrices. Each application of a difference (or an averaging) factor moves the
sample locations half a mesh width; coefficients are sampled at the staggered
locations of level max(i, j) and lower-order factors are lifted there by
averaging adjacent values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import Grid1D, freeze, read_only
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    EllipticityError,
    UnsupportedError,
)

MAX_ORDER = 3  # v1 cap on the order parameter m (operator order 2m <= 6)

CoeffFn = Callable[[np.ndarray], np.ndarray]


def level_positions(grid: Grid1D, level: int) -> np.ndarray:
    """Sample locations after `level` staggered applications of D or M."""
    return (np.arange(grid.n_interior + level) + 1.0 - level / 2.0) * grid.h


def staggered_taps(h: float, n_diff: int, n_avg: int) -> np.ndarray:
    """Taps of D^{n_diff} M^{n_avg}, column j of its matrix from row j on. With zero
    extension D takes s to (s, 0)/h - (0, s)/h and M takes s to (s, 0)/2 + (0, s)/2."""
    taps = np.array([1.0])
    inv = 1.0 / h
    for _ in range(n_diff):
        taps = inv * np.append(taps, 0.0) - inv * np.insert(taps, 0, 0.0)
    for _ in range(n_avg):
        taps = 0.5 * np.append(taps, 0.0) + 0.5 * np.insert(taps, 0, 0.0)
    return taps


def staggered_operator(grid: Grid1D, n_diff: int, n_avg: int) -> np.ndarray:
    """Banded (n + n_diff + n_avg) x n matrix of D^{n_diff} M^{n_avg}; the factors commute."""
    if n_diff < 0 or n_avg < 0:
        raise DomainError(f"difference and averaging orders must be non-negative, got {n_diff}, {n_avg}")
    if n_diff > MAX_ORDER:
        raise UnsupportedError(f"difference order {n_diff} exceeds the v1 cap m <= {MAX_ORDER}")
    n, taps = grid.n_interior, staggered_taps(grid.h, n_diff, n_avg)
    A = np.zeros((n + len(taps) - 1, n))
    for k, c in enumerate(taps):
        A[np.arange(k, n + k), np.arange(n)] = c
    return A


def constant_coefficient(value: float) -> CoeffFn:
    return lambda x: np.full_like(np.asarray(x, dtype=float), float(value))


@dataclass(frozen=True)
class OperatorSpec:
    """Order parameter m and Hermitian coefficient table a_{ij}, 0 <= i,j <= m.

    Coefficients are callables sampled on staggered grids at assembly time.
    v1 requires a_{ij} = a_{ji} pointwise (Hermitian real table).
    """

    m: int
    coefficients: Mapping[tuple[int, int], CoeffFn]

    def __post_init__(self):
        if not (1 <= self.m <= MAX_ORDER):
            raise UnsupportedError(f"order parameter m={self.m} outside 1..{MAX_ORDER}")
        for (i, j) in self.coefficients:
            if not (0 <= i <= self.m and 0 <= j <= self.m):
                raise ConfigurationError(f"coefficient index ({i},{j}) outside 0..m={self.m}")

    def sample(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        fn = self.coefficients.get((i, j))
        if fn is None:
            raise ConfigurationError(f"missing coefficient a_{{{i}{j}}}")
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape != np.asarray(x).shape:
            raise ConfigurationError(f"coefficient a_{{{i}{j}}} returned wrong shape")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError(f"coefficient a_{{{i}{j}}} has non-finite samples")
        return vals

    def check_hermitian(self, grid: Grid1D) -> None:
        """Require a_{ij} = a_{ji} pointwise on every staggered level used."""
        for (i, j) in self.coefficients:
            if (j, i) not in self.coefficients:
                raise UnsupportedError(f"non-Hermitian table: a_{{{i}{j}}} present, a_{{{j}{i}}} missing")
            x = level_positions(grid, max(i, j))
            aij = self.sample(i, j, x)
            aji = self.sample(j, i, x)
            scale = max(np.max(np.abs(aij)), 1.0)
            if np.max(np.abs(aij - aji)) > 1e-12 * scale:
                raise UnsupportedError(f"non-Hermitian table: a_{{{i}{j}}} != a_{{{j}{i}}} pointwise")


def polyharmonic_spec(m: int) -> OperatorSpec:
    """Pure (-Laplace)^m reference operator: a_mm = 1, all other entries 0."""
    return OperatorSpec(m=m, coefficients={(m, m): constant_coefficient(1.0)})


@dataclass(frozen=True)
class FormMatrix:
    """Assembled symmetric form matrix Q_h with Q(f) = f^T Q_h f.

    The matrix is read-only by construction (a writable one is copied), so
    quantities derived from it are kept on the form (derived).
    """

    matrix: np.ndarray
    grid: Grid1D
    m: int
    spec: OperatorSpec = field(compare=False)
    # what other modules compute from the matrix, under keys each module chooses
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only(self.matrix))

    def __call__(self, f: np.ndarray) -> float:
        return float(np.dot(np.conj(f), self.matrix @ f).real)

    @property
    def operator(self) -> np.ndarray:
        """Operator matrix in the discrete L2 geometry, H = Q_h / h."""
        return self.matrix / self.grid.h


def assemble_form(spec: OperatorSpec, grid: Grid1D) -> FormMatrix:
    """Assemble Q_h = h * sum_{ij} B_i^T diag(a_ij) B_j with staggered sampling.

    B_i lifts the order-i difference to level max(i, j); the 1/h^{i+j} scaling
    is carried inside the difference matrices.
    """
    spec.check_hermitian(grid)
    n = grid.n_interior
    Q = np.zeros((n, n))
    for (i, j) in sorted(spec.coefficients):
        level = max(i, j)
        x = level_positions(grid, level)
        A = spec.sample(i, j, x)
        Bi = staggered_operator(grid, i, level - i)  # D_i lifted to the level by averaging
        Bj = staggered_operator(grid, j, level - j)
        Q += grid.h * (Bi.T * A) @ Bj
    scale = np.linalg.norm(Q)
    if scale > 0 and np.linalg.norm(Q - Q.T) > 1e-12 * scale:
        raise ContractError("assembled form is not symmetric to round-off")
    Q = freeze(0.5 * (Q + Q.T))
    return FormMatrix(matrix=Q, grid=grid, m=spec.m, spec=spec)


def measure_ellipticity(form: FormMatrix) -> float:
    """Extremes of the pencil Q_h f = lambda P_h f against the polyharmonic form.

    P_h has the order and the grid of the form. With Cholesky factors
    P_h = L_P L_P^T and Q_h = L_Q L_Q^T the pencil extremes are the squared
    extreme singular values of L_P^{-1} L_Q, so no eigensolver runs. Returns
    c = max(lambda_max, 1/lambda_min) >= 1 certifying the two-sided sandwich;
    rejects the operator when either form is not positive definite.
    """
    P = assemble_form(polyharmonic_spec(form.m), form.grid)
    try:
        L_P = np.linalg.cholesky(P.matrix)
    except np.linalg.LinAlgError:
        raise EllipticityError("polyharmonic reference form is not positive definite") from None
    try:
        L_Q = np.linalg.cholesky(form.matrix)
    except np.linalg.LinAlgError:
        raise EllipticityError("form is not positive definite: a pencil extreme is non-positive") from None
    sigma = np.linalg.svd(np.linalg.solve(L_P, L_Q), compute_uv=False)  # descending
    lo, hi = float(sigma[-1]) ** 2, float(sigma[0]) ** 2
    if lo <= 0:
        raise EllipticityError(f"pencil extremes non-positive: [{lo}, {hi}]")
    return max(hi, 1.0 / lo, 1.0)


def load_coefficients_csv(path: str) -> dict[tuple[int, int], CoeffFn]:
    """Read a coefficient table from CSV with columns i,j,x,value.

    Samples per (i, j) entry are linearly interpolated between the listed x
    values and extended by their end values outside the listed range.
    """
    raw: dict[tuple[int, int], list[tuple[float, float]]] = {}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read coefficient CSV {path!r}: {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        required = {"i", "j", "x", "value"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigurationError(
                f"coefficient CSV must have header columns i,j,x,value, got {reader.fieldnames}"
            )
        for row in reader:
            try:
                key = (int(row["i"]), int(row["j"]))
                raw.setdefault(key, []).append((float(row["x"]), float(row["value"])))
            except (TypeError, ValueError):  # TypeError: a short row leaves fields None
                raise ConfigurationError(f"coefficient CSV line {reader.line_num}: bad row {row}") from None
    if not raw:
        raise ConfigurationError(f"coefficient CSV {path!r} contains no data rows")

    out: dict[tuple[int, int], CoeffFn] = {}
    for key, pts in raw.items():
        pts.sort()
        xs = np.array([p[0] for p in pts])
        vs = np.array([p[1] for p in pts])

        def fn(x, xs=xs, vs=vs):
            return np.interp(np.asarray(x, dtype=float), xs, vs)

        out[key] = fn
    return out
