"""Exponential twisting of the operator and its semigroup estimates.

All twisted semigroups are evaluated through the exact similarity
exp(-H_lambda t) = E^{-1} exp(-H t) E with E = diag(exp(lambda psi)); the
non-symmetric matrix H_lambda is never exponentiated directly. The discrete
product rule for the zero-extended forward difference is exact with hyperbolic
coefficients: conjugating one difference factor by E gives
cosh(c) D + (2 sinh(c)/h) M and conjugating one averaging factor gives
cosh(c) M + (h sinh(c)/2) D, where c = lambda * a * h / 2 and M is the
adjacent-value average. This makes the Leibniz route to per(lambda) an exact
second evaluation path rather than an O(h) approximation.

per_lambda reads a PerLambdaTable built once per (form, twist) and kept on
the (read-only) form: the direct path sums the m band diagonals of the form matrix
with weights 4 sinh^2(lambda a b h / 2), so it never subtracts Q(f) from
Q_{lambda psi}(f), and the Leibniz path contracts one stack of staggered
images per level with a precomputed matrix, O(n m) per sample. The evolved
twisted form Q(e^{-H_lambda t} f) is summed over modes, sum_k mu_k
<g, phi_k>_h^2, a sum of non-negative terms, with no n x n propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .assembly import FormMatrix, level_positions
from .core import Grid1D, freeze, holdout_within, is_frozen
from .errors import (
    ConditioningError,
    ConsistencyError,
    DomainError,
    PropertyViolation,
    SearchBoundError,
)
from .spectral import SpectralDecomposition, decay_weights, kernel_eval, spectral_gap

TWIST_CAP = 40.0  # |lambda| * L cap keeping diag(exp(lambda psi)) in double range
RANGE_CHUNK = 64  # samples per matmul in numerical_range_values
SHIFT_START = 1.0  # first upper bracket of sector_shift_search, doubled until it passes
SHIFT_DOUBLINGS = 40  # doublings of the bracket before sector_shift_search gives up
SHIFT_BISECTIONS = 20  # bisection steps of sector_shift_search
APPENDIX_B_RHS = 10  # seeded right-hand sides of the resolvent identity
APPENDIX_B_SEED = 42


@dataclass(frozen=True)
class TwistSpec:
    """Affine twist function psi(x) = <x - x0, a> with |a| = 1 and strength lambda."""

    grid: Grid1D
    x0: float
    a: float
    lam: float

    def __post_init__(self):
        if abs(abs(self.a) - 1.0) > 1e-14:
            raise DomainError(f"direction must be a unit vector (+-1 in 1-D), got {self.a}")
        if abs(self.lam) * self.grid.length > TWIST_CAP:
            raise ConditioningError(
                f"|lambda|*L = {abs(self.lam) * self.grid.length} exceeds the cap {TWIST_CAP}"
            )

    def psi(self, x) -> np.ndarray:
        return self.a * (np.asarray(x, dtype=float) - self.x0)

    def weights(self) -> np.ndarray:
        """Diagonal of E = exp(lambda psi) at the interior nodes."""
        return np.exp(self.lam * self.psi(self.grid.points))


@dataclass(frozen=True)
class TwistedOperator:
    """Similarity conjugation H_lambda = E^{-1} H E of a decomposed operator.

    Owns what depends only on (base, twist): the shifted matrix Hhat_lambda and
    the numerical-range points of read-only sample sets, each computed on first
    use and kept as long as the operator. The base is taken as unchanging.
    """

    base: SpectralDecomposition
    twist: TwistSpec
    # id(samples) -> (samples, points); holding samples keeps its id from reuse
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def gap(self) -> float:
        return spectral_gap(self.base)

    @property
    def unit(self) -> float:
        """Twist growth unit u = (1+s)^{2m} lambda^{2m} of the semigroup estimates."""
        s, m = self.gap, self.base.m
        return (1.0 + s) ** (2 * m) * self.twist.lam ** (2 * m)

    @cached_property
    def hhat(self) -> np.ndarray:
        """Dense Hhat_lambda = E^{-1} (H - s) E, computed once and read-only."""
        S = self.base.operator_matrix()
        return freeze(conjugate(S - self.gap * np.eye(S.shape[0]), self.twist))

    def matrix(self) -> np.ndarray:
        """Dense H_lambda."""
        return conjugate(self.base.operator_matrix(), self.twist)

    def numerical_range(self, samples: np.ndarray) -> np.ndarray:
        """numerical_range_values of Hhat_lambda over the sample rows.

        A read-only sample array is evaluated once; later calls with the same
        array object return the stored read-only values. A writable array can
        change between calls, so it is evaluated on every call.
        """
        if not is_frozen(samples):
            return numerical_range_values(self.hhat, samples, self.base.grid.h)
        hit = self._ranges.get(id(samples))
        if hit is None:
            z = freeze(numerical_range_values(self.hhat, samples, self.base.grid.h))
            hit = self._ranges[id(samples)] = (samples, z)
        return hit[1]

    def propagator(self, t: float) -> np.ndarray:
        """exp(-H_lambda t) through the exact similarity path."""
        return conjugate(self.base.propagator(t), self.twist)


def conjugate(M: np.ndarray, tw: TwistSpec) -> np.ndarray:
    """E^{-1} M E for the interior-node twist diagonal E."""
    e = tw.weights()
    return (M * e[np.newaxis, :]) / e[:, np.newaxis]


def _twisted_factor_terms(i: int, level: int, lam: float, a: float, h: float) -> dict[tuple[int, int], float]:
    """Exact expansion of E_level^{-1} (M^{level-i} D^i) E_0 in powers D^d M^m.

    Coefficients use the hyperbolic discrete product rule; d + m = level for
    every term and the h-scaling of D is inherited from the difference matrices.
    """
    c = lam * a * h / 2.0
    ch = math.cosh(c)
    sg = 2.0 * math.sinh(c) / h
    tau = h * math.sinh(c) / 2.0
    terms: dict[tuple[int, int], float] = {}
    for r in range(i + 1):  # D-part: (ch D + sg M)^i
        c1 = math.comb(i, r) * ch**r * sg ** (i - r)
        for u in range(level - i + 1):  # M-part: (ch M + tau D)^{level-i}
            c2 = math.comb(level - i, u) * ch**u * tau ** (level - i - u)
            key = (r + (level - i - u), (i - r) + u)
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return terms


def _log_top_factor(i: int, level: int, c: float) -> float:
    """log of the D^i M^{level-i} coefficient of _twisted_factor_terms(i, level, ...).

    The coefficient is cosh^level(c) * sum_k C(i,k) C(level-i,k) tanh^{2k}(c),
    even in c; with cosh(c) = 1 + 2 sinh^2(c/2) both logs are free of cancellation.
    """
    th2 = math.tanh(c) ** 2
    rest = sum(math.comb(i, k) * math.comb(level - i, k) * th2**k for k in range(1, min(i, level - i) + 1))
    return level * math.log1p(2.0 * math.sinh(c / 2.0) ** 2) + math.log1p(rest)


def _leibniz_matrix(i: int, j: int, level: int, lam: float, a: float, h: float) -> np.ndarray:
    """Coefficients C[dl, dr] of <D^dl M^(level-dl) f, a D^dr M^(level-dr) f> in Q_{lam psi} - Q.

    Entry (i, j) is the twisted top coefficient less the untwisted term of
    Q(f), evaluated as expm1 of a log so that it keeps its digits as lambda h
    -> 0. Only the symmetric part of C contributes, so C is returned
    symmetrized: the odd-in-lambda pairs then cancel exactly.
    """
    left = _twisted_factor_terms(i, level, -lam, a, h)
    right = _twisted_factor_terms(j, level, lam, a, h)
    C = np.outer([left.get((d, level - d), 0.0) for d in range(level + 1)],
                 [right.get((d, level - d), 0.0) for d in range(level + 1)])
    c = lam * a * h / 2.0
    C[i, j] = math.expm1(_log_top_factor(i, level, c) + _log_top_factor(j, level, c))
    return 0.5 * (C + C.T)


@dataclass(frozen=True)
class PerLambdaTable:
    """What per_lambda needs of one (form, twist), all of it O(n m).

    Both paths read a sample f zero-padded by m on each side, fp, through
    index tables. Direct path: E^{-1} Q E - Q has entries Q_kl expm1(lambda a
    (l - k) h), and pairing (k, l) with (l, k) gives f^T (E^{-1} Q E - Q) f =
    sum_b w_b f[:-b] . (Q_b f[b:]) with w_b = 4 sinh^2(lambda a b h / 2), free
    of the cancellation of f^T (E^{-1} Q E) f - f^T Q f. bands[0, b] is w_b
    Q_b and bands[1, b] is Q_b (2 Q_b for b > 0), the upper diagonals
    zero-padded to n, so that with fp[band_index][b, i] = f[i + b] they give
    per(lambda) and Q(f). Leibniz path: fp[window_index][j, k] = f[k - j], so
    taps @ windows is the stack of images D^d M^{level-d} f, d = 0..level (one
    convolution each); per level, terms holds each coefficient's staggered
    samples and Leibniz matrix.
    """

    bands: np.ndarray
    band_index: np.ndarray
    window_index: np.ndarray
    levels: tuple[tuple[int, np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]], ...]


def per_lambda_table(form: FormMatrix, tw: TwistSpec) -> PerLambdaTable:
    """Build the PerLambdaTable of (form, tw); per_lambda keeps it on the form."""
    grid, h, m = form.grid, form.grid.h, form.m
    n = grid.n_interior
    b = np.arange(m + 1)
    bands = np.zeros((m + 1, n))
    for k in b:
        q_k = np.diagonal(form.matrix, k)
        bands[k, : len(q_k)] = q_k
    terms: dict[int, list] = {}
    for (i, j) in sorted(form.spec.coefficients):
        level = max(i, j)
        samples = form.spec.sample(i, j, level_positions(grid, level))
        leibniz = _leibniz_matrix(i, j, level, tw.lam, tw.a, h)
        terms.setdefault(level, []).append((freeze(samples), freeze(leibniz)))
    levels = tuple(
        (level, freeze(np.array([form.taps[(d, level - d)] for d in range(level + 1)])), tuple(terms[level]))
        for level in sorted(terms)
    )
    weights = np.array([4.0 * np.sinh(tw.lam * tw.a * b * h / 2.0) ** 2, np.minimum(b, 1) + 1.0])
    return PerLambdaTable(
        bands=freeze(weights[:, :, np.newaxis] * bands),
        band_index=freeze(m + np.add.outer(b, np.arange(n))),
        window_index=freeze(m - np.subtract.outer(b, np.arange(n + m))),
        levels=levels,
    )


def per_lambda(form: FormMatrix, tw: TwistSpec, f: np.ndarray, rel_tol: float = 1e-8) -> float:
    """Twisted-form perturbation per(lambda) = Q_{lambda psi}(f) - Q(f).

    Evaluated two ways from the form's PerLambdaTable for tw: directly over
    the band diagonals of the form matrix, and by the exact discrete Leibniz
    expansion keeping only terms that differ from the untwisted top
    contribution. Disagreement beyond rel_tol raises. The form keeps its
    table per twist in form.twist_tables, so the table is built once per
    (form, tw) and each call costs O(n m).
    """
    if not np.count_nonzero(f):
        raise DomainError("per_lambda requires a nonzero sample function")
    if form.spec is None:
        raise DomainError("per_lambda needs the coefficient table; assemble via assemble_form")
    if tw.grid != form.grid:
        raise DomainError(f"twist grid {tw.grid} differs from the form grid {form.grid}")
    table = form.twist_tables.get(tw)
    if table is None:
        table = form.twist_tables[tw] = per_lambda_table(form, tw)
    n, m = len(f), form.m
    fp = np.zeros(n + 2 * m)
    fp[m : m + n] = f

    # direct path: the band sums f[:-b] . (Q_b f[b:]), weighted for the twist
    direct, plain_q = map(float, np.sum(table.bands * fp[table.band_index], axis=1) @ f)

    # Leibniz path: h sum(U a (C U)) over the image stack U of each level
    windows = fp[table.window_index]
    leib = 0.0
    for level, taps, terms in table.levels:
        U = taps @ windows[: level + 1, : n + level]
        for a_samples, C in terms:
            leib += float(np.vdot(U, a_samples * (C @ U)))
    leib *= form.grid.h

    # when per(lambda) cancels to round-off, the achievable agreement is set
    # by the cancellation noise of the terms being subtracted, not by per itself
    noise_floor = n * np.finfo(float).eps * (abs(plain_q + direct) + abs(plain_q))
    tolerance = max(rel_tol * max(abs(direct), abs(leib)), noise_floor)
    if abs(direct - leib) > tolerance:
        raise ConsistencyError(
            f"per(lambda) paths disagree: direct={direct}, leibniz={leib}"
        )
    return direct


def numerical_range_values(Hhat: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    """Numerical-range points <f, Hhat f>_h / <f, f>_h of each sample row.

    One matmul per chunk of at most RANGE_CHUNK samples; the sector search and
    the sector verdict both read these values, so they see the same points.
    """
    fs = np.atleast_2d(samples)
    z = np.empty(len(fs), dtype=complex)
    for k in range(0, len(fs), RANGE_CHUNK):
        block = fs[k : k + RANGE_CHUNK]
        num = h * np.einsum("ij,ij->i", block.conj(), block @ Hhat.T)
        den = h * np.einsum("ij,ij->i", block.conj(), block).real
        z[k : k + RANGE_CHUNK] = num / den
    return z


def numerical_range_sector(
    top: TwistedOperator, p: float, shift: float, samples: np.ndarray
) -> tuple[float, list[dict]]:
    """Numerical-range points of the shifted twisted form against the sector |arg| <= atan(1/p).

    Returns the maximum observed angle and the list of violating samples
    (violations are data, not exceptions).
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"sector parameter p must lie in (0,1), got {p}")
    z = top.numerical_range(samples) + shift
    angles = np.abs(np.arctan2(z.imag, z.real))
    bad = (z.real < -1e-12 * np.maximum(np.abs(z), 1.0)) | (angles > math.atan(1.0 / p) + 1e-12)
    violations = [
        {"sample": int(si), "z": complex(z[si]), "angle": float(angles[si])} for si in np.flatnonzero(bad)
    ]
    return float(np.max(angles, initial=0.0)), violations


def sector_samples(d: SpectralDecomposition, seed: int = 42, count: int = 1000) -> np.ndarray:
    """Deterministic sample set: seeded complex vectors plus pairwise eigenvector sums.

    Returned read-only, so TwistedOperator.numerical_range evaluates it once
    per operator.
    """
    rng = np.random.default_rng(seed)
    n = d.grid.n_interior
    k = min(10, n)
    phi = d.eigenvectors
    # filled in place: no full-size temporaries left behind in the heap
    out = np.empty((count + k * k, n), dtype=complex)
    out.real[:count] = rng.standard_normal((count, n))
    out.imag[:count] = rng.standard_normal((count, n))
    row = count
    for i in range(k):
        for j in range(i, k):
            out[row] = phi[:, i] + phi[:, j]
            row += 1
            if i != j:
                out[row] = phi[:, i] + 1j * phi[:, j]
                row += 1
    return freeze(out)


def sector_shift_search(
    top: TwistedOperator,
    p: float,
    samples: np.ndarray,
) -> float:
    """Smallest shift multiplier c passing the sector check, by bisection.

    The shift applied is c * (1+p) * (1+s)^{2m} * lambda^{2m}; at lambda = 0
    the operator is already sectorial and c = 0 is returned.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"sector parameter p must lie in (0,1), got {p}")
    unit = (1.0 + p) * top.unit
    z0 = top.numerical_range(samples)

    def passes(c: float) -> bool:
        z = z0 + c * unit
        return bool(np.all(z.real >= -1e-12) and np.all(np.abs(z.imag) <= z.real / p + 1e-12))

    if passes(0.0):
        return 0.0
    hi = SHIFT_START
    for _ in range(SHIFT_DOUBLINGS):
        if passes(hi):
            break
        hi *= 2.0
    else:
        raise SearchBoundError(f"no admissible shift found below c_hi={hi}")
    lo = 0.0
    for _ in range(SHIFT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def twisted_kernel(ev, tw: TwistSpec, t: float, i: int, j: int) -> float:
    """Kernel of the twisted semigroup: e^{-lam psi(x)} k(t,x,y) e^{lam psi(y)}.

    Cross-checked against the matrix-similarity propagator applied to
    coordinate vectors; the two routes must agree to 1e-10 relative.
    """
    x = ev.grid.points
    base = kernel_eval(ev, t, i, j)
    value = math.exp(-tw.lam * float(tw.psi(x[i]))) * base * math.exp(tw.lam * float(tw.psi(x[j])))
    top = TwistedOperator(base=ev.decomposition, twist=tw)
    via_matrix = top.propagator(t)[i, j] / ev.grid.h
    # the two routes sum the same modal series in different orders; their
    # agreement floor in the Gaussian tail is set by round-off against the
    # diagonal kernel scale, on which the twist weights cancel
    diag_scale = max(kernel_eval(ev, t, i, i), kernel_eval(ev, t, j, j))
    noise = len(ev.decomposition.eigenvalues) * np.finfo(float).eps * diag_scale
    if abs(value - via_matrix) > 1e-10 * max(abs(value), abs(via_matrix)) + noise:
        raise ConsistencyError(
            f"twisted kernel mismatch: direct={value}, similarity={via_matrix}"
        )
    return value


def _twisted_norms(d: SpectralDecomposition, tw: TwistSpec, weights) -> list[float]:
    """2-norms of E^{-1} (sum_k w_k phi_k phi_k^T h) E, one per row w of weights.

    With O = sqrt(h) Phi orthogonal, the matrix is (E^{-1} O) diag(w) (E O)^T;
    QR of both factors leaves sigma_max(R_- diag(w) R_+^T). The weights of a
    decay profile vanish past a prefix k (mu ascends), and the R factor of the
    first k columns is the leading k x k block of the full R, so each norm is
    an exact SVD of a k x k matrix. Never forming the n x n product keeps
    ||Hhat_lambda P|| free of the eps ||Hhat|| ||P|| round-off floor.
    """
    O = math.sqrt(d.grid.h) * d.eigenvectors
    e = tw.weights()[:, np.newaxis]
    r_minus = np.linalg.qr(O / e, mode="r")
    r_plus = np.linalg.qr(O * e, mode="r")
    norms = []
    for w in weights:
        support = np.flatnonzero(w)
        if support.size == 0:
            norms.append(0.0)
            continue
        k = int(support[-1]) + 1
        norms.append(float(np.linalg.norm((r_minus[:k, :k] * w[:k]) @ r_plus[:k, :k].T, 2)))
    return norms


def twisted_semigroup_norm_fit(d: SpectralDecomposition, tw: TwistSpec, t_grid) -> dict:
    """Fit the smallest c with log ||exp(-Hhat_lambda t)|| <= c (1+s)^{2m} lam^{2m} t.

    Operator norms come from the factored similarity path (_twisted_norms); at
    lambda = 0 the shifted semigroup is a contraction with norm 1 and c = 0.
    """
    top = TwistedOperator(base=d, twist=tw)
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    shifted = d.eigenvalues - top.gap
    norms = list(zip(ts, _twisted_norms(d, tw, [decay_weights(t * shifted) for t in ts])))
    c = 0.0
    for t, nrm in norms:
        if top.unit > 0 and nrm > 1.0:
            c = max(c, math.log(nrm) / (top.unit * t))
    return {"c": c, "norms": norms}


def mixed_norm_bound_fit(
    d: SpectralDecomposition,
    tw: TwistSpec,
    t_grid,
    alpha: float,
    beta: float,
    c_growth: float,
) -> dict:
    """Fit c2' in the combined estimate on ||Hhat e^{-Hhat t}|| + beta-weighted norm.

    The right-hand envelope is (c2'/(alpha t)) * exp(c_growth (1+alpha) u t)
    with u = (1+s)^{2m} lam^{2m}; c_growth comes from the semigroup-norm fit.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    top = TwistedOperator(base=d, twist=tw)
    unit = top.unit
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    shifted = d.eigenvalues - top.gap
    w = [decay_weights(t * shifted) for t in ts]
    norms = _twisted_norms(d, tw, w + [shifted * wt for wt in w])
    c2 = 0.0
    for t, p_norm, hp_norm in zip(ts, norms[: len(ts)], norms[len(ts) :]):
        lhs = hp_norm + beta * unit * p_norm
        envelope_unit = math.exp(c_growth * (1.0 + alpha) * unit * t) / (alpha * t)
        c2 = max(c2, lhs / envelope_unit)
    return {"c2": c2}


def evolved_twisted_form_check(
    d: SpectralDecomposition,
    form: FormMatrix,
    tw: TwistSpec,
    alpha: float,
    t_grid,
    f_train: np.ndarray,
    f_holdout: np.ndarray,
    c2: float | None = None,
) -> dict:
    """Fit c1 in Q(e^{-H_lam t} f) <= (c1/(alpha t)) e^{c2 u t - 2 s t} ||f||^2.

    u = (1+s)^{2m} lam^{2m}. The growth constant c2 defaults to twice the
    semigroup-norm fit, matching how the evolved-form bound inherits it; a
    joint fit over c2 is degenerate (c1 -> 0 as c2 grows). Fits on the
    training samples and requires zero violations on the held-out samples.
    Q = form is read through the modes of d, its decomposition: the modal
    coefficients of every e^{-H_lam t} f come from two products formed once
    per call, so no n x n propagator is built.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if form.grid != d.grid:
        raise DomainError(f"form grid {form.grid} differs from the decomposition grid {d.grid}")
    top = TwistedOperator(base=d, twist=tw)
    s, unit = top.gap, top.unit
    h = d.grid.h
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if c2 is None:
        c2 = 2.0 * twisted_semigroup_norm_fit(d, tw, t_grid)["c"]

    train, held = np.atleast_2d(f_train), np.atleast_2d(f_holdout)
    fs = np.vstack([train, held])
    # Q(g) for g = e^{-H_lam t} f = E^{-1} sum_k w_k <E f, phi_k>_h phi_k, in
    # modes: Q phi_k = h mu_k phi_k gives Q(g) = sum_k mu_k <g, phi_k>_h^2, a
    # sum of non-negative terms, where g^T (Q g) cancels at large m
    phi, mu, e = d.eigenvectors, d.eigenvalues, tw.weights()
    A = h * (fs * e) @ phi  # <E f, phi_k>_h, one row per sample
    B = h * phi.T @ (phi / e[:, np.newaxis])  # <E^{-1} phi_l, phi_k>_h
    # e^{-2st} is factored out of both sides: vals holds e^{2st} Q(g), whose
    # ground-mode weight is 1 at every t, so no ratio is read off flushed zeros
    vals = np.empty((len(fs), len(t_arr)))
    for ti, t in enumerate(t_arr):
        beta = (A * decay_weights(t * (mu - s))) @ B.T
        vals[:, ti] = (beta**2) @ mu
    norms2 = h * np.sum(fs**2, axis=1)
    env_inv = alpha * t_arr * np.exp(-c2 * unit * t_arr)  # underflows only where the ratio is negligible
    ratios = vals * env_inv[None, :] / norms2[:, None]
    c1 = float(np.max(ratios[: len(train)]))
    held_c1 = float(np.max(ratios[len(train) :]))
    if not holdout_within(held_c1, c1):
        raise PropertyViolation(
            f"held-out evolved-form ratio {held_c1} exceeds fitted c1={c1}",
            witness={"c2": c2, "alpha": alpha, "lam": tw.lam},
        )
    return {"c1": c1, "c2": c2}


def appendix_b_identities(d: SpectralDecomposition, tw: TwistSpec, z: complex) -> dict:
    """Exact conjugation identities: resolvent similarity and spectrum equality.

    Verifies (z - H_lam)^{-1} = E^{-1} (z - H)^{-1} E on APPENDIX_B_RHS
    seeded right-hand sides and that the sorted spectra of H and H_lam agree.
    z is rejected only when it lies within 1e-6 (|z| + mu_1) of the spectrum,
    a relative distance that does not grow with mu_n. The spectrum of H_lam
    does not depend on z: the decomposition keeps it per twist in
    d.twisted_spectra, so the eigensolve runs once per (d, tw).
    """
    mu = d.eigenvalues
    if np.min(np.abs(z - mu)) < 1e-6 * (abs(z) + mu[0]):
        raise ConditioningError(f"z={z} within 1e-6*(|z|+mu_1) of the spectrum")
    S = d.operator_matrix()
    n = S.shape[0]
    e = tw.weights()
    H_lam = conjugate(S, tw)
    eye = np.eye(n)
    # columns are the right-hand sides, drawn in the same order as one at a time
    G = np.random.default_rng(APPENDIX_B_SEED).standard_normal((APPENDIX_B_RHS, n)).T
    X1 = np.linalg.solve(z * eye - H_lam, G.astype(complex))
    X2 = np.linalg.solve(z * eye - S, (e[:, np.newaxis] * G).astype(complex)) / e[:, np.newaxis]
    rel = np.linalg.norm(X1 - X2, axis=0) / np.maximum(np.linalg.norm(X2, axis=0), 1e-300)
    worst_resolvent = float(np.max(rel, initial=0.0))
    spec_tw = d.twisted_spectra.get(tw)
    if spec_tw is None:
        spec_tw = d.twisted_spectra[tw] = freeze(np.sort(np.linalg.eigvals(H_lam).real))
    worst_spectrum = float(np.max(np.abs(spec_tw - mu)) / mu[-1])
    ok = worst_resolvent <= 1e-8 and worst_spectrum <= 1e-8
    return {
        "z": complex(z),
        "resolvent_rel_err": worst_resolvent,
        "spectrum_rel_err": worst_spectrum,
        "ok": ok,
    }
