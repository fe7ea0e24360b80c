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

Everything this module keeps of a decomposition or a form sits in the owner's
`derived` store, filled through _kept (the twisted norms through their batch
fill in _twisted_norms). per_lambda reads a PerLambdaTable built once per
(form, twist), both paths as band tables read through one gather of the pairs
f_i f_{i+b}, O(n m) per sample: the direct path weights the m band diagonals
of the form matrix by 4 sinh^2(lambda a b h / 2), so it never subtracts Q(f)
from Q_{lambda psi}(f), and the Leibniz path's table contracts the staggered
taps of each level with its coefficient samples; the build checks the two
tables equal entry by entry. The evolved twisted form Q(e^{-H_lambda t} f) is
summed over modes, sum_k mu_k <g, phi_k>_h^2, a sum of non-negative terms,
with no n x n propagator.

The exact identities pass when an error is at most eps S, S its a-priori
error scale (core.error_ratio; Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 4 for sums, ch. 7 and 9 for linear systems):
|a - b| of two routes for the twisted kernel and per(lambda), and for the
Appendix-B resolvent the residual of a twist-free LU solve (z - H) Y = G_0, one
per (decomposition, z), Y kept per distinct z and read by every twist through
X = E^{-1} Y, G = E^{-1} G_0, at the backward-error scale
n ||(|H_lambda| + |z|) |X_k| + |G_k|||: no condition number enters while
LU's pivot growth stays small (appendix_b_identities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import FormMatrix, level_positions, staggered_taps
from .core import EPS, Grid1D, error_ratio, fit_holdout, freeze, is_frozen
from .errors import ConditioningError, ConsistencyError, DomainError, PropertyViolation
from .spectral import SpectralDecomposition, decay_weights, evolved_forms, kernel_eval

TWIST_CAP = 40.0  # |lambda| * L cap keeping diag(exp(lambda psi)) in double range
RANGE_CHUNK = 64  # samples per matmul in numerical_range_values
SECTOR_SLACK = 1e-12  # round-off allowed outside the sector, relative to max(|z| + |shift|, 1)
APPENDIX_B_RHS = 10  # seeded right-hand sides of the resolvent identity
APPENDIX_B_SEED = 42


def _kept(owner, key, make):
    """owner.derived[key], filled by make() on a miss; the read-only owner keeps it as long as it lives."""
    value = owner.derived.get(key)
    if value is None:
        value = owner.derived[key] = make()
    return value


@dataclass(frozen=True)
class TwistSpec:
    """Affine twist function psi(x) = <x - x0, a> with |a| = 1 and strength lambda."""

    grid: Grid1D
    x0: float
    a: float
    lam: float

    def __post_init__(self):
        if not abs(abs(self.a) - 1.0) <= 1e-14:  # also rejects nan
            raise DomainError(f"direction must be a unit vector (+-1 in 1-D), got {self.a}")
        if not math.isfinite(self.x0):
            raise DomainError(f"twist origin must be finite, got {self.x0}")
        if not abs(self.lam) * self.grid.length <= TWIST_CAP:  # also rejects nan
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

    Owns the shifted matrix Hhat_lambda, computed on first use and kept as long
    as the operator. The numerical-range points of read-only sample sets are
    kept on the base decomposition, so every operator over one (base, twist)
    reads them. The base is taken as unchanging.
    """

    base: SpectralDecomposition
    twist: TwistSpec

    @property
    def unit(self) -> float:
        """Twist growth unit u = (1+s)^{2m} lambda^{2m} of the semigroup estimates."""
        s, m = self.base.gap, self.base.m
        return (1.0 + s) ** (2 * m) * self.twist.lam ** (2 * m)

    @cached_property
    def hhat(self) -> np.ndarray:
        """Dense Hhat_lambda = E^{-1} (H - s) E, computed once and read-only."""
        S = self.base.operator
        return freeze(conjugate(S - self.base.gap * np.eye(S.shape[0]), self.twist))

    def numerical_range(self, samples: np.ndarray) -> np.ndarray:
        """numerical_range_values of Hhat_lambda over the sample rows.

        A read-only sample array is evaluated once per (base, twist); later
        calls with the same array object, through this or any other operator
        over the same base and an equal twist, return the stored read-only
        values. A writable array can change between calls, so it is evaluated
        on every call.
        """
        if not is_frozen(samples):
            return numerical_range_values(self.hhat, samples)
        # holding samples keeps its id from reuse while the entry lives
        return _kept(self.base, (self.twist, "range", id(samples)),
                     lambda: (samples, freeze(numerical_range_values(self.hhat, samples))))[1]


def conjugate(M: np.ndarray, tw: TwistSpec) -> np.ndarray:
    """E^{-1} M E for the interior-node twist diagonal E."""
    e = tw.weights()
    return M * e[np.newaxis, :] / e[:, np.newaxis]


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
    """What per_lambda needs of one (form, twist): two band tables of O(n m) over one gather.

    Both routes are quadratic forms in f of bandwidth m, read through the pairs
    f[i] f[i + b] = (concatenate(f, zeros(m))[band_index] * f)[b, i], zero past n,
    raveled to b n + i. Row 0 of values is the direct route: E^{-1} Q E - Q has
    entries Q_kl expm1(lambda a (l - k) h), and pairing (k, l) with (l, k) gives
    the weights W_b = 4 sinh^2(lambda a b h / 2) Q_b of band b, the upper
    diagonals zero-padded to n, free of the cancellation of the difference. Row 1
    is the Leibniz route, Lambda_b[i] = c_b h sum_{r=b..m} sum_{p,q} L[p, q, i + r]
    taps[p, r] taps[q, r - b] with c_0 = 1 and c_b = 2 past it: taps[p] are the
    taps of D^d M^{level-d}, stack row p of its (level, d), and L[p, q, k] sums
    a_ij(x_k) C_ij[d, e] over the coefficients of a level, p and q its rows d and
    e. magnitudes holds |W| and the same sum over |L|, |taps| and |taps|.
    """

    band_index: np.ndarray
    values: np.ndarray
    magnitudes: np.ndarray


def per_lambda_table(form: FormMatrix, tw: TwistSpec) -> PerLambdaTable:
    """Build the PerLambdaTable of (form, tw); per_lambda keeps it on the form.

    The two routes are one symmetric matrix, so W_b[i] = Lambda_b[i] wherever
    i + b < n (past n the pairs are 0 and the tables differ): ConsistencyError,
    naming the band and the node, unless each pair agrees to eps n (|W_b[i]| +
    |Lambda|_b[i]), the build-time rounding of both entries.
    """
    if tw.grid != form.grid:
        raise DomainError(f"twist grid {tw.grid} differs from the form grid {form.grid}")
    grid, h, m = form.grid, form.grid.h, form.m
    n = grid.n_interior
    b = np.arange(m + 1)
    bands = np.zeros((m + 1, n))
    for k in b:
        q_k = np.diagonal(form.matrix, k)
        bands[k, : len(q_k)] = q_k
    # one stack row per (level, d), each level's d = 0..level in turn
    stack = [(level, d) for level in sorted({max(ij) for ij in form.spec.coefficients}) for d in range(level + 1)]
    taps = np.zeros((len(stack), m + 1))
    for row, (level, d) in enumerate(stack):
        taps[row, : level + 1] = staggered_taps(h, d, level - d)
    leibniz = np.zeros((len(stack), len(stack), n + m))
    for (i, j) in sorted(form.spec.coefficients):
        level = max(i, j)
        rows = slice(stack.index((level, 0)), stack.index((level, level)) + 1)
        samples = form.spec.sample(i, j, level_positions(grid, level))
        leibniz[rows, rows, : n + level] += _leibniz_matrix(i, j, level, tw.lam, tw.a, h)[:, :, np.newaxis] * samples
    # the value and magnitude rows of Lambda: weight[r, s, k] multiplies f[k - r] f[k - s], band r - s
    leib = np.zeros((2, m + 1, n))
    for kind, (L, T) in enumerate(((leibniz, taps), (np.abs(leibniz), np.abs(taps)))):
        weight = np.einsum("pqk,pr,qs->rsk", L, T, T)
        for r in b:
            for s in range(r + 1):
                leib[kind, r - s] += weight[r, s, r : r + n]
    leib *= h * np.where(b > 0, 2.0, 1.0)[:, np.newaxis]
    bands = ((4.0 * np.sinh(tw.lam * tw.a * b * h / 2.0) ** 2)[:, np.newaxis] * bands).ravel()
    band_index = np.add.outer(b, np.arange(n))
    values, magnitudes = np.stack([bands, leib[0].ravel()]), np.stack([np.abs(bands), leib[1].ravel()])
    ratios = [error_ratio(err, n * size) if k < n else 0.0 for err, size, k in zip(
        np.abs(values[0] - values[1]).tolist(), magnitudes.sum(axis=0).tolist(), band_index.ravel().tolist())]
    worst = int(np.argmax(ratios))
    if not ratios[worst] <= 1.0:
        raise ConsistencyError(f"per(lambda) band tables disagree at band {worst // n}, node {worst % n}: "
                               f"direct={values[0, worst]}, leibniz={values[1, worst]}, ratio={ratios[worst]}")
    return PerLambdaTable(band_index=freeze(band_index), values=freeze(values), magnitudes=freeze(magnitudes))


def per_lambda(form: FormMatrix, tw: TwistSpec, f: np.ndarray) -> float:
    """Twisted-form perturbation per(lambda) = Q_{lambda psi}(f) - Q(f).

    Evaluated two ways from the form's PerLambdaTable for tw, one gather of
    the pairs f[i] f[i + b] and one product with both band tables: directly
    over the band diagonals of the form matrix, and by the exact discrete
    Leibniz expansion keeping only terms that differ from the untwisted top
    contribution. ConsistencyError unless the two sums agree to eps S, S = n
    (|W| . |pairs| + |Lambda| . |pairs|). The form keeps its table per twist,
    so the table is built (and the twist's grid checked) once per (form, tw),
    and each call is a few array steps of O(n m).
    """
    if not np.count_nonzero(f):
        raise DomainError("per_lambda requires a nonzero sample function")
    table = _kept(form, tw, lambda: per_lambda_table(form, tw))
    n = len(f)
    # row 0 of a product whose two rows fix its sum order: the direct path sum_b f[:-b] . (W_b f[b:])
    pairs = (np.concatenate((f, np.zeros(form.m)))[table.band_index] * f).ravel()
    direct, leib = (table.values @ pairs).tolist()

    # S >= n (|direct| + |leib|): the sums of the terms' magnitudes are needed only past that
    err = abs(direct - leib)
    if not err <= EPS * n * (abs(direct) + abs(leib)):
        ratio = error_ratio(err, n * float(np.sum(table.magnitudes @ np.abs(pairs))))
        if not ratio <= 1.0:
            raise ConsistencyError(f"per(lambda) paths disagree: direct={direct}, leibniz={leib}, ratio={ratio}")
    return direct


def numerical_range_values(Hhat: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Numerical-range points <f, Hhat f>_h / <f, f>_h of each sample row (h cancels).

    Hhat is real, so with f = u + i v the point is (u.Hu + v.Hv + i (u.Hv -
    v.Hu)) / (u.u + v.v): one real matmul per chunk of at most RANGE_CHUNK
    samples over their stacked real and imaginary parts. The sector shift
    and the sector verdict both read these values, so they see the same points.
    """

    def dot(a, b):  # a_i . b_i of each row pair
        return np.einsum("ij,ij->i", a, b)

    fs = np.atleast_2d(samples)
    z = np.empty(len(fs), dtype=complex)
    for k in range(0, len(fs), RANGE_CHUNK):
        block = fs[k : k + RANGE_CHUNK]
        r = len(block)
        uv = np.concatenate([block.real, block.imag])
        image = uv @ Hhat.T
        u, v, Hu, Hv = uv[:r], uv[r:], image[:r], image[r:]
        z[k : k + r] = (dot(u, Hu) + dot(v, Hv) + 1j * (dot(u, Hv) - dot(v, Hu))) / (dot(u, u) + dot(v, v))
    return z


def _sector_excess(z: np.ndarray, p: float, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one sector rule on the shifted points w = z + shift: each w, its p |Im w| - Re w and its
    round-off slack SECTOR_SLACK max(|z| + |shift|, 1), which reads the size of the numbers summed. w
    is outside the sector |arg w| <= atan(1/p) where the excess exceeds the slack."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"sector parameter p must lie in (0,1), got {p}")
    w = z + shift
    return w, p * np.abs(w.imag) - w.real, SECTOR_SLACK * np.maximum(np.abs(z) + abs(shift), 1.0)


def numerical_range_sector(top: TwistedOperator, p: float, shift: float,
                           samples: np.ndarray) -> tuple[float, list[dict]]:
    """Numerical-range points of the shifted twisted form against the sector |arg| <= atan(1/p).

    Returns the maximum observed angle and the list of violating samples
    (violations are data, not exceptions). A point within its slack of the
    origin is inside and reads angle 0.
    """
    z, excess, slack = _sector_excess(top.numerical_range(samples), p, shift)
    angles = np.where(np.abs(z) <= slack, 0.0, np.abs(np.arctan2(z.imag, z.real)))
    violations = [
        {"sample": int(si), "z": complex(z[si]), "angle": float(angles[si])} for si in np.flatnonzero(excess > slack)
    ]
    return float(np.max(angles, initial=0.0)), violations


def sector_samples(d: SpectralDecomposition, seed: int = 42, count: int = 1000) -> np.ndarray:
    """Deterministic sample set: seeded complex vectors plus pairwise eigenvector sums.

    Returned read-only, so TwistedOperator.numerical_range evaluates it once
    per (decomposition, twist).
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


def sector_shift_search(top: TwistedOperator, p: float, samples: np.ndarray) -> float:
    """Least shift multiplier c that puts every sample's numerical-range point in the sector.

    The shift applied is c (1+p) u, u = (1+s)^{2m} lambda^{2m}, and it lowers p |Im z| - Re z by as
    much: c = max_i (p |Im z_i| - Re z_i) / ((1+p) u), or 0 when every point is inside unshifted. At
    u = 0 (lambda = 0) a point outside raises PropertyViolation with its sample as witness.
    """
    z = top.numerical_range(samples)
    _, excess, slack = _sector_excess(z, p, 0.0)
    if not (excess > slack).any():
        return 0.0
    unit = (1.0 + p) * top.unit
    worst = int(np.argmax(excess))
    if unit == 0.0:
        raise PropertyViolation(
            f"numerical-range point {complex(z[worst])} outside the sector at lambda = {top.twist.lam}",
            witness={"sample": worst, "z": complex(z[worst]), "p": p},
        )
    return float(excess[worst]) / unit


def twisted_kernel(ev, tw: TwistSpec, t: float, i: int, j: int) -> float:
    """Kernel of the twisted semigroup: e^{-lam psi(x)} k(t,x,y) e^{lam psi(y)}.

    Cross-checked against entry (i, j) of the similarity route E^{-1} K(t) E, K(t) the kernel
    table read by `ev.block`, to eps n max(k(t,x_i,x_i), k(t,x_j,x_j)) e_j / e_i.
    """
    x, e = ev.grid.points, tw.weights()
    base = kernel_eval(ev, t, i, j)
    value = math.exp(-tw.lam * float(tw.psi(x[i]))) * base * math.exp(tw.lam * float(tw.psi(x[j])))
    via_matrix = ev.block(t, [i], [j])[0, 0] * e[j] / e[i]
    diag_scale = max(kernel_eval(ev, t, i, i), kernel_eval(ev, t, j, j))
    ratio = error_ratio(abs(value - via_matrix), len(e) * diag_scale * e[j] / e[i])
    if not ratio <= 1.0:
        raise ConsistencyError(f"twisted kernel mismatch: direct={value}, similarity={via_matrix}, ratio={ratio}")
    return value


def _twisted_norms(d: SpectralDecomposition, tw: TwistSpec, keys) -> list[float]:
    """2-norms of E^{-1} (sum_k w_k phi_k phi_k^T h) E, one per (kind, t) in keys.

    The weights are w = decay_weights(t (mu - s)) for kind "P", the twisted
    semigroup, and (mu - s) w for kind "HP", Hhat_lambda times it. Each norm
    is kept in d.derived under (tw, kind, t); only the missing ones are
    computed, all from one QR pair (the norm fit, the mixed fit and the
    evolved-form check's default c2 share the P norms).

    With O = sqrt(h) Phi orthogonal, the matrix is (E^{-1} O) diag(w) (E O)^T;
    QR of both factors leaves sigma_max(R_- diag(w) R_+^T). The weights of a
    decay profile vanish past a prefix k (mu ascends), and the R factor of the
    first k columns is the leading k x k block of the full R, so each norm is
    an exact SVD of a k x k matrix. Never forming the n x n product keeps
    ||Hhat_lambda P|| free of the eps ||Hhat|| ||P|| round-off floor.
    """
    memo = d.derived
    missing = [key for key in dict.fromkeys(keys) if (tw, *key) not in memo]
    if missing:
        O = math.sqrt(d.grid.h) * d.eigenvectors
        e = tw.weights()[:, np.newaxis]
        r_minus = np.linalg.qr(O / e, mode="r")
        r_plus = np.linalg.qr(O * e, mode="r")
        shifted = d.eigenvalues - d.gap
        for kind, t in missing:
            w = decay_weights(t * shifted)
            if kind == "HP":
                w = shifted * w
            support = np.flatnonzero(w)
            k = int(support[-1]) + 1 if support.size else 0
            memo[(tw, kind, t)] = (
                float(np.linalg.norm((r_minus[:k, :k] * w[:k]) @ r_plus[:k, :k].T, 2)) if k else 0.0
            )
    return [memo[(tw, *key)] for key in keys]


def twisted_semigroup_norm_fit(d: SpectralDecomposition, tw: TwistSpec, t_grid) -> dict:
    """Fit the smallest c with log ||exp(-Hhat_lambda t)|| <= c (1+s)^{2m} lam^{2m} t.

    Operator norms come from the factored similarity path (_twisted_norms); at
    lambda = 0 the shifted semigroup is a contraction with norm 1 and c = 0.
    """
    top = TwistedOperator(base=d, twist=tw)
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    norms = list(zip(ts, _twisted_norms(d, tw, [("P", t) for t in ts])))
    c = 0.0
    for t, nrm in norms:
        if top.unit > 0 and nrm > 1.0:
            c = max(c, math.log(nrm) / (top.unit * t))
    return {"c": c, "norms": norms}


def mixed_norm_bound_fit(d: SpectralDecomposition, tw: TwistSpec, t_grid, alpha: float, beta: float,
                         c_growth: float) -> dict:
    """Fit c2' in the combined estimate on ||Hhat e^{-Hhat t}|| + beta-weighted norm.

    The right-hand envelope is (c2'/(alpha t)) * exp(c_growth (1+alpha) u t)
    with u = (1+s)^{2m} lam^{2m}; c_growth comes from the semigroup-norm fit.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    unit = TwistedOperator(base=d, twist=tw).unit
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    norms = _twisted_norms(d, tw, [("P", t) for t in ts] + [("HP", t) for t in ts])
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
    unit = TwistedOperator(base=d, twist=tw).unit
    h = d.grid.h
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if c2 is None:
        c2 = 2.0 * twisted_semigroup_norm_fit(d, tw, t_grid)["c"]

    train, held = np.atleast_2d(f_train), np.atleast_2d(f_holdout)
    fs = np.vstack([train, held])
    # Q(g) for g = e^{-H_lam t} f = E^{-1} sum_k w_k <E f, phi_k>_h phi_k, in
    # modes: Q phi_k = h mu_k phi_k gives Q(g) = sum_k mu_k <g, phi_k>_h^2, a
    # sum of non-negative terms, where g^T (Q g) cancels at large m
    phi, e = d.eigenvectors, tw.weights()
    A = h * (fs * e) @ phi  # <E f, phi_k>_h, one row per sample
    B = h * phi.T @ (phi / e[:, np.newaxis])  # <E^{-1} phi_l, phi_k>_h
    # e^{-2st} is factored out of both sides: vals holds e^{2st} Q(g)
    vals = evolved_forms(d, A, t_arr, mixing=B)
    norms2 = h * np.sum(fs**2, axis=1)
    env_inv = alpha * t_arr * np.exp(-c2 * unit * t_arr)  # underflows only where the ratio is negligible
    ratios = vals * env_inv[None, :] / norms2[:, None]
    fit = fit_holdout(ratios[: len(train)], ratios[len(train) :])
    if not fit.passed:
        raise PropertyViolation(
            f"held-out evolved-form ratio {fit.held} exceeds fitted c1={fit.fitted}",
            witness={"c2": c2, "alpha": alpha, "lam": tw.lam, "held": fit.held, "c1": fit.fitted,
                     "held_at": fit.held_at},
        )
    return {"c1": fit.fitted, "c2": c2}


def _spectrum_residual_ratio(d: SpectralDecomposition, H_lam: np.ndarray, e: np.ndarray) -> float:
    """Worst error_ratio of the residual H_lambda V - V Lambda, V = E^{-1} Phi, against
    E^{-1} (H Phi - Phi Lambda), equal for any Phi and Lambda (so H's own residual cancels),
    per column k at S = n ||(|H_lambda| |V| + |V| |Lambda|)_k|| (|H_lambda| |V| = E^{-1} |H| |Phi|)."""
    phi, mu, V = d.eigenvectors, d.eigenvalues, d.eigenvectors / e
    size = len(mu) * np.linalg.norm(np.abs(H_lam) @ np.abs(V) + np.abs(V * mu), axis=0)
    return error_ratio(np.linalg.norm(H_lam @ V - V * mu - (d.operator @ phi - phi * mu) / e, axis=0), size)


def appendix_b_identities(d: SpectralDecomposition, tw: TwistSpec, z: complex) -> dict:
    """Exact conjugation identities: resolvent similarity and spectrum equality.

    Verifies (z - H_lam)^{-1} = E^{-1} (z - H)^{-1} E on APPENDIX_B_RHS seeded right-hand
    sides G_0. The solve is twist-free: one LU of (z - H) Y = G_0 per (d, z), Y kept read-only
    in d.derived under ("appendix-b", complex(z)), n x APPENDIX_B_RHS complex per distinct z.
    Each twist reads the residual R = G - (z - H_lam) X of G = E^{-1} G_0, X = E^{-1} Y, each
    column to eps n ||(|H_lam| + |z|) |X_k| + |G_k|||. LU's backward error gamma_3n |L^| |U^|
    for z - H (Higham 2002, Thm 9.4) maps through the diagonal E onto z - H_lam entry by entry;
    the scale assumes a small pivot growth, |L^| |U^| about |z - H|, and then no condition
    number enters (Thm 7.3). Measured worst clean ratio 0.199 (beam-1, n = 100, lambda L = 40;
    laplace-pi, beam-1, m = 3 up to n = 800, the indefinite z = 100 - 5i included). Also checks
    that H_lam has the eigenpairs of H (_spectrum_residual_ratio), kept once per (d, tw). z is
    rejected only within 1e-6 (|z| + mu_1) of the spectrum, where Y is solved; then nothing is kept.
    """
    S = d.operator
    n = S.shape[0]

    def rhs():  # G_0, its columns in the order one-at-a-time draws give them
        return _kept(d, "appendix-b rhs", lambda: freeze(
            np.random.default_rng(APPENDIX_B_SEED).standard_normal((APPENDIX_B_RHS, n))).T)

    def solve():  # Y = (z - H)^{-1} G_0, twist-free: one LU per (d, z)
        if np.min(np.abs(z - d.eigenvalues)) < 1e-6 * (abs(z) + d.eigenvalues[0]):
            raise ConditioningError(f"z={z} within 1e-6*(|z|+mu_1) of the spectrum")
        A = np.empty((n, n), dtype=complex)
        np.negative(S, out=A.real)
        A.imag[...] = 0.0
        A.reshape(-1)[:: n + 1] += z
        return freeze(np.linalg.solve(A, rhs()))

    Y = _kept(d, ("appendix-b", complex(z)), solve)
    e = tw.weights()[:, np.newaxis]
    H_lam = conjugate(S, tw)
    spectrum_ratio = _kept(d, (tw, "spectrum"), lambda: _spectrum_residual_ratio(d, H_lam, e))
    X, G = Y / e, rhs() / e  # G_lambda = E^{-1} G_0 and X = E^{-1} Y solve (z - H_lambda) X = G_lambda
    R = G - z * X + (H_lam @ X.real + 1j * (H_lam @ X.imag))  # H_lam is real: two real products
    aX = np.abs(X)
    size = np.linalg.norm(np.abs(H_lam, out=H_lam) @ aX + abs(z) * aX + np.abs(G), axis=0)
    err = np.linalg.norm(R, axis=0)
    resolvent_ratio = error_ratio(err, n * size)
    return {"z": complex(z), "resolvent_backward_err": float(np.max(err / size)),
            "resolvent_ratio": resolvent_ratio, "spectrum_ratio": spectrum_ratio,
            "ok": resolvent_ratio <= 1.0 and spectrum_ratio <= 1.0}
