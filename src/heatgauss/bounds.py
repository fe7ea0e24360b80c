"""Upper-bound envelopes, their constant fits and empirical decay extractors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GammaSchedule, fit_holdout
from .errors import ConfigurationError, DomainError, ParameterError
from .spectral import EXP_UNDERFLOW_CAP, HeatKernelEvaluator, SpectralDecomposition

KERNEL_REGRESSION_FLOOR = 1e-300  # values below are excluded from log regressions
SHORT_TIME_EXCLUSION = 10.0  # multiples of the resolvable floor excluded from fits
SAMPLE_STRIDE = 4  # node stride of the (x, y) samples in envelope_sup_ratio
DRIFT_BUDGET = 0.10  # relative rise of c1 allowed on the refined mesh
BOUNDARY_FRACTION = 0.10  # share of the nodes in boundary_slope's window
TINY = np.finfo(float).tiny  # least normal float: an envelope below it divides in log space


@dataclass(frozen=True)
class BoundEnvelope:
    """Parameters of the boundary-decaying Gaussian upper bound."""

    schedule: GammaSchedule
    s: float
    c1: float
    c2: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.c1, self.c2, self.s)):  # also rejects nan
            raise ParameterError("envelope constants c1, c2 and the gap s must be positive and finite")


@dataclass
class FitResult:
    """Outcome of a fit-and-validate protocol."""

    constants: dict
    worst_location: tuple | None = None
    drift: float | None = None
    failure: str | None = None  # why the fit failed; None when it passed

    @property
    def passed(self) -> bool:
        return self.failure is None


def sample_indices(n: int, stride: int) -> np.ndarray:
    """Every stride-th of n node indices, and the last one."""
    idx = np.arange(0, n, max(stride, 1))
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def admissible_times(ev: HeatKernelEvaluator, t_grid) -> list[float]:
    """The t of t_grid the envelope is checked at: short times within SHORT_TIME_EXCLUSION of the
    resolvable floor are skipped."""
    return [float(t) for t in np.atleast_1d(t_grid) if t >= SHORT_TIME_EXCLUSION * ev.t_floor]


class EnvelopeTable:
    """Envelopes that differ only in c2, over the nodes idx of a grid:
    (c1/eps) t^{-p} (d_x d_y)^gamma exp(-c2 |x-y|^{2m/(2m-1)} / t^{1/(2m-1)} - s t), p = (N + 2 gamma)/(2m),
    with eps = 1 - p. The distance power and the boundary-decay product are built once, and each `at`
    builds the t factors once and every c2 as one (c2, i, j) array.
    """

    def __init__(self, envs: list[BoundEnvelope], grid, idx: np.ndarray):
        first = envs[0]
        if any((env.schedule, env.s, env.c1) != (first.schedule, first.s, first.c1) for env in envs):
            raise ParameterError("the envelopes of one table differ only in c2")
        m, gamma = first.schedule.m, first.schedule.gamma
        xi, di = grid.points[idx], grid.boundary_distances[idx]
        self.envs = envs
        self.neg_c2 = -np.array([env.c2 for env in envs])[:, None, None]
        self.power = (first.schedule.N + 2.0 * gamma) / (2.0 * m)
        self.dist_power = np.abs(xi[:, None] - xi[None, :]) ** (2 * m / (2 * m - 1))
        self.decay = np.outer(di**gamma, di**gamma) if gamma > 0 else 1.0

    def at(self, t: float, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(envelopes, |K| / envelopes) at t, both (c2, i, j) with one (i, j) table per envelope, K the
        kernel block on the nodes. The ratio is 0 where K = 0, taken in log space where only the
        envelope falls below the normal range (a subnormal envelope has lost digits, a flushed one
        all of them), and inf past the float range. Raises DomainError unless 0 < t < inf."""
        if not (0 < t < math.inf):  # also rejects nan
            raise DomainError(f"envelope time must be positive and finite, got {t}")
        first = self.envs[0]
        prefactor = (first.c1 / first.schedule.eps) * t ** (-self.power) * self.decay
        tq = t ** (1.0 / (2 * first.schedule.m - 1))
        expo = self.neg_c2 * self.dist_power / tq - first.s * t
        envelope = prefactor * np.exp(expo)
        absk = np.abs(K)
        small = envelope < TINY
        lost = small & (absk > 0)
        with np.errstate(over="ignore"):
            ratio = np.divide(absk, envelope, out=np.zeros(envelope.shape), where=~small)
            if np.any(lost):
                _, i, j = np.nonzero(lost)
                ratio[lost] = np.exp(np.log(absk[i, j]) - (np.log(prefactor) + expo)[lost])
        return envelope, ratio


def envelope_ratios(env: BoundEnvelope, grid, idx: np.ndarray, t: float, K: np.ndarray) -> np.ndarray:
    """|K| / envelope(t, x_i, x_j) over the nodes idx, K the kernel block on them, by EnvelopeTable's rule."""
    return EnvelopeTable([env], grid, idx).at(t, K)[1][0]


def _sup_ratios(ev: HeatKernelEvaluator, schedule: GammaSchedule, c2s: list[float],
                t_grid) -> list[tuple[float, tuple]]:
    """envelope_sup_ratio at each c2 of c2s from one envelope table, reading one kernel block per admissible t."""
    if not c2s:
        raise ConfigurationError("empty c2 grid: no envelope to fit")
    idx = sample_indices(ev.grid.n_interior, SAMPLE_STRIDE)
    xi = ev.grid.points[idx]
    s = ev.decomposition.gap
    table = EnvelopeTable([BoundEnvelope(schedule=schedule, s=s, c1=1.0, c2=c2) for c2 in c2s], ev.grid, idx)
    times = admissible_times(ev, t_grid)
    if not times:
        raise ConfigurationError("no admissible t slices above the resolvable floor")
    sups = np.zeros(len(c2s))
    best = np.full(len(c2s), -1)  # flat (t, i, j) index of each c2's sup; -1 while no ratio is positive
    for ti, t in enumerate(times):
        ratios = table.at(t, ev.block(t, idx, idx))[1].reshape(len(c2s), -1)
        r = ratios.max(axis=1)
        better = r > sups
        sups = np.where(better, r, sups)
        best = np.where(better, ti * ratios.shape[1] + np.argmax(ratios, axis=1), best)  # first maximum
    if np.any(best < 0):
        raise ConfigurationError(
            f"the kernel is exactly 0 on every admissible t slice: mu_1 t >= {s * min(times):.6g}"
            f" is past the underflow cap {EXP_UNDERFLOW_CAP} of its decay weights exp(-mu t)"
        )
    ti, i, j = np.unravel_index(best, (len(times), len(idx), len(idx)))
    return [(float(r), (times[a], float(xi[b]), float(xi[c]))) for r, a, b, c in zip(sups, ti, i, j)]


def envelope_sup_ratio(ev: HeatKernelEvaluator, schedule: GammaSchedule, c2: float, t_grid) -> tuple[float, tuple]:
    """sup over the admissible_times t and every SAMPLE_STRIDE-th node x, y of envelope_ratios at c1 = 1."""
    return _sup_ratios(ev, schedule, [c2], t_grid)[0]


def fit_envelope_constants(
    ev: HeatKernelEvaluator,
    schedule: GammaSchedule,
    c2_grid,
    t_grid,
    refined: HeatKernelEvaluator | None = None,
) -> FitResult:
    """Select (c1, c2) over a c2 grid, minimizing c1 * c2^{-(2m-1)N/(2m)}.

    For each candidate c2 the smallest admissible c1 is the sup ratio against
    the unit-constant envelope; every c2 reads the same kernel block per t.
    When a refined evaluator is given, the chosen pair is re-checked there on
    the t slices the fit read (the finer mesh admits shorter t, which the fit
    never saw) and the relative drift recorded; the fit passes only if c1
    rises there by at most DRIFT_BUDGET. Raises ConfigurationError when no c2
    of the grid gives a finite c1.
    """
    m, N = schedule.m, schedule.N
    c2s = [float(c2) for c2 in np.atleast_1d(c2_grid)]
    best = None
    for c2, (c1, where) in zip(c2s, _sup_ratios(ev, schedule, c2s, t_grid)):
        score = c1 * c2 ** (-(2 * m - 1) * N / (2.0 * m))
        if best is None or score < best[0]:
            best = (score, c1, c2, where)
    _, c1, c2, where = best
    if not math.isfinite(c1):
        raise ConfigurationError(f"no c2 in the c2 grid {c2s} gives a finite c1: every envelope underflows "
                                 "where the kernel does not")
    result = FitResult(constants={"c1": c1, "c2": c2}, worst_location=where)
    if refined is not None:
        c1_ref, _ = envelope_sup_ratio(refined, schedule, c2, admissible_times(ev, t_grid))
        result.drift = abs(c1_ref - c1) / c1
        if c1_ref > c1 * (1.0 + DRIFT_BUDGET):
            result.failure = f"refined sup ratio {c1_ref} outside drift budget of c1={c1}"
    return result


def boundary_slope(ev: HeatKernelEvaluator, t: float, j: int) -> float:
    """Least-squares slope of log|k(t, x, y_j)| against log d_x over the first
    BOUNDARY_FRACTION of the nodes (at least 3), reading that window of column j."""
    n = ev.grid.n_interior
    window = np.arange(min(max(int(n * BOUNDARY_FRACTION), 3), n))
    vals = np.abs(ev.block(t, window, [j])[:, 0])
    d = ev.grid.points[window]
    keep = vals > KERNEL_REGRESSION_FLOOR
    if np.count_nonzero(keep) < 2:
        raise ConfigurationError("kernel underflows everywhere in the boundary window")
    slope, _ = np.polyfit(np.log(d[keep]), np.log(vals[keep]), 1)
    return float(slope)


def longtime_rate(ev: HeatKernelEvaluator, t_grid) -> float:
    """Slope of -log sup_{x,y} |k(t,x,y)| over the asymptotic window.

    The kernel is positive semidefinite, so |k(t,x,y)| <= sqrt(k(t,x,x) k(t,y,y))
    and the sup is read off the diagonal (`ev.diagonal`). Raises
    ConfigurationError when fewer than two distinct t keep the sup above
    KERNEL_REGRESSION_FLOOR, since no line is determined.
    """
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    sups = np.array([np.max(ev.diagonal(float(t))) for t in ts])
    keep = sups > KERNEL_REGRESSION_FLOOR
    if np.unique(ts[keep]).size < 2:
        raise ConfigurationError(
            f"sup|k| > {KERNEL_REGRESSION_FLOOR} at {np.count_nonzero(keep)} of {ts.size} t values"
            " where the rate needs two distinct t"
        )
    slope, _ = np.polyfit(ts[keep], -np.log(sups[keep]), 1)
    return float(slope)


def centered_derivatives(grid, fs: np.ndarray, order: int, nodes) -> np.ndarray:
    """f_i, (f_{i+1} - f_{i-1}) / 2h or (f_{i-1} - 2 f_i + f_{i+1}) / h^2 for order 0, 1, 2, of every
    row of fs at every node. Raises DomainError at a node where the stencil leaves the grid."""
    if order not in (0, 1, 2):
        raise DomainError(f"derivative order {order} not supported (v1 caps m <= 3)")
    nodes, halo, last = np.asarray(nodes, dtype=int), min(order, 1), grid.n_interior - 1
    outside = nodes[(nodes < halo) | (nodes > last - halo)]
    if outside.size:
        raise DomainError(f"centered order-{order} difference needs nodes {halo}..{last - halo}, got {outside[0]}")
    if order == 0:
        return fs[:, nodes]
    left, right = fs[:, nodes - 1], fs[:, nodes + 1]
    if order == 1:
        return (0.5 * right - 0.5 * left) / grid.h
    return (left - 2.0 * fs[:, nodes] + right) / grid.h**2


def sobolev_pointwise_check(
    d: SpectralDecomposition,
    form,
    schedule: GammaSchedule,
    f_train: np.ndarray,
    f_holdout: np.ndarray,
    x_indices,
) -> FitResult:
    """Fit the smallest C in |f^(n)(x)| <= (C/sqrt(eps)) d_x^kappa Q(f)^{(1-eps)/2} ||f||^eps.

    n and kappa are the integer and fractional parts of gamma; f^(n) is the centered difference,
    DomainError at a node it does not fit. Trains and validates on disjoint sample sets; a held-out
    violation fails the fit. Raises ConfigurationError when x_indices is empty: no C is measured there.
    """
    x_indices = [int(i) for i in x_indices]
    if not x_indices:
        raise ConfigurationError("no evaluation nodes for the pointwise Sobolev check")
    eps, kappa, order = schedule.eps, schedule.kappa, schedule.n
    grid, h = d.grid, d.grid.h
    dist = grid.boundary_distances  # raised to kappa one by one: numpy's array pow can differ from libm's
    d_kappa = np.array([float(dist[i]) ** kappa for i in x_indices])

    def ratios(fs: np.ndarray) -> np.ndarray:
        rhs_f = []
        for f in fs:
            q_f = form(f)
            norm = math.sqrt(h * float(np.dot(f, f)))
            ok = q_f > 0 and norm != 0  # else ratio 0
            rhs_f.append((1.0 / math.sqrt(eps)) * q_f ** ((1.0 - eps) / 2.0) * norm**eps if ok else math.inf)
        lhs = np.abs(centered_derivatives(grid, fs, order, x_indices))
        return lhs / (np.array(rhs_f)[:, None] * d_kappa[None, :])

    def node(at):  # (sample, position in x_indices) -> (sample, node index)
        return None if at is None else (at[0], x_indices[at[1]])

    fit = fit_holdout(ratios(np.atleast_2d(f_train)), ratios(np.atleast_2d(f_holdout)))
    failure = None if fit.passed else f"held-out ratio {fit.held} at {node(fit.held_at)} exceeds C={fit.fitted}"
    return FitResult(constants={"C": fit.fitted}, worst_location=node(fit.fitted_at), failure=failure)
