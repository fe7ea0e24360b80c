"""Upper-bound envelopes, their constant fits and empirical decay extractors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GammaSchedule, boundary_distance, holdout_within
from .errors import ConfigurationError, DomainError, ParameterError
from .spectral import HeatKernelEvaluator, SpectralDecomposition, grid_derivative

KERNEL_REGRESSION_FLOOR = 1e-300  # values below are excluded from log regressions
SHORT_TIME_EXCLUSION = 10.0  # multiples of the resolvable floor excluded from fits
SAMPLE_STRIDE = 4  # node stride of the (x, y) samples in envelope_sup_ratio
DRIFT_BUDGET = 0.10  # relative rise of c1 allowed on the refined mesh
BOUNDARY_FRACTION = 0.10  # share of the nodes in boundary_slope's window


@dataclass(frozen=True)
class BoundEnvelope:
    """Parameters of the boundary-decaying Gaussian upper bound."""

    schedule: GammaSchedule
    s: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0 or self.s <= 0:
            raise ParameterError("envelope constants c1, c2 and the gap s must be positive")


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


def envelope_eval(env: BoundEnvelope, t: float, x: float, y: float, d_x: float, d_y: float) -> float:
    """Evaluate the upper-bound envelope at (t, x, y).

    The prefactor carries 1/eps with eps = 1 - (N + 2 gamma)/(2m); the
    Gaussian factor uses |x-y|^{2m/(2m-1)} / t^{1/(2m-1)} and the long-time
    factor e^{-st}.
    """
    if t <= 0:
        raise DomainError(f"envelope time must be positive, got {t}")
    if d_x < 0 or d_y < 0:
        raise DomainError("boundary distances must be non-negative")
    sch = env.schedule
    m, N, gamma = sch.m, sch.N, sch.gamma
    power = (N + 2.0 * gamma) / (2.0 * m)
    decay = d_x**gamma * d_y**gamma if gamma > 0 else 1.0
    expo = -env.c2 * abs(x - y) ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1)) - env.s * t
    return env.c1 / sch.eps * t ** (-power) * decay * math.exp(expo)


@dataclass(frozen=True)
class OptimalTwist:
    value: float
    saturated: bool


def optimal_lambda(m: int, c2: float, s: float, r: float, t: float, length: float | None = None) -> OptimalTwist:
    """Twist strength minimizing the exponent: lambda^{2m-1} = r / (2m c2 (1+s)^{2m} t).

    Capped at 40/L when the domain length is supplied; saturation is flagged.
    """
    if r < 0 or t <= 0:
        raise DomainError(f"need r >= 0 and t > 0, got r={r}, t={t}")
    if r == 0:
        return OptimalTwist(0.0, False)
    lam = (r / (2.0 * m * c2 * (1.0 + s) ** (2 * m) * t)) ** (1.0 / (2 * m - 1))
    if length is not None and lam > 40.0 / length:
        return OptimalTwist(40.0 / length, True)
    return OptimalTwist(lam, False)


def _sample_indices(n: int, stride: int) -> np.ndarray:
    idx = np.arange(0, n, max(stride, 1))
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def envelope_ratios(env: BoundEnvelope, grid, idx: np.ndarray, t: float, K: np.ndarray) -> np.ndarray:
    """|K| / envelope(t, x_i, x_j) over the nodes idx, K the kernel block on them: 0 where
    K = 0, and in log space where only the envelope underflows (inf past the float range)."""
    sch = env.schedule
    m, gamma = sch.m, sch.gamma
    xi = grid.points[idx]
    di = np.minimum(xi, grid.length - xi)
    decay = np.outer(di**gamma, di**gamma) if gamma > 0 else 1.0
    power = (sch.N + 2.0 * gamma) / (2.0 * m)
    expo = (-env.c2 * np.abs(xi[:, None] - xi[None, :]) ** (2 * m / (2 * m - 1)) / t ** (1.0 / (2 * m - 1))
            - env.s * t)
    prefactor = (env.c1 / sch.eps) * t ** (-power) * decay
    envm = prefactor * np.exp(expo)
    absk = np.abs(K)
    ratios = np.divide(absk, envm, out=np.zeros_like(absk), where=envm > 0)
    lost = (envm == 0) & (absk > 0)
    if np.any(lost):
        log_env = np.log(prefactor) + expo
        with np.errstate(over="ignore"):
            ratios[lost] = np.exp(np.log(absk[lost]) - log_env[lost])
    return ratios


def envelope_sup_ratio(
    ev: HeatKernelEvaluator,
    schedule: GammaSchedule,
    c2: float,
    t_grid,
) -> tuple[float, tuple]:
    """sup over (t, x, y), every SAMPLE_STRIDE-th node, of envelope_ratios at c1 = 1;
    short-time slices within 10x of the resolvable floor are skipped."""
    idx = _sample_indices(ev.grid.n_interior, SAMPLE_STRIDE)
    xi = ev.grid.points[idx]
    env = BoundEnvelope(schedule=schedule, s=float(ev.decomposition.eigenvalues[0]), c1=1.0, c2=c2)
    worst, where = 0.0, None
    for t in np.atleast_1d(t_grid):
        t = float(t)
        if t < SHORT_TIME_EXCLUSION * ev.t_floor:
            continue
        ratios = envelope_ratios(env, ev.grid, idx, t, ev.block(t, idx))
        pos = int(np.argmax(ratios))
        r = float(ratios.flat[pos])
        if r > worst:
            worst = r
            i, j = np.unravel_index(pos, ratios.shape)
            where = (t, float(xi[i]), float(xi[j]))
    if where is None:
        raise ConfigurationError("no admissible t slices above the resolvable floor")
    return worst, where


def fit_envelope_constants(
    ev: HeatKernelEvaluator,
    schedule: GammaSchedule,
    c2_grid,
    t_grid,
    refined: HeatKernelEvaluator | None = None,
) -> FitResult:
    """Select (c1, c2) over a c2 grid, minimizing c1 * c2^{-(2m-1)N/(2m)}.

    For each candidate c2 the smallest admissible c1 is the sup ratio against
    the unit-constant envelope. When a refined evaluator is given, the chosen
    pair is re-checked there and the relative drift recorded; the fit passes
    only if c1 rises there by at most DRIFT_BUDGET.
    """
    m, N = schedule.m, schedule.N
    best = None
    for c2 in np.atleast_1d(c2_grid):
        c1, where = envelope_sup_ratio(ev, schedule, float(c2), t_grid)
        score = c1 * float(c2) ** (-(2 * m - 1) * N / (2.0 * m))
        if best is None or score < best[0]:
            best = (score, c1, float(c2), where)
    _, c1, c2, where = best
    result = FitResult(constants={"c1": c1, "c2": c2}, worst_location=where)
    if refined is not None:
        c1_ref, _ = envelope_sup_ratio(refined, schedule, c2, t_grid)
        result.drift = abs(c1_ref - c1) / c1
        if c1_ref > c1 * (1.0 + DRIFT_BUDGET):
            result.failure = f"refined sup ratio {c1_ref} outside drift budget of c1={c1}"
    return result


def boundary_slope(ev: HeatKernelEvaluator, t: float, j: int) -> float:
    """Least-squares slope of log|k(t, x, y_j)| against log d_x over the first
    BOUNDARY_FRACTION of the nodes (at least 3)."""
    grid = ev.grid
    n = grid.n_interior
    count = max(int(n * BOUNDARY_FRACTION), 3)
    K = ev.matrix(t)
    vals = np.abs(K[:count, j])
    d = grid.points[:count]
    keep = vals > KERNEL_REGRESSION_FLOOR
    if np.count_nonzero(keep) < 2:
        raise ConfigurationError("kernel underflows everywhere in the boundary window")
    slope, _ = np.polyfit(np.log(d[keep]), np.log(vals[keep]), 1)
    return float(slope)


def longtime_rate(ev: HeatKernelEvaluator, t_grid) -> float:
    """Slope of -log sup_{x,y} |k(t,x,y)| over the asymptotic window.

    Raises ConfigurationError when fewer than two distinct t keep the sup
    above KERNEL_REGRESSION_FLOOR, since no line is determined.
    """
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    sups = np.array([np.max(np.abs(ev.matrix(float(t)))) for t in ts])
    keep = sups > KERNEL_REGRESSION_FLOOR
    if np.unique(ts[keep]).size < 2:
        raise ConfigurationError(
            f"sup|k| > {KERNEL_REGRESSION_FLOOR} at {np.count_nonzero(keep)} of {ts.size} t values"
            " where the rate needs two distinct t"
        )
    slope, _ = np.polyfit(ts[keep], -np.log(sups[keep]), 1)
    return float(slope)


def sobolev_pointwise_check(
    d: SpectralDecomposition,
    form,
    schedule: GammaSchedule,
    f_train: np.ndarray,
    f_holdout: np.ndarray,
    x_indices,
) -> FitResult:
    """Fit the smallest C in |f^(n)(x)| <= (C/sqrt(eps)) d_x^kappa Q(f)^{(1-eps)/2} ||f||^eps.

    n and kappa are the integer and fractional parts of gamma. Trains and
    validates on disjoint sample sets; a held-out violation fails the fit.
    Raises ConfigurationError when x_indices is empty: no C is measured there.
    """
    x_indices = [int(i) for i in x_indices]
    if not x_indices:
        raise ConfigurationError("no evaluation nodes for the pointwise Sobolev check")
    eps, kappa, order = schedule.eps, schedule.kappa, schedule.n
    grid = d.grid
    h = grid.h

    def sup_ratio(fs: np.ndarray) -> tuple[float, tuple | None]:
        worst, where = 0.0, None
        for fi, f in enumerate(np.atleast_2d(fs)):
            q_f = float(f @ (form.matrix @ f))
            norm = math.sqrt(h * float(np.dot(f, f)))
            if q_f <= 0 or norm == 0:
                continue
            rhs_f = (1.0 / math.sqrt(eps)) * q_f ** ((1.0 - eps) / 2.0) * norm**eps
            for i in x_indices:
                lhs = abs(grid_derivative(grid, f, order, i))
                d_x = boundary_distance(grid, float(grid.points[i]))
                rhs = rhs_f * d_x**kappa
                r = lhs / rhs
                if r > worst:
                    worst, where = r, (fi, i)
        return worst, where

    c_fit, where = sup_ratio(f_train)
    held, held_where = sup_ratio(f_holdout)
    failure = None if holdout_within(held, c_fit) else f"held-out ratio {held} at {held_where} exceeds C={c_fit}"
    return FitResult(constants={"C": c_fit}, worst_location=where, failure=failure)
