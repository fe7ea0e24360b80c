"""Domain, grid, read-only arrays, the round-off rule, decay schedules, held-out fitting and the g~ majorant."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

HOLDOUT_SLACK = 1e-9  # relative round-off allowed between a held-out sup and its fitted constant
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of interior points of the interval (0, L).

    Interior nodes are x_i = i*h for i = 1..n_interior with h = L/(n_interior+1);
    the endpoints 0 and L carry the Dirichlet condition and are not stored.
    """

    length: float
    n_interior: int

    def __post_init__(self):
        if not (0 < self.length < math.inf):  # also rejects nan
            raise DomainError(f"domain length must be positive and finite, got {self.length}")
        if self.n_interior < 1:
            raise DomainError(f"need at least one interior point, got {self.n_interior}")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.n_interior + 1) * self.h

    @property
    def boundary_distances(self) -> np.ndarray:
        """Distance min(x_i, L - x_i) from each node to the boundary {0, L}."""
        x = self.points
        return np.minimum(x, self.length - x)


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark a read-only in place and return it."""
    a.flags.writeable = False
    return a


def is_frozen(a: np.ndarray) -> bool:
    """True when numpy writes neither to a nor to any array it is a view of."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return True


def read_only(a: np.ndarray) -> np.ndarray:
    """a itself when is_frozen reports it read-only, else a read-only copy of it."""
    return a if is_frozen(a) else freeze(np.array(a))


def error_ratio(err, scale) -> float | np.ndarray:
    """The one round-off rule (Higham 2002, ch. 4): |a - b| / (eps S) for err = |a - b| and the pair's
    a-priori error scale S, a float, or entry by entry an array for arrays of them (one column norm each
    for vector routes). Two routes pass when it is at most 1, and never at nan; no difference reads 0,
    also against a zero scale, where nothing is divided."""
    if not isinstance(err, np.ndarray):
        return err / (EPS * scale) if err else 0.0
    with np.errstate(invalid="ignore"):  # an infinite pair reads nan, which fails
        return np.divide(err, EPS * scale, out=np.zeros_like(err, dtype=float), where=err != 0)


def holdout_within(held: float, fitted: float) -> bool:
    """Held-out rule of the fit-and-validate checks: held-out sup <= fitted constant * (1 + HOLDOUT_SLACK)."""
    return held <= fitted * (1.0 + HOLDOUT_SLACK)


@dataclass(frozen=True)
class HoldoutFit:
    """Fitted constant and held-out sup, each at its (sample, *table index), and the verdict."""

    fitted: float
    fitted_at: tuple | None  # Python ints; None where no ratio is positive
    held: float
    held_at: tuple | None
    passed: bool


def _sup_by_sample(ratios) -> tuple[float, tuple | None]:
    """Largest ratio over the per-sample tables, at least 0, and where it first occurs; NaN wins."""
    worst, where = 0.0, None
    for fi, r in enumerate(ratios):
        r = np.asarray(r, dtype=float)
        pos = int(np.argmax(r))  # the first NaN, if any
        if not r.flat[pos] <= worst:  # larger, or NaN
            worst, where = float(r.flat[pos]), (fi, *(int(k) for k in np.unravel_index(pos, r.shape)))
            if math.isnan(worst):
                break
    return worst, where


def fit_holdout(train, held) -> HoldoutFit:
    """Fit the sup of the training ratios, validate it by holdout_within against the held-out
    sup. Each argument yields one ratio table per sample: a generator holds one at a time."""
    fitted, fitted_at = _sup_by_sample(train)
    held_sup, held_at = _sup_by_sample(held)
    return HoldoutFit(fitted, fitted_at, held_sup, held_at, holdout_within(held_sup, fitted))


@dataclass(frozen=True)
class GammaSchedule:
    """Bookkeeping for the boundary-decay exponent gamma = m(1-eps) - N/2.

    gamma splits as n + kappa with n integer and 0 <= kappa < 1; the admissible
    range is 0 < eps <= 1 - N/(2m), equivalently 0 <= gamma < m - N/2.
    """

    m: int
    N: int
    eps: float
    gamma: float = field(init=False)
    n: int = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if 2 * self.m <= self.N:
            raise ParameterError(f"need 2m > N, got m={self.m}, N={self.N}")
        eps_max = 1.0 - self.N / (2.0 * self.m)
        if not (0.0 < self.eps <= eps_max):
            raise ParameterError(
                f"eps={self.eps} outside admissible interval (0, {eps_max}]"
            )
        gamma = self.m * (1.0 - self.eps) - self.N / 2.0
        # guard round-off at the gamma = 0 endpoint
        if -1e-15 < gamma < 0.0:
            gamma = 0.0
        n = int(math.floor(gamma))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kappa", gamma - n)


def schedule_from_gamma(m: int, N: int, gamma: float) -> GammaSchedule:
    """The schedule with boundary exponent gamma, eps = 1 - (N + 2 gamma)/(2m)."""
    return GammaSchedule(m=m, N=N, eps=1.0 - (N + 2.0 * gamma) / (2.0 * m))


def gtilde(s: float, t):
    """Majorant g~(t) of sup_{mu >= s} mu e^{-2 mu t} at gap s:
    s e^{-2st} for t > 1/s, (1/t) e^{-st-1} for t <= 1/s."""
    if not (0 < s < math.inf):  # also rejects nan
        raise DomainError(f"spectral gap must be positive and finite, got {s}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0):  # also rejects nan
        raise DomainError("gtilde requires t > 0")
    out = np.where(t_arr > 1.0 / s,
                   s * np.exp(-2.0 * s * t_arr),
                   np.exp(-s * t_arr - 1.0) / t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out
