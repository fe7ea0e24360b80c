"""Domain, grid, read-only array helpers, decay schedules, the held-out rule and the spectral-gap reference function."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError

HOLDOUT_SLACK = 1e-9  # relative round-off allowed between a held-out sup and its fitted constant


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of interior points of the interval (0, L).

    Interior nodes are x_i = i*h for i = 1..n_interior with h = L/(n_interior+1);
    the endpoints 0 and L carry the Dirichlet condition and are not stored.
    """

    length: float
    n_interior: int

    def __post_init__(self):
        if self.length <= 0:
            raise DomainError(f"domain length must be positive, got {self.length}")
        if self.n_interior < 1:
            raise DomainError(f"need at least one interior point, got {self.n_interior}")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.n_interior + 1) * self.h

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Discrete L2 inner product <u,v>_h = h * sum(u*v)."""
        return self.h * float(np.dot(np.conj(v), u).real) if np.iscomplexobj(u) or np.iscomplexobj(v) \
            else self.h * float(np.dot(u, v))

    def norm(self, u: np.ndarray) -> float:
        return math.sqrt(self.h * float(np.vdot(u, u).real))

    def index_of(self, x: float) -> int:
        """Index of the grid node nearest to x."""
        i = int(round(x / self.h)) - 1
        return min(max(i, 0), self.n_interior - 1)


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


def boundary_distance(grid: Grid1D, x: float) -> float:
    """Distance from x to the boundary {0, L}."""
    if x < 0 or x > grid.length:
        raise DomainError(f"x={x} outside [0, {grid.length}]")
    return min(x, grid.length - x)


def holdout_within(held: float, fitted: float) -> bool:
    """Held-out rule of the fit-and-validate checks: held-out sup <= fitted constant * (1 + HOLDOUT_SLACK)."""
    return held <= fitted * (1.0 + HOLDOUT_SLACK)


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


def gamma_from_epsilon(m: int, N: int, eps: float) -> GammaSchedule:
    """Build the (gamma, n, kappa) schedule from the order parameter and eps."""
    return GammaSchedule(m=m, N=N, eps=eps)


def epsilon_from_gamma(m: int, N: int, gamma: float) -> float:
    """Inverse map eps = 1 - (N + 2*gamma)/(2m); validated by GammaSchedule."""
    return 1.0 - (N + 2.0 * gamma) / (2.0 * m)


def schedule_from_gamma(m: int, N: int, gamma: float) -> GammaSchedule:
    return gamma_from_epsilon(m, N, epsilon_from_gamma(m, N, gamma))


@dataclass(frozen=True)
class GTildeFn:
    """Piecewise majorant of sup_{mu >= s} mu*exp(-2*mu*t)."""

    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise DomainError(f"spectral gap must be positive, got {self.s}")

    def __call__(self, t):
        return gtilde(self, t)


def gtilde(fn: GTildeFn, t):
    """Evaluate g~(t): s*e^{-2st} for t > 1/s, (1/t)*e^{-st-1} for t <= 1/s."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise DomainError("gtilde requires t > 0")
    s = fn.s
    out = np.where(t_arr > 1.0 / s,
                   s * np.exp(-2.0 * s * t_arr),
                   np.exp(-s * t_arr - 1.0) / t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def log_gtilde(fn: GTildeFn, t: float) -> float:
    """log g~(t) for scalar t > 0, finite where g~(t) underflows to 0."""
    s = fn.s
    return math.log(s) - 2.0 * s * t if t > 1.0 / s else -s * t - 1.0 - math.log(t)
