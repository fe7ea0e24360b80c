"""Built-in reference operators used throughout the verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assembly import OperatorSpec, polyharmonic_spec
from .core import Grid1D
from .errors import ConfigurationError


@dataclass(frozen=True)
class Profile:
    """Named operator profile: domain length and coefficients, of order parameter spec.m."""

    name: str
    length: float
    spec: OperatorSpec

    @property
    def m(self) -> int:
        return self.spec.m

    def grid(self, n_interior: int) -> Grid1D:
        return Grid1D(length=self.length, n_interior=n_interior)


BUILTIN_PROFILES = {
    # the Dirichlet Laplacian on (0, pi): analytic spectrum k^2, gap 1
    "laplace-pi": Profile(name="laplace-pi", length=math.pi, spec=polyharmonic_spec(1)),
    # the clamped biharmonic beam on (0, 1): mu_1 = beta_1^4, cos(b)cosh(b) = 1
    "beam-1": Profile(name="beam-1", length=1.0, spec=polyharmonic_spec(2)),
}


def get_profile(name: str) -> Profile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown profile {name!r}; built-ins: {sorted(BUILTIN_PROFILES)}"
        ) from None
