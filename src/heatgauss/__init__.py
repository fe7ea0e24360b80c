"""Numerical laboratory for boundary-decaying Gaussian heat-kernel bounds.

Discretizes uniformly elliptic operators of order 2m (m <= 3) with Dirichlet
conditions on an interval, computes heat kernels spectrally, and verifies the
twisted-semigroup and envelope estimates by fit-and-validate sweeps.
"""

from .assembly import (
    FormMatrix,
    OperatorSpec,
    assemble_form,
    constant_coefficient,
    load_coefficients_csv,
    measure_ellipticity,
    polyharmonic_spec,
)
from .bounds import (
    BoundEnvelope,
    FitResult,
    boundary_slope,
    fit_envelope_constants,
    longtime_rate,
    sobolev_pointwise_check,
)
from .core import (
    GammaSchedule,
    Grid1D,
    gtilde,
    schedule_from_gamma,
)
from .errors import (
    ConditioningError,
    ConfigurationError,
    ConsistencyError,
    ContractError,
    DomainError,
    EllipticityError,
    HeatGaussError,
    NumericalError,
    ParameterError,
    PropertyViolation,
    ResolutionWarning,
    UnsupportedError,
)
from .inequalities import (
    SearchGrid,
    check_basic,
    check_bond,
    check_epsilon,
    check_main,
    check_stephen,
    gtilde_majorant,
    young_constant,
)
from .profiles import Profile, get_profile
from .spectral import (
    HeatKernelEvaluator,
    SpectralDecomposition,
    dirichlet_laplacian,
    evolved_form_bound_check,
    jacobi_eigh,
    kernel_eval,
)
from .twist import (
    TwistSpec,
    TwistedOperator,
    appendix_b_identities,
    evolved_twisted_form_check,
    numerical_range_sector,
    per_lambda,
    sector_samples,
    sector_shift_search,
    twisted_kernel,
    twisted_semigroup_norm_fit,
)

__version__ = "0.1.0"
