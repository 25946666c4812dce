"""melroot: argument-principle root counting for functions expressed as
Mellin transforms of simpler functions."""

from .contour import (
    CircularContour,
    CountResult,
    FactoredFunction,
    PipelineConfig,
    count_direct,
    count_pipeline,
    integrand_direct,
    integrand_stage1,
    integrand_stage2,
    kernel_mellin,
)
from .errors import (
    DomainError,
    MelrootError,
    NonConvergenceError,
    PoleError,
)
from .expsum import PRESETS, ExpSumTable, error_grid, inv_approx
from .mellin import (
    MellinIntegrand,
    deriv_times_power,
    power_transform,
    transform,
)
from .numerics import csgn
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_periodic,
    integrate_semi_infinite,
)
from .zeta import (
    build_zeta_factored,
    z_integrand,
    zeta_reference,
)

__version__ = "0.1.0"
