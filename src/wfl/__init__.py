"""wfl: friction from wiggly elastic bristles.

Tools for computing dry-friction coefficients generated by microscale
surface corrugation acting on elastic bristle contacts, for solving the
associated quasistatic (rate-independent) and viscous evolutions, and for
checking trajectories against energy-dissipation certificates.
"""

from .convergence import SweepReport, run_sweep
from .errors import ConfigError, SolverError, WflError
from .limit_solver import (
    LimitSystem,
    LoadingProgram,
    Ramp,
    SinusoidLoading,
    SmoothedPiecewiseLinear,
    Trajectory,
    default_grid,
    elastic_strip,
    solve_limit,
    time_grid,
)
from .models import (
    AdmissibilityCondition,
    AngularBristle,
    BristleModel,
    FrictionCoefficients,
    SlantedBristle,
    VerticalBristle,
    axial_tension,
    coefficients,
    epsilon_limit,
    invert_contact_map,
    mu_from_omega,
    nap_coefficients,
    perceived_extrema,
    perceived_profile,
    wiggly_energy,
    wiggly_force,
)
from .profiles import (
    DerivativeExtrema,
    FourierTerm,
    SurfaceProfile,
    derivative_extrema,
    eval_profile,
)
from .variational import (
    CertificateReport,
    ElasticInterval,
    LimitWithK,
    ViscousQuadratic,
    de_giorgi_certificate,
    k_of_xi,
    limit_density,
)
from .viscous_solver import (
    IntegratorConfig,
    ViscousTrajectory,
    WigglySystem,
    energy_balance_residual,
    integrate,
)

__version__ = "0.1.0"
