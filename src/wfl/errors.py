"""Exception hierarchy for the wfl package.

Every error raised on purpose by this package derives from :class:`WflError`,
so callers can catch one type at an API boundary.  Configuration problems
(bad input files, out-of-range parameters) are kept distinct from runtime
solver failures because the command line tool maps them to different exit
codes.
"""


class WflError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WflError):
    """Invalid configuration: bad file, bad schema, or out-of-range value."""


class InvalidScaleError(ConfigError):
    """A length scale that must be positive was zero or negative."""


class DegenerateProfileError(ConfigError):
    """Surface profile whose slope never changes sign; no stick-slip physics."""


class InadmissibleSlopeFactorError(ConfigError):
    """Slope factor violates 1 + a * w'(p) > 0, so the contact map is not invertible."""


class InadmissibleModelError(ConfigError):
    """Bristle model fails an admissibility condition for the given profile."""


class GeometryError(ConfigError):
    """Bristle geometry is unphysical (rod shorter than stand-off, bad angles)."""


class ZeroTensionError(ConfigError):
    """Bristle carries no force at the flat contact, so friction degenerates."""


class ScaleValidityError(ConfigError):
    """Corrugation amplitude too large for the bristle geometry at this epsilon."""


class InvalidInitialStateError(ConfigError):
    """Initial state lies outside the admissible set of the evolution."""


class ParameterDomainError(ConfigError):
    """A parameter lies outside the mathematical domain of a formula."""


class SolverError(WflError):
    """Base class for runtime failures inside a solver."""


class InversionFailureError(SolverError):
    """Newton iteration for a monotone contact map failed to converge."""


class StiffnessFailureError(SolverError):
    """Adaptive integrator drove the step size below the resolvable minimum."""


class SweepError(SolverError):
    """A convergence sweep aborted at the scale it names; the solver error is its cause."""
