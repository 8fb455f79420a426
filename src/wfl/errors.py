"""The two kinds of error the wfl package raises on purpose.

A :class:`ConfigError` is an input that no run can use: a bad file or schema,
or a value outside its range (exit code 1 at the command line).  A
:class:`SolverError` is a run that failed on a valid input (exit code 2).
Both derive from :class:`WflError`, and every message names its cause.
"""


class WflError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WflError):
    """Invalid configuration: bad file, bad schema, or out-of-range value."""


class SolverError(WflError):
    """A solver failed on a valid configuration."""
