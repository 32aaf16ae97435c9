"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one base type at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An RSU or solver configuration is invalid or inconsistent."""


class DataError(ReproError, ValueError):
    """A dataset or input array does not satisfy a required contract."""


class FaultError(ReproError, RuntimeError):
    """An injected or detected hardware fault surfaced to the caller."""


class UnrecoverableFaultError(FaultError):
    """The device cannot make progress: retries and spares are exhausted."""
