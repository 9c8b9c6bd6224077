"""Exception hierarchy shared by all modules."""


class ElasticLensError(Exception):
    """Base class for all package errors."""


class DomainError(ElasticLensError):
    """A point was queried outside the region a model is defined on."""


class ModelError(ElasticLensError):
    """A model is structurally invalid (non-positive speed, bad node, ...)."""


class PreconditionError(ElasticLensError):
    """An operation was called with inputs violating its contract."""


class ConfigurationError(ElasticLensError):
    """A run configuration is inconsistent (CFL violation, bad receiver, ...)."""


class ResourceError(ElasticLensError):
    """A hard resource cap was exceeded (a ray's step count, a run's bytes)."""


class NumericalError(ElasticLensError):
    """A numerical procedure failed to produce a usable result."""


class FoliationError(ElasticLensError):
    """A foliation check failed or the foliation is degenerate (message only)."""


class ExtractionError(ElasticLensError):
    """Arrival extraction failed in a way the caller must handle."""


class InversionError(ElasticLensError):
    """An inversion could not be completed."""


class IllPosedInputError(InversionError):
    """Input violates the monotonicity the inversion formula requires.

    ``violation`` holds the first offending sample pair when known.
    """

    def __init__(self, message, violation=None, depth_band=None):
        super().__init__(message)
        self.violation = violation
        self.depth_band = depth_band


class DataInconsistencyError(InversionError):
    """Recovered profiles contradict a structural constraint (c_p <= c_s)."""
