"""Exception hierarchy shared by all embinvert modules."""


class EmbinvertError(Exception):
    """Base class for all framework errors."""


class DimensionMismatch(EmbinvertError):
    pass


class ZeroNormEmbedding(EmbinvertError):
    pass


class ShapeMismatch(EmbinvertError):
    pass


class DegenerateSample(EmbinvertError):
    """Sample variance is zero; moment transforms are undefined."""


class SampleTooSmall(EmbinvertError):
    """Sample below the validity range of the requested transform."""


class GradientUnavailable(EmbinvertError):
    """Gradient requested from a handle or session that cannot provide one."""


class NonFiniteLoss(EmbinvertError):
    """Objective evaluated to NaN/inf; carries the per-iteration trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ConfigInvalid(EmbinvertError):
    pass


class PoolExhausted(EmbinvertError):
    """Candidate cap reached before the requested pool volume was accepted."""


class IoFailure(EmbinvertError):
    pass


class FormatVersionMismatch(EmbinvertError):
    pass


class ChecksumMismatch(EmbinvertError):
    pass


class BudgetTooSmall(EmbinvertError):
    """Query budget does not cover the mandatory selection phase."""


class LedgerOverrun(EmbinvertError, RuntimeError):
    """A charge would take the query ledger past q_max (a bookkeeping bug)."""


class AllCandidatesFailed(EmbinvertError):
    """Every candidate refinement aborted with a non-finite objective."""


class EmptyCalibration(EmbinvertError):
    pass


class InsufficientImages(EmbinvertError):
    pass


class LengthMismatch(EmbinvertError):
    pass


class TargetLeak(EmbinvertError):
    """An alternate image in a Type II evaluation equals the target image."""


class UnknownModel(EmbinvertError):
    """Requested model id is not registered."""
