"""Exception types shared across the package."""


class SeqWeakError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(SeqWeakError, ValueError):
    """An argument outside the documented domain (CLI exit code 2)."""


class DimMismatch(SeqWeakError):
    pass


class NotHermitian(SeqWeakError):
    pass


class DegeneratePostSelection(SeqWeakError):
    """Post-selection overlap too close to zero for a weak value."""


class RatioUndefined(SeqWeakError):
    pass


class NonCommuting(SeqWeakError):
    pass


class BasisIncomplete(SeqWeakError):
    pass


class UnsupportedCombination(SeqWeakError):
    """No closed-form prediction exists for the requested moment."""


class AssumptionAViolated(SeqWeakError):
    """Pointer profile is not real with zero mean position."""


class GridTooCoarse(SeqWeakError):
    pass


class NumericallySingular(SeqWeakError):
    pass


class NotProjector(SeqWeakError):
    pass


class NoSuccessfulRuns(SeqWeakError):
    pass


class GridResolutionError(SeqWeakError):
    pass


class EquivalenceViolation(SeqWeakError):
    """Definition-1 and Definition-2 verdicts disagree (implementation bug)."""


class BothZero(SeqWeakError):
    pass
