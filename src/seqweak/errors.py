"""Exception types shared across the package.  Each class carries the CLI
exit code it ends in (``exit_code``): 2 for bad input, 3 for a vanishing
post-selection.  `seqweak.cli.main` is the one place that turns an error
into its code."""


class SeqWeakError(Exception):
    """Base class for all package-specific errors; CLI exit code 2 unless a
    subclass sets its own ``exit_code``."""

    exit_code = 2


class InvalidInput(SeqWeakError, ValueError):
    """An argument outside the documented domain."""


class BadStage(InvalidInput):
    """A circuit matrix that fails its check: the evolution of stage
    ``site`` (1-based; n + 1 is the final evolution) is not unitary, or its
    observable (``observable``) is not Hermitian; ``deviation`` is the
    matrix's largest entry deviation."""

    def __init__(self, message: str, site: int, observable: bool, deviation: float):
        super().__init__(message)
        self.site = site
        self.observable = observable
        self.deviation = deviation


class DimMismatch(SeqWeakError):
    pass


class NotHermitian(SeqWeakError):
    pass


class DegeneratePostSelection(SeqWeakError):
    """Post-selection overlap or post-selected norm too close to zero."""

    exit_code = 3


class RatioUndefined(SeqWeakError):
    pass


class NonCommuting(SeqWeakError):
    pass


class BasisIncomplete(SeqWeakError):
    pass


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
