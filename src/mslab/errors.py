"""Exception family for the mslab package.

Every error raised by library code derives from MslabError, so the CLI can
map "bad input / violated precondition" uniformly to exit code 2.
"""


class MslabError(Exception):
    pass


class PreconditionError(MslabError):
    """An operation was called with inputs violating its stated precondition."""


# metric-core

class NonSquareError(MslabError):
    pass


class MetricFailureError(MslabError):
    """A constructed distance matrix failed validation.

    Carries the verdict (reason + witness indices) as `verdict`.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class LengthMismatchError(MslabError):
    pass


class SpaceMismatchError(MslabError):
    pass


class KatetovViolationError(MslabError):
    pass


class DuplicatePointError(MslabError):
    pass


class LambdaOutOfRangeError(PreconditionError):
    pass


class DenominatorMismatchError(PreconditionError):
    pass


# urysohn-lab

class PreconditionAError(PreconditionError):
    """Condition (a) fails: |d(x,z) - d(y,z)| >= delta for the carried z."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class PreconditionBError(PreconditionError):
    """Condition (b) fails: delta > d(x,z) + d(y,z) for the carried z."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class DiameterExceededError(PreconditionError):
    pass


class IndexClashError(PreconditionError):
    pass


class EmptyStateError(PreconditionError):
    pass


class UnsaturatedError(MslabError):
    """No existing point realizes the required profile; grow the approximant."""


class BudgetExceededError(MslabError):
    pass


# weak-uniformity

class EmptySubsetError(PreconditionError):
    pass


# banach-examples

class NotOnSphereError(PreconditionError):
    def __init__(self, message, squared_norm=None):
        super().__init__(message)
        self.squared_norm = squared_norm


class OverlappingSupportsError(PreconditionError):
    pass


# rado-model

class SelfLoopError(PreconditionError):
    pass


class UndeterminedMembershipError(MslabError):
    """Membership depends on coordinates outside the code's finite domain."""


class IncompatibleCodesError(PreconditionError):
    pass
