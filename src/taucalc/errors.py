"""Exception hierarchy shared by all taucalc modules."""


class TaucalcError(Exception):
    """Base class for all errors raised by taucalc."""


class BraidSyntaxError(TaucalcError):
    """Malformed braid word text."""


class LetterRangeError(TaucalcError):
    """Braid letter refers to a generator index outside 1..n-1."""


class NotAKnotError(TaucalcError):
    """Operation requires a single-component closure."""


class NotPositiveError(TaucalcError):
    """Operation requires a positive braid word (no negative letters)."""


class GridSyntaxError(TaucalcError):
    """Malformed grid diagram text."""


class NotPermutationError(TaucalcError):
    """Grid marker columns do not form a permutation."""


class MarkerCollisionError(TaucalcError):
    """X and O markers share a cell."""


class EmptyIntervalError(TaucalcError):
    """Interval meet produced an empty set (lo > hi)."""


class DuplicateIdError(TaucalcError):
    """Knot id already present in the fact base."""


class UnknownIdError(TaucalcError):
    """Knot id does not resolve in the fact base."""


class InconsistentError(TaucalcError):
    """Propagation derived an empty interval; carries the certificate prefix."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BudgetExceededError(TaucalcError):
    """Propagation exceeded the configured step budget."""


class BrokenStepError(TaucalcError):
    """Certificate replay found a step whose conclusion does not follow."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class CatalogError(TaucalcError):
    """Fact file or catalog entry failed validation."""
