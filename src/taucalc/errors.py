"""The exceptions taucalc raises: one class per outcome that code tells
apart.

Every error is a `TaucalcError`, and `tau` reports each one as `error:
<message>` with exit 2.  A check raises `TaucalcError` itself unless some
code catches its outcome by type or reads a field it carries; only then
does it get a subclass.  There are three.
"""


class TaucalcError(Exception):
    """Bad input, or a run that cannot finish (exit 2)."""


class EmptyIntervalError(TaucalcError):
    """Interval meet produced an empty set (lo > hi); `deduce` turns it
    into an InconsistentError or a BrokenStepError."""


class InconsistentError(TaucalcError):
    """Propagation derived an empty interval (exit 3); carries the
    certificate prefix."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BrokenStepError(TaucalcError):
    """Certificate replay found a step whose conclusion does not follow;
    carries the step's index."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index
