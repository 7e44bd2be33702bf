"""The base of the value types that check their fields on construction."""


class Validated:
    """Mixin for a named tuple whose `__new__` checks its fields.  The
    named tuple's own `_make`, which its `_replace` calls, builds the tuple
    directly and would skip those checks; here it calls the class."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)
