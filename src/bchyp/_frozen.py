"""The one immutability rule shared by the package's slotted value types."""


class Frozen:
    """Base of a slotted value type: its slots are filled once, in
    __init__ through _set, and never assigned again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)
