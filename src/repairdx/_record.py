"""The base of the package's mutable records with slotted fields."""


class SlottedRecord:
    """Field-by-field equality and a ``Name(field=value, ...)`` repr, both
    over ``__slots__``. A record is mutable, so it is unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"
