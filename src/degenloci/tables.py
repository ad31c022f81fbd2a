"""Result records and degree-indexed rank tables.

The calculators' reports are :class:`Record` subclasses: plain classes
whose ``__slots__`` list their fields, in order, so each report's shape is
declared once and equality, repr and the JSON form all read it.  Values
that never change after construction are :class:`FrozenRecord` subclasses.
:class:`BettiTable` holds ranks indexed by degree with an explicit
validity range.
"""

from __future__ import annotations

from typing import Optional

from .errors import OutsideValidityError


def _json_value(value):
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    return value


class Record:
    """Base of every record class.

    A subclass lists its fields in ``__slots__`` and sets them in its
    ``__init__`` with :meth:`_set_fields`.  Equality (same class, equal
    fields), the repr ``Name(field=value, ...)`` and the JSON form (each
    field under its name, or under the key ``_json_names`` maps it to) all
    follow the slot order.  Records compare by value, so a mutable one is
    unhashable.
    """

    __slots__ = ()
    _json_names: dict[str, str] = {}

    def _set_fields(self, *values) -> None:
        """Set the fields, in slot order, to ``values``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def to_json_obj(self) -> dict:
        names = self._json_names
        return {names.get(name, name): _json_value(getattr(self, name))
                for name in self.__slots__}


class FrozenRecord(Record):
    """A record set once, in ``__init__``, and hashed by value; assigning to
    or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._values())


class BettiTable(Record):
    """Ranks indexed by degree, valid strictly below ``valid_below``.

    ``valid_below=None`` means the table is complete: every degree may be
    queried and absent entries are genuine zeros.  Otherwise only degrees
    p < valid_below may be queried; anything else raises, because a rank
    outside the proven range is not a number anyone should compute with.
    """

    __slots__ = ("entries", "valid_below", "setup", "assumptions")

    def __init__(self, entries: dict[int, int], valid_below: Optional[int] = None,
                 setup: Optional[dict] = None, assumptions: tuple[str, ...] = ()):
        self._set_fields(entries, valid_below, {} if setup is None else setup,
                         assumptions)

    def rank(self, degree: int) -> int:
        if degree < 0:
            raise OutsideValidityError(f"negative degree {degree}")
        if self.valid_below is not None and degree >= self.valid_below:
            raise OutsideValidityError(
                f"degree {degree} is outside the proven range (< {self.valid_below})")
        return self.entries.get(degree, 0)

    def rank_or_none(self, degree: int) -> Optional[int]:
        try:
            return self.rank(degree)
        except OutsideValidityError:
            return None

    def max_listed_degree(self) -> int:
        return max(self.entries, default=-1)

    def as_pairs(self) -> list[list[int]]:
        return [[p, self.entries[p]] for p in sorted(self.entries)]

    def to_json_obj(self) -> dict:
        return {
            "setup": self.setup,
            "valid_below": self.valid_below,
            "betti": self.as_pairs(),
            "assumptions": list(self.assumptions),
        }
