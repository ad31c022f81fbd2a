"""Result records and degree-indexed rank tables.

The calculators' reports are :class:`Record` dataclasses whose JSON form
is their fields, in order, so each report's shape is declared once.
:class:`BettiTable` holds ranks indexed by degree with an explicit
validity range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    """Dataclass mixin that serializes each field under its name, or under
    the key given as ``field(metadata={"json": key})``."""

    def to_json_obj(self) -> dict:
        return {f.metadata.get("json", f.name): _json_value(getattr(self, f.name))
                for f in fields(self)}


@dataclass
class BettiTable:
    """Ranks indexed by degree, valid strictly below ``valid_below``.

    ``valid_below=None`` means the table is complete: every degree may be
    queried and absent entries are genuine zeros.  Otherwise only degrees
    p < valid_below may be queried; anything else raises, because a rank
    outside the proven range is not a number anyone should compute with.
    """

    entries: dict[int, int]
    valid_below: Optional[int] = None
    setup: dict = field(default_factory=dict)
    assumptions: tuple[str, ...] = ()

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
