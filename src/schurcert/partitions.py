"""Partitions: weakly decreasing integer sequences indexing Schur classes."""

from __future__ import annotations

from typing import Iterable

from .errors import ValidationError


class Partition:
    """A weakly decreasing sequence of nonnegative integers.

    Trailing zeros are stripped on construction, so two partitions compare
    equal exactly when their nonzero parts agree.  Instances are immutable
    and hashable.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        ps = tuple(parts)
        if not all(isinstance(p, int) for p in ps):
            raise ValidationError(f"partition parts must be integers: {ps}")
        if any(p < 0 for p in ps):
            raise ValidationError(f"partition parts must be nonnegative: {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValidationError(f"partition parts must be weakly decreasing: {ps}")
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def format(self) -> str:
        """Serialize as comma-separated parts; the empty partition is ``"0"``."""
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p > i) for i in range(self.parts[0]))
        )

    def require_rank(self, rank: int) -> None:
        """Check the validity condition ``max part <= rank``."""
        if self.max_part > rank:
            raise ValidationError(
                f"partition {self.format()} invalid for rank {rank}: "
                f"largest part {self.max_part} exceeds the rank"
            )

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)!r})"

