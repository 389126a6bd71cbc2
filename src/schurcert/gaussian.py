"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError, exact_rational


class GaussianRational:
    """The value a + b*i with a, b exact rationals.

    It carries coefficients and matrix entries across the forms boundary;
    the forms kernel computes on integer numerators, so this class has no
    arithmetic of its own.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", exact_rational(re))
        object.__setattr__(self, "im", exact_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise ValidationError(f"cannot coerce {type(value).__name__} to a Gaussian rational")

    @classmethod
    def i(cls) -> "GaussianRational":
        return cls(0, 1)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except ValidationError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"
