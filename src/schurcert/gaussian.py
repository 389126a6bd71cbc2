"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError

_RAT = r"[+-]?\d+(?:/\d+)?"
_LITERAL = re.compile(rf"^\s*({_RAT})\s*(?:([+-]\s*\d+(?:/\d+)?)\s*i)?\s*$")


class GaussianRational:
    """A number a + b*i with a, b exact rationals; a field, exactly."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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
    def parse(cls, text: str) -> "GaussianRational":
        """Parse ``"3/2"``, ``"0+1i"``, ``"1-3/4i"`` (no floats accepted)."""
        m = _LITERAL.match(text)
        if not m:
            raise ValidationError(f"bad rational/Gaussian literal {text!r}")
        try:
            re_part = Fraction(m.group(1))
            im_part = Fraction(m.group(2).replace(" ", "")) if m.group(2) else Fraction(0)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in literal {text!r}")
        return cls(re_part, im_part)

    @classmethod
    def i(cls) -> "GaussianRational":
        return cls(0, 1)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

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
