"""Univariate polynomials over the rationals, with exact real-root tools.

Supports the certification needs of the package: one content-normalized
signed remainder sequence of p and p', from which come the Sturm chain of
the square-free part, the count of real roots of odd multiplicity behind
global nonnegativity decisions, and bisection-based isolation of real
roots to a requested rational width.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ValidationError, exact_rational


class QPoly:
    """Immutable dense polynomial; coefficients ascending, none trailing."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction] = ()):
        cs = [exact_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def of(cls, *coeffs) -> "QPoly":
        """Polynomial from ascending coefficients: ``of(1, 0, 2)`` is 1 + 2t^2."""
        return cls(coeffs)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = exact_rational(other)
            return QPoly([c * q for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValidationError("negative power")
        result = QPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPoly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree()
        if self.degree() < db:
            return QPoly(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * (self.degree() - db + 1)
        for k in range(self.degree() - db, -1, -1):
            c = rem[k + db] / lead
            quo[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[i + k] -= c * b
        return QPoly(quo), QPoly(rem[:db])

    def __call__(self, x) -> Fraction:
        x = exact_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content_normalized(self) -> "QPoly":
        """Scaled by the positive rational making the coefficients integer
        and coprime; the sign structure is untouched (safe inside Sturm
        chains, where only positive rescaling is allowed)."""
        if not self.coeffs:
            return self
        den = lcm(*(c.denominator for c in self.coeffs))
        nums = [int(c * den) for c in self.coeffs]
        g = gcd(*nums)
        return QPoly([Fraction(n, g) for n in nums])

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"


def _remainders(p: QPoly) -> list[QPoly]:
    """Signed remainder sequence p, p', -rem(p, p'), ... of a nonzero p.

    Each member is content normalized, a positive rescaling that leaves its
    signs alone.  The last member is gcd(p, p') up to a nonzero scalar; for
    a constant p it is p itself.  This is the package's one polynomial
    remainder loop.
    """
    seq = [p.content_normalized()]
    if p.degree() > 0:
        seq.append(p.derivative().content_normalized())
        while r := divmod(seq[-2], seq[-1])[1]:
            seq.append((-r).content_normalized())
    return seq


def sturm_chain(p: QPoly) -> list[QPoly]:
    """Sturm chain of the square-free part of ``p``.

    The remainder sequence of p and p' divided, member by member, by its
    last member g = gcd(p, p'); nothing is divided when g is constant.  At
    a point x with g(x) != 0 every member is multiplied by the one nonzero
    number 1/g(x), so the sign variations there are those of the undivided
    sequence.  The division matters at the roots of g, the multiple roots
    of p: there every undivided member vanishes, while the divided chain
    starts with the square-free part p/g and ends with a nonzero constant,
    so its variation counts stay exact at every point.
    """
    seq = _remainders(p)
    g = seq[-1]
    if g.degree() <= 0:
        return seq
    return [divmod(q, g)[0].content_normalized() for q in seq]


def _variations_at(chain: Sequence[QPoly], x: Fraction | None, side: int = 1) -> int:
    """Sign variations of a Sturm chain at the rational ``x``, or, when x is
    None, at ``side`` * infinity, where each member has the sign of its
    leading term times side^degree."""
    if x is None:
        values = [q.leading() * side ** q.degree() for q in chain]
    else:
        values = [q(x) for q in chain]
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(
    p: QPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """Distinct real roots of ``p`` in the half-open interval ``(lo, hi]``.

    ``None`` bounds mean the corresponding infinity.
    """
    if p.is_zero():
        raise ValidationError("zero polynomial has every point as a root")
    chain = sturm_chain(p)
    return _variations_at(chain, lo, -1) - _variations_at(chain, hi)


def cauchy_root_bound(p: QPoly) -> Fraction:
    """All real roots lie in [-B, B] for the returned B."""
    if p.is_zero() or p.degree() == 0:
        return Fraction(1)
    lead = abs(p.leading())
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


# Bisection takes about log2(1/width) Sturm evaluations on ever longer
# rationals: hl-scan at width 10^-300 takes about 0.7 s, at 10^-1000 about
# 8 s, and at 10^-4000 about 300 s.
MIN_WIDTH = Fraction(1, 10**300)


def isolate_real_root(p: QPoly, width: Fraction) -> tuple[Fraction, Fraction]:
    """Interval of length < ``width`` around the smallest positive root.

    Bisects with Sturm counts until the bracket is narrower than ``width``
    and contains exactly one root of the square-free part.  Raises if no
    root lies above 0, or if ``width`` is below ``MIN_WIDTH``.
    """
    width = exact_rational(width)
    if width <= 0:
        raise ValidationError("isolation width must be positive")
    if width < MIN_WIDTH:
        raise ValidationError("isolation width must be at least 1/10^300")
    # One chain serves every count: the roots in (lo, hi] number
    # v(lo) - v(hi), and each bisection step evaluates the chain once.
    # Its head is the square-free part, which bounds the roots.
    chain = sturm_chain(p)
    lo, hi = Fraction(0), cauchy_root_bound(chain[0])  # the bound is at least 1
    v_lo, v_hi = _variations_at(chain, lo), _variations_at(chain, hi)
    if v_lo == v_hi:
        raise ValidationError("no real root above 0")
    while hi - lo >= width or v_lo - v_hi != 1:
        mid = (lo + hi) / 2
        v_mid = _variations_at(chain, mid)
        if v_lo - v_mid >= 1:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    return lo, hi


def nonneg_on_reals(p: QPoly) -> bool:
    """Exact decision of ``p(b) >= 0`` for every real ``b``.

    True iff the polynomial is identically zero, or has positive leading
    coefficient, even degree, and no real root of odd multiplicity.

    The roots of odd multiplicity are counted without factoring.  Put
    g_0 = p and g_{k+1} = gcd(g_k, g_k'), and let N(g) count the distinct
    real roots of g.  A real root of p of multiplicity m is a root of g_k
    exactly for k < m, so it adds 1 - 1 + 1 - ... (m terms) to
    N(g_0) - N(g_1) + N(g_2) - ..., which is 1 for odd m and 0 for even m.
    Each N(g_k) is the variation count at -infinity minus that at
    +infinity of the remainder sequence of g_k, whose last member is
    g_{k+1}; no infinity is a root, so the sequence needs no division.
    """
    if p.is_zero():
        return True
    if p.degree() % 2 == 1 or p.leading() < 0:
        return False
    odd, sign = 0, 1
    while p.degree() > 0:
        seq = _remainders(p)
        odd += sign * (_variations_at(seq, None, -1) - _variations_at(seq, None))
        p, sign = seq[-1], -sign
    return odd == 0
