"""Polynomials in abstract Chern generators, with twist variables.

A :class:`ChernPoly` is a homogeneous polynomial with rational coefficients
in generators ``c_1, ..., c_e`` (``c_0 = 1``; ``c_k = 0`` outside
``0 <= k <= e``), where ``c_k`` carries grade ``k``.  The generator set may
be extended by formal degree-1 twist variables; a polynomial with one twist
variable plays the role the twisted-bundle classes play in the geometry:
setting the twist variable to zero recovers the untwisted polynomial.

Everything is exact: coefficients are ``fractions.Fraction`` and no
floating point appears anywhere.  Determinants are expanded over the
polynomial ring itself (memoized Laplace expansion), which is entirely
adequate at the intended sizes (weights up to ~8).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ValidationError
from .partitions import Partition

# A monomial is a pair (cs, extras): `cs` is the sorted tuple of generator
# indices (c_1*c_1*c_2 -> (1, 1, 2)), `extras` the exponent tuple of the
# twist variables.  Its grade is sum(cs) + sum(extras).
Monomial = tuple[tuple[int, ...], tuple[int, ...]]

# Display names for twist variables, in slot order.
EXTRA_NAMES = ("d", "u", "v", "w")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"expected an exact rational, got {type(x).__name__}")


class ChernPoly:
    """Homogeneous polynomial in Chern generators and twist variables."""

    __slots__ = ("rank", "nextra", "terms")

    def __init__(self, rank: int, terms: Mapping[Monomial, Fraction], nextra: int = 0):
        if rank < 1:
            raise ValidationError(f"rank must be positive, got {rank}")
        if nextra < 0 or nextra > len(EXTRA_NAMES):
            raise ValidationError(f"unsupported number of twist variables: {nextra}")
        clean: dict[Monomial, Fraction] = {}
        grade = None
        for (cs, extras), coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(extras) != nextra:
                raise ValidationError("twist exponent tuple has wrong arity")
            if any(k < 1 or k > rank for k in cs):
                raise ValidationError(f"generator index out of range 1..{rank}: {cs}")
            if tuple(sorted(cs)) != cs:
                raise ValidationError(f"generator indices must be sorted: {cs}")
            if any(x < 0 for x in extras):
                raise ValidationError("negative twist exponent")
            g = sum(cs) + sum(extras)
            if grade is None:
                grade = g
            elif g != grade:
                raise ValidationError(
                    f"inhomogeneous terms (grades {grade} and {g}); "
                    "track formal sums per grade instead"
                )
            clean[(cs, extras)] = coeff
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "nextra", nextra)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ChernPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int, nextra: int = 0) -> "ChernPoly":
        return cls(rank, {}, nextra)

    @classmethod
    def const(cls, rank: int, value, nextra: int = 0) -> "ChernPoly":
        value = _as_fraction(value)
        if value == 0:
            return cls.zero(rank, nextra)
        return cls(rank, {((), (0,) * nextra): value}, nextra)

    @classmethod
    def one(cls, rank: int, nextra: int = 0) -> "ChernPoly":
        return cls.const(rank, 1, nextra)

    @classmethod
    def generator(cls, rank: int, k: int, nextra: int = 0) -> "ChernPoly":
        """The class ``c_k``, normalized: 1 for k = 0, 0 outside 0..rank."""
        if k == 0:
            return cls.one(rank, nextra)
        if k < 0 or k > rank:
            return cls.zero(rank, nextra)
        return cls(rank, {((k,), (0,) * nextra): Fraction(1)}, nextra)

    @classmethod
    def twist_var(cls, rank: int, slot: int = 0, nextra: int = 1) -> "ChernPoly":
        """The degree-1 twist variable living in the given slot."""
        if not 0 <= slot < nextra:
            raise ValidationError(f"twist slot {slot} out of range for nextra={nextra}")
        extras = tuple(1 if i == slot else 0 for i in range(nextra))
        return cls(rank, {((), extras): Fraction(1)}, nextra)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def grade(self) -> int | None:
        """Common grade of all terms; None for the zero polynomial."""
        for (cs, extras) in self.terms:
            return sum(cs) + sum(extras)
        return None

    def coefficient(self, cs: Sequence[int], extras: Sequence[int] = ()) -> Fraction:
        key = (tuple(sorted(cs)), tuple(extras) if self.nextra else ())
        return self.terms.get(key, Fraction(0))

    # -- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "ChernPoly") -> None:
        if self.rank != other.rank or self.nextra != other.nextra:
            raise ValidationError("polynomials live in different algebras")

    def __add__(self, other: "ChernPoly") -> "ChernPoly":
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check_compatible(other)
        if self.terms and other.terms and self.grade != other.grade:
            raise ValidationError(
                f"cannot add grades {self.grade} and {other.grade}"
            )
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, Fraction(0)) + coeff
        return ChernPoly(self.rank, merged, self.nextra)

    def __neg__(self) -> "ChernPoly":
        return ChernPoly(
            self.rank, {k: -c for k, c in self.terms.items()}, self.nextra
        )

    def __sub__(self, other: "ChernPoly") -> "ChernPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                return ChernPoly.zero(self.rank, self.nextra)
            return ChernPoly(
                self.rank, {k: c * q for k, c in self.terms.items()}, self.nextra
            )
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Monomial, Fraction] = {}
        for (cs1, ex1), q1 in self.terms.items():
            for (cs2, ex2), q2 in other.terms.items():
                cs = tuple(sorted(cs1 + cs2))
                ex = tuple(a + b for a, b in zip(ex1, ex2))
                key = (cs, ex)
                out[key] = out.get(key, Fraction(0)) + q1 * q2
        return ChernPoly(self.rank, out, self.nextra)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChernPoly":
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = ChernPoly.one(self.rank, self.nextra)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ChernPoly)
            and self.rank == other.rank
            and self.nextra == other.nextra
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; polynomials are not hashable

    # -- twist-variable plumbing ---------------------------------------

    def twist_coefficient(self, power: int, slot: int = 0) -> "ChernPoly":
        """Coefficient of (twist variable in `slot`)**power, dropping that slot."""
        if not 0 <= slot < self.nextra:
            raise ValidationError(f"twist slot {slot} out of range")
        out: dict[Monomial, Fraction] = {}
        for (cs, extras), coeff in self.terms.items():
            if extras[slot] != power:
                continue
            rest = extras[:slot] + extras[slot + 1 :]
            out[(cs, rest)] = coeff
        return ChernPoly(self.rank, out, self.nextra - 1)

    def promote(self, nextra: int, slots: Sequence[int] | None = None) -> "ChernPoly":
        """Reinterpret in an algebra with ``nextra`` twist variables.

        ``slots[i]`` is the destination of the current i-th twist variable;
        by default existing variables keep their positions.
        """
        if slots is None:
            slots = tuple(range(self.nextra))
        if len(slots) != self.nextra or len(set(slots)) != len(slots):
            raise ValidationError("bad slot assignment")
        if any(s < 0 or s >= nextra for s in slots):
            raise ValidationError("slot out of range")
        out: dict[Monomial, Fraction] = {}
        for (cs, extras), coeff in self.terms.items():
            new = [0] * nextra
            for i, e in enumerate(extras):
                new[slots[i]] = e
            out[(cs, tuple(new))] = coeff
        return ChernPoly(self.rank, out, nextra)

    # -- pretty printing ------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"ChernPoly(rank={self.rank}, {format_poly(self)!r})"


def _monomial_sort_key(key: Monomial):
    cs, extras = key
    return (sum(extras), cs, extras)


def _format_monomial(key: Monomial) -> str:
    cs, extras = key
    factors: list[str] = []
    i = 0
    while i < len(cs):
        j = i
        while j < len(cs) and cs[j] == cs[i]:
            j += 1
        power = j - i
        factors.append(f"c{cs[i]}" if power == 1 else f"c{cs[i]}^{power}")
        i = j
    for slot, power in enumerate(extras):
        if power == 1:
            factors.append(EXTRA_NAMES[slot])
        elif power > 1:
            factors.append(f"{EXTRA_NAMES[slot]}^{power}")
    return "*".join(factors)


def format_poly(poly: ChernPoly) -> str:
    """Deterministic rendering, e.g. ``c1*c2 - c3`` or ``c1 + 3*d``.

    Terms are ordered by total twist degree, then lexicographically on the
    generator-index tuple; within a term the coefficient precedes the
    monomial (unit coefficients are omitted).
    """
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    for key in sorted(poly.terms, key=_monomial_sort_key):
        coeff = poly.terms[key]
        mono = _format_monomial(key)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# -- determinants over a commutative ring ------------------------------


def det_in_ring(matrix: Sequence[Sequence], one):
    """Determinant via Laplace expansion memoized over column subsets.

    Entries may be any commutative ring elements supporting ``+``, ``-``,
    ``*`` and truthiness (falsy = zero); ``one`` is the ring unit, used for
    the empty product.  The i-th row is expanded against every surviving
    column subset of size n-i, so the memo key is the subset alone.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("determinant needs a square matrix")
    if n == 0:
        return one
    zero = one * 0
    memo: dict[int, object] = {}

    def minor(i: int, mask: int):
        if i == n:
            return one
        if mask in memo:
            return memo[mask]
        acc = zero
        sign = 1
        m = mask
        while m:
            low = m & -m
            j = low.bit_length() - 1
            entry = matrix[i][j]
            if entry:
                term = entry * minor(i + 1, mask ^ low)
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            m ^= low
        memo[mask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def elementary_symmetric(xs: Sequence, one) -> list:
    """``[e_0, ..., e_n]`` of ring elements ``xs`` by ``e_j += e_(j-1) * x``.

    Works in any commutative ring; ``one`` is ``e_0``.  ``e_1`` starts at the
    first element, so no product with ``one`` is formed.
    """
    es = [one]
    for k, x in enumerate(xs, start=1):
        es.append(es[-1] * x if k > 1 else x)
        for j in range(k - 1, 1, -1):
            es[j] = es[j] + es[j - 1] * x
        if k > 1:
            es[1] = es[1] + x
    return es


def evaluate(poly: "ChernPoly", images, one, twist_images: Sequence = ()):
    """Value of ``poly`` with ``c_k -> images[k]`` in any commutative ring.

    ``one`` is the ring unit, used only for a constant term; twist variable
    ``s`` goes to ``twist_images[s]``.  The zero polynomial has no grade to
    take a value in and is rejected.
    """
    if len(twist_images) != poly.nextra:
        raise ValidationError("one image required per twist variable")
    total = None
    for (cs, extras), coeff in poly.terms.items():
        factors = [images[k] for k in cs]
        for slot, power in enumerate(extras):
            factors += [twist_images[slot]] * power
        term = factors[0] if factors else one
        if coeff != 1:
            term = term * coeff
        for factor in factors[1:]:
            term = term * factor
        total = term if total is None else total + term
    if total is None:
        raise ValidationError("cannot infer the grade of the zero polynomial here")
    return total


# -- the Schur machinery ------------------------------------------------


def chern_of_twist(p: int, rank: int) -> ChernPoly:
    """Degree-p Chern class of a bundle twisted by one formal degree-1 class.

    Returns ``sum_k binom(rank-k, p-k) c_k d^(p-k)`` in the algebra with a
    single twist variable ``d``; equivalently, the p-th elementary symmetric
    polynomial of the shifted roots ``x_i + d``.
    """
    if p < 0 or p > rank:
        raise ValidationError(f"twisted Chern degree {p} out of range 0..{rank}")
    terms: dict[Monomial, Fraction] = {}
    for k in range(0, p + 1):
        coeff = Fraction(math.comb(rank - k, p - k))
        if coeff == 0:
            continue
        cs = (k,) if k >= 1 else ()
        terms[(cs, (p - k,))] = coeff
    return ChernPoly(rank, terms, nextra=1)


def _jt_entry(k: int, rank: int, twisted: bool) -> ChernPoly:
    nextra = 1 if twisted else 0
    if k == 0:
        return ChernPoly.one(rank, nextra)
    if k < 0 or k > rank:
        return ChernPoly.zero(rank, nextra)
    return chern_of_twist(k, rank) if twisted else ChernPoly.generator(rank, k)


def jacobi_trudi(parts: Sequence[int], rank: int, twisted: bool = False) -> ChernPoly:
    """The determinant ``det(c_{parts[i] + j - i})`` (indices 0-based).

    ``parts`` may carry explicit trailing zeros; the result is invariant
    under appending them (covered by tests).  With ``twisted=True`` every
    entry is replaced by its twisted counterpart.
    """
    n = len(parts)
    nextra = 1 if twisted else 0
    if n == 0:
        return ChernPoly.one(rank, nextra)
    rows = [
        [_jt_entry(parts[i] + j - i, rank, twisted) for j in range(n)]
        for i in range(n)
    ]
    return det_in_ring(rows, ChernPoly.one(rank, nextra))


# Determinant expansions repeat heavily across certification suites (the
# same (partition, rank) pair is queried for every derived order), so the
# canonical-shape results are cached.  ChernPoly values are immutable.
@functools.lru_cache(maxsize=4096)
def _jacobi_trudi_cached(parts: tuple[int, ...], rank: int, twisted: bool) -> ChernPoly:
    return jacobi_trudi(parts, rank, twisted)


def schur(lam: Partition, rank: int) -> ChernPoly:
    """Schur class ``det(c_{lam_i + j - i})`` as a grade-|lam| polynomial."""
    lam.require_rank(rank)
    return _jacobi_trudi_cached(lam.parts, rank, False)


def derived_schur(mu: Partition, rank: int, order: int) -> ChernPoly:
    """Coefficient of the order-th twist power in the twisted Schur class.

    Substitutes the twisted Chern classes into the Schur determinant,
    expands, and extracts the requested twist-variable coefficient; the
    result has grade ``|mu| - order``.
    """
    mu.require_rank(rank)
    if order < 0 or order > mu.weight:
        raise ValidationError(
            f"derived order {order} out of range 0..{mu.weight}"
        )
    twisted = _jacobi_trudi_cached(mu.parts, rank, True)
    return twisted.twist_coefficient(order)


def segre_derived(rank: int, order: int) -> ChernPoly:
    """Closed form for the derived classes of the all-ones partition.

    Equals ``binom(2*rank-1, 2*rank-1-order) * schur((1)^(rank-order))``;
    tests check it against the general derived-class computation.
    """
    if order < 0 or order > rank:
        raise ValidationError(f"order {order} out of range 0..{rank}")
    lam = Partition((1,) * (rank - order))
    coeff = Fraction(math.comb(2 * rank - 1, 2 * rank - 1 - order))
    return schur(lam, rank) * coeff
