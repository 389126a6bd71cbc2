"""Polynomials in abstract Chern generators, and the Schur classes among them.

A :class:`ChernPoly` is a homogeneous polynomial with exact rational
coefficients in generators ``c_1, ..., c_e`` (``c_0 = 1``; ``c_k = 0``
outside ``0 <= k <= e``), where ``c_k`` carries grade ``k``.  Its terms
come only from its constructors and arithmetic, which keep them sorted, in
``1..e`` and of one grade, so no result is re-checked.  Jacobi-Trudi and
Lascoux polynomials have ``int`` coefficients: a ``Fraction`` enters only
through ``const`` or a scalar ``*``, which refuse all but int and Fraction.

With ``c_k = e_k(x)`` in the Chern roots ``x``, ``s_lam = det(c_{lam_i+j-i})``
is the Schur function ``S_lam'(x)`` of the conjugate (dual Jacobi-Trudi).
The derived class ``s_mu^(k)`` is the coefficient of ``d^k`` in
``s_mu(E (x) L)``, whose roots are ``x_i + d`` with ``d = c_1(L)``.
Lascoux's formula ("Classes de Chern d'un produit tensoriel", C. R. Acad.
Sci. Paris 286, 1978) for ``S_a(x + d)``, read with ``a = mu'`` and
``b = nu'`` over ``i, j = 1..e``, gives::

    s_mu(E (x) L) = sum_{nu ⊆ mu} det(C(a_i+e-i, b_j+e-j)) s_nu(E) d^(|mu|-|nu|)

Past row ``mu_1`` both conjugates vanish, so there an entry is 0 left of
the diagonal (``b_j + e - j >= e - mu_1 > e - i``) and 1 on it: the rows
and columns past ``mu_1`` form a unitriangular block and drop out.  The
determinants are nonnegative integers, so every derived class is a
nonnegative sum of Schur classes by construction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError, exact_rational
from .partitions import Partition

# A monomial is the sorted tuple of its generator indices
# (c_1*c_1*c_2 -> (1, 1, 2)); its grade is their sum.
Monomial = tuple[int, ...]


class ChernPoly:
    """Homogeneous polynomial in Chern generators, built only by ``zero``,
    ``one``, ``const``, ``generator`` and ``+``, ``-``, ``*``; ``+`` refuses
    operands of different ranks or grades."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Monomial, int | Fraction]):
        if rank < 1:
            raise ValidationError(f"rank must be positive, got {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", {cs: q for cs, q in terms.items() if q})

    def __setattr__(self, name, value):
        raise AttributeError("ChernPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "ChernPoly":
        return cls(rank, {})

    @classmethod
    def const(cls, rank: int, value: int | Fraction) -> "ChernPoly":
        exact_rational(value)
        return cls(rank, {(): value})

    @classmethod
    def one(cls, rank: int) -> "ChernPoly":
        return cls(rank, {(): 1})

    @classmethod
    def generator(cls, rank: int, k: int) -> "ChernPoly":
        """The class ``c_k``, normalized: 1 for k = 0, 0 outside 0..rank."""
        if k == 0:
            return cls.one(rank)
        if k < 0 or k > rank:
            return cls.zero(rank)
        return cls(rank, {(k,): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def grade(self) -> int | None:
        """Common grade of all terms; None for the zero polynomial."""
        for cs in self.terms:
            return sum(cs)
        return None

    # -- arithmetic -----------------------------------------------------

    def _check_compatible(self, other: "ChernPoly") -> None:
        if self.rank != other.rank:
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
            merged[key] = merged.get(key, 0) + coeff
        return ChernPoly(self.rank, merged)

    def __neg__(self) -> "ChernPoly":
        return ChernPoly(self.rank, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ChernPoly") -> "ChernPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ChernPoly(self.rank, {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, ChernPoly):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Monomial, int | Fraction] = {}
        for cs1, q1 in self.terms.items():
            for cs2, q2 in other.terms.items():
                key = tuple(sorted(cs1 + cs2))
                out[key] = out.get(key, 0) + q1 * q2
        return ChernPoly(self.rank, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, ChernPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; polynomials are not hashable

    # -- pretty printing ------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"ChernPoly(rank={self.rank}, {format_poly(self)!r})"


def _format_monomial(cs: Monomial) -> str:
    factors: list[str] = []
    i = 0
    while i < len(cs):
        j = i
        while j < len(cs) and cs[j] == cs[i]:
            j += 1
        power = j - i
        factors.append(f"c{cs[i]}" if power == 1 else f"c{cs[i]}^{power}")
        i = j
    return "*".join(factors)


def format_poly(poly: ChernPoly) -> str:
    """Deterministic rendering, e.g. ``c1*c2 - c3``.

    Terms are ordered lexicographically on the generator-index tuple; within
    a term the coefficient precedes the monomial (unit coefficients are
    omitted).
    """
    return format_terms(
        (_format_monomial(cs), poly.terms[cs]) for cs in sorted(poly.terms)
    )


def format_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Join ``(monomial, nonzero coefficient)`` pairs into a signed sum.

    The first term carries its own sign, later terms are joined with
    ``+ ``/``- ``, a unit coefficient is omitted (an empty monomial shows
    the bare magnitude) and the empty sum renders as ``0``.
    """
    pieces: list[str] = []
    for mono, coeff in terms:
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
    return " ".join(pieces) if pieces else "0"


# -- determinants over a commutative ring ------------------------------


def det_in_ring(matrix: Sequence[Sequence], one):
    """Determinant via Laplace expansion memoized over column subsets.

    Entries may be any commutative ring elements supporting ``+``, ``-``,
    ``*`` and truthiness (falsy = zero); ``one`` is the ring unit, used for
    the empty product.  The i-th row is expanded against every surviving
    column subset of size n-i, so the memo key is the subset alone.  A sum
    starts from its first term, so graded entries (forms, classes) are only
    added in their own grade: a minor without terms is ``None`` and drops
    out.  A determinant without terms is the diagonal product times 0: every
    term of a homogeneous determinant has the grade of that product.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("determinant needs a square matrix")
    if n == 0:
        return one
    memo: dict[int, object] = {}

    def minor(i: int, mask: int):
        if i == n:
            return one
        if mask in memo:
            return memo[mask]
        acc = None
        sign = 1
        m = mask
        while m:
            low = m & -m
            j = low.bit_length() - 1
            entry = matrix[i][j]
            if entry:
                sub = minor(i + 1, mask ^ low)
                if sub is not None:
                    term = entry * sub if sign > 0 else -(entry * sub)
                    acc = term if acc is None else acc + term
            sign = -sign
            m ^= low
        memo[mask] = acc
        return acc

    det = minor(0, (1 << n) - 1)
    if det is None:
        return math.prod((matrix[i][i] for i in range(n)), start=one) * 0
    return det


def elementary_symmetric(xs: Sequence, one, wanted: Iterable[int] | None = None) -> list:
    """``[e_0, ..., e_e]`` of the e ring elements ``xs`` by ``e_j += e_(j-1) * x``.

    Works in any commutative ring; ``one`` is ``e_0``.  ``wanted`` (default
    ``1..e``) names the e_n to return; every other entry is None.  The e_n
    of all e elements reads e_j of the first k only for n - (e - k) <= j <= n,
    so after k elements the recurrence forms e_j only when j is that close
    below some wanted n.  ``e_1`` starts at the first element, so no product
    with ``one`` is formed.
    """
    e = len(xs)
    wanted = set(range(1, e + 1) if wanted is None else wanted)
    # gap[j]: how far the nearest wanted n >= j lies above j (over e: none).
    gap = [e + 1] * (e + 2)
    for j in range(e, 0, -1):
        gap[j] = 0 if j in wanted else gap[j + 1] + 1
    es = [one] + [None] * e
    for k, x in enumerate(xs, start=1):
        for j in range(k, 0, -1):
            if gap[j] > e - k:
                continue
            if j == k:
                es[j] = es[j - 1] * x if j > 1 else x
            elif j > 1:
                es[j] = es[j] + es[j - 1] * x
            else:
                es[1] = es[1] + x
    return [c if j == 0 or j in wanted else None for j, c in enumerate(es)]


def evaluate(poly: "ChernPoly", images, one):
    """Value of ``poly`` with ``c_k -> images[k]`` in any commutative ring.

    ``one`` is the ring unit, used only for a constant term.  The zero
    polynomial has no grade to take a value in and is rejected.
    """
    total = None
    for cs, coeff in poly.terms.items():
        term = images[cs[0]] if cs else one
        if coeff != 1:
            term = term * coeff
        for k in cs[1:]:
            term = term * images[k]
        total = term if total is None else total + term
    if total is None:
        raise ValidationError("cannot infer the grade of the zero polynomial here")
    return total


# -- the Schur machinery ------------------------------------------------


def jacobi_trudi(parts: Sequence[int], rank: int) -> ChernPoly:
    """The determinant ``det(c_{parts[i] + j - i})`` (indices 0-based).

    ``parts`` may carry explicit trailing zeros; the result is invariant
    under appending them (covered by tests).
    """
    n = len(parts)
    rows = [
        [ChernPoly.generator(rank, parts[i] + j - i) for j in range(n)]
        for i in range(n)
    ]
    return det_in_ring(rows, ChernPoly.one(rank))


# A logconcave verdict asks for each (partition, rank) determinant at most
# once: its derived classes sum Schur classes of different weights.  Hits
# come from a pair that an earlier verdict in the same process asked for, or
# from ring-eval keys of one verdict that share a Schur class.  ChernPoly
# values are immutable.
@functools.lru_cache(maxsize=4096)
def _jacobi_trudi_cached(parts: tuple[int, ...], rank: int) -> ChernPoly:
    return jacobi_trudi(parts, rank)


# The Laplace expansion over ChernPoly grows with the number of rows:
# ``schur 1,...,1 --rank n`` takes about 0.4 s at n = 16, 1.8 s at n = 18,
# 4.4 s at n = 20 and over 300 s at n = 30.
MAX_PARTS = 16


def _require_schur_shape(lam: Partition, rank: int) -> None:
    """No part of ``lam`` above ``rank`` and at most ``MAX_PARTS`` parts."""
    lam.require_rank(rank)
    if len(lam.parts) > MAX_PARTS:
        raise ValidationError(
            f"partition {lam.format()} has {len(lam.parts)} parts; "
            f"Schur classes are supported up to {MAX_PARTS} parts"
        )


def schur(lam: Partition, rank: int) -> ChernPoly:
    """Schur class ``det(c_{lam_i + j - i})`` as a grade-|lam| polynomial."""
    _require_schur_shape(lam, rank)
    return _jacobi_trudi_cached(lam.parts, rank)


def _partitions_inside(parts: tuple[int, ...], weight: int, cap: int):
    """The partitions of ``weight`` with ``nu_i <= parts[i]`` and ``nu_1 <= cap``."""
    if weight == 0:
        yield ()
    elif parts:
        for first in range(min(parts[0], cap, weight), 0, -1):
            for rest in _partitions_inside(parts[1:], weight - first, first):
                yield (first,) + rest


# Within one verdict only a repeated ring-eval ``derived`` entry asks for the
# same (partition, rank, order) twice; other hits need the key from an
# earlier verdict in the same process.
@functools.lru_cache(maxsize=4096)
def _derived_schur_cached(parts: tuple[int, ...], rank: int, order: int) -> ChernPoly:
    width = parts[0] if parts else 0

    def shifted_conjugate(nu: tuple[int, ...]) -> list[int]:
        return [sum(1 for p in nu if p > i) + rank - 1 - i for i in range(width)]

    rows = shifted_conjugate(parts)
    total = ChernPoly.zero(rank)
    for nu in _partitions_inside(parts, sum(parts) - order, width):
        cols = shifted_conjugate(nu)
        coeff = det_in_ring([[math.comb(r, c) for c in cols] for r in rows], 1)
        if coeff:
            total = total + _jacobi_trudi_cached(nu, rank) * coeff
    return total


def _require_derived_shape(mu: Partition, rank: int, order: int) -> None:
    """No part of ``mu`` above ``rank``, ``order`` in ``0..|mu|``, and no
    partition of the Lascoux sum beyond :func:`_require_schur_shape`.

    The sum runs over the nu inside mu of weight w = |mu| - order.  The
    longest has min(len(mu), w) parts: mu itself when w >= len(mu), and 1^w
    otherwise.  Every nu lies inside mu, so no part of it exceeds the rank.
    """
    mu.require_rank(rank)
    if order < 0 or order > mu.weight:
        raise ValidationError(
            f"derived order {order} out of range 0..{mu.weight}"
        )
    weight = mu.weight - order
    if min(len(mu.parts), weight) > MAX_PARTS:
        _require_schur_shape(mu if weight >= len(mu.parts) else Partition((1,) * weight), rank)


def derived_schur(mu: Partition, rank: int, order: int) -> ChernPoly:
    """Coefficient of ``c_1(L)^order`` in ``s_mu(E (x) L)``.

    Lascoux's nonnegative sum of Schur classes (module docstring); the
    result has grade ``|mu| - order``.
    """
    _require_derived_shape(mu, rank, order)
    return _derived_schur_cached(mu.parts, rank, order)
