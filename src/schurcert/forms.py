"""Exact (p,q)-form calculus on C^d and the Hodge-Riemann test on it.

Forms are sparse maps from pairs of index subsets (stored as bitmasks) to
Gaussian-rational coefficients, on C^d for d <= 8 (``MAX_DIM``; one
hr-check at d=8 takes about 0.2 s):

    Omega = sum c_{I,J} dz_I wedge dzbar_J,   I, J increasing.

A form keeps its coefficients as Gaussian-integer numerators over one
denominator (see :class:`PQForm`), so wedge products, sums, top integrals
and Gram entries are integer arithmetic.  ``GaussianRational`` is a value
with no arithmetic, and it appears only where forms meet caller data: the
coefficients and matrix entries that the constructors (``hermitian_form``
among them) and scalar multiplication take, and the values of
``coefficient``.  The tests recompute wedges, top integrals and Grams with
field arithmetic over Q(i) (``conftest.GaussianForm``) and compare.

Conventions, validated by tests before anything is built on them:

* conj(dz_I wedge dzbar_J) = (-1)^(pq) dz_J wedge dzbar_I, so a form is
  real iff conj(c_{I,J}) = (-1)^(pq) c_{J,I} coefficient-wise;
* the volume normalization is integral(prod_j i dz_j wedge dzbar_j) = 1,
  making integral(omega^d) = d! for the standard Kaehler form.  Positivity
  verdicts are invariant under any positive rescaling of the integral, so
  this choice is harmless.

A wedge product is pulled, not pushed: the coefficient of dz_U dzbar_V in
a wedge b is one signed sum over the ways of splitting U and V between the
two factors (:func:`wedge`), so no pair of terms is formed only to be
dropped for a shared index.  When both factors are real (p,p)-forms, so is
the product; only its keys with U <= V (as bitmasks) are summed, and the
reality rule above gives the others.

The Hodge-Riemann pairing is read off omega, not wedged; this lookup is the
only shortcut to a top coefficient (``wedge_top_coefficient`` wedges).  For a
(d-2,d-2)-form omega and 0-based indices j, k, l, m, the only term of omega
that survives in dz_j dzbar_k wedge omega wedge dz_l dzbar_m is the one at
I = [d] - {j, l}, J = [d] - {k, m}, so the product is 0 unless j != l and
k != m.  Otherwise, with c the coefficient of omega there:

* moving dz_I left past dzbar_k gives (-1)^(d-2), and moving dz_l left past
  dzbar_k dzbar_J gives (-1)^(d-1): together -1;
* sorting j|I|l takes (j - [l<j]) + (d-1-l) transpositions and sorting
  k|J|m takes (k - [m<k]) + (d-1-m); call their sum e;

so the top coefficient is -(-1)^e c, and the integral is that over the
volume unit i^(d^2).  The rule separates: e = f(j, l) + f(k, m) with
f(j, l) = (j - [l<j]) + (d-1-l), and the key is ([d] - {j, l}, [d] - {k, m}),
so a dz half and a dzbar half give it (:func:`_top_term`).  A basis form of
the canonical real basis has one or two elementary terms, so each Gram
entry reads at most four coefficients of omega.  Which ones, and with what
Gaussian-integer factor, depends on d alone: the plan of the dimension
(:func:`_gram_plan`) lists them once, and every Gram is that plan read on
omega's numerators.  integral(omega wedge ref^2) = integral(ref wedge omega
wedge ref), (1,1)-forms being even, is r^T G r on the same Gram for the
reference's coordinates r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

from .chernpoly import elementary_symmetric, evaluate, schur as schur_poly
from .errors import PreconditionError, ValidationError, exact_rational
from .gaussian import GaussianRational
from .inertia import HodgeRiemannVerdict, inertia_triple
from .partitions import Partition

Key = tuple[int, int]  # (I bitmask, J bitmask)
Pair = tuple[int, int]  # Gaussian integer re + im*i

# Largest accepted dimension.  Work grows about 4-5x per dimension: the
# hr-check of omega1^(d-2) + 7/2 omega2^(d-2), omega1 = I and omega2 a dense
# positive definite form with complex entries, took 0.008 s at d=6, 0.036 s
# at d=7 and 0.17 s at d=8 (building the form included; best of 3) on one
# core of a 2-vCPU Xeon host; of the d=8 time the congruence reduction is
# 0.12 s, the powers 0.04 s and the Gram 2 ms, once the d=8 plan is built
# (4 ms, the first time in a process).  d >= 9 is refused: no test or
# benchmark covers it yet.
MAX_DIM = 8


def _check_dim(dim: int) -> None:
    if dim < 1 or dim > MAX_DIM:
        raise ValidationError(f"dimension {dim} out of the supported range 1..{MAX_DIM}")


def _above_parity(mask: int, dim: int) -> int:
    """Bit x is set iff an odd number of elements of ``mask`` lie above x.

    Sorting the concatenation A|B of disjoint ascending subsets takes
    popcount(_above_parity(A) & B) transpositions, modulo 2.
    """
    out = odd = 0
    for x in range(dim - 1, -1, -1):
        if odd:
            out |= 1 << x
        odd ^= (mask >> x) & 1
    return out


def _numerators(c: GaussianRational) -> tuple[int, int, int]:
    """(re, im, den) with c = (re + im*i) / den, den the lcm of the part denominators."""
    den = math.lcm(c.re.denominator, c.im.denominator)
    return (
        c.re.numerator * (den // c.re.denominator),
        c.im.numerator * (den // c.im.denominator),
        den,
    )


class PQForm:
    """Sparse (p,q)-form with Gaussian-rational coefficients.

    The coefficient of dz_I dzbar_J is ``(re + im*i) / den`` for
    ``coeffs[(I, J)] == (re, im)``: Gaussian-integer numerators over one
    denominator per form.  Invariant: ``den > 0``, no ``(0, 0)`` pair is
    stored, and the gcd of ``den`` and every numerator is 1 (so the zero
    form has ``den == 1``).  Equal forms therefore have equal ``coeffs`` and
    ``den``, and arithmetic on forms is integer arithmetic normalised once
    per operation.  :meth:`coefficient` gives a coefficient as a
    ``GaussianRational``.
    """

    __slots__ = ("dim", "p", "q", "coeffs", "den")

    def __init__(self, dim: int, p: int, q: int, coeffs: dict[Key, GaussianRational]):
        _check_dim(dim)
        if p < 0 or q < 0:
            raise ValidationError("negative bidegree")
        full = (1 << dim) - 1
        parts: dict[Key, tuple[int, int, int]] = {}
        for (i_mask, j_mask), c in coeffs.items():
            c = GaussianRational.coerce(c)
            if c.is_zero():
                continue
            if i_mask & ~full or j_mask & ~full:
                raise ValidationError("index outside 1..dim")
            if i_mask.bit_count() != p or j_mask.bit_count() != q:
                raise ValidationError("key size does not match the bidegree")
            parts[(i_mask, j_mask)] = _numerators(c)
        den = math.lcm(*(d for _, _, d in parts.values()))
        nums = {key: (re * (den // d), im * (den // d)) for key, (re, im, d) in parts.items()}
        self._assign(dim, p, q, nums, den)

    def _assign(self, dim: int, p: int, q: int, nums: dict[Key, Pair], den: int) -> None:
        """Store ``nums / den`` in lowest terms, dropping zero coefficients."""
        nums = {key: c for key, c in nums.items() if c[0] or c[1]}
        g = math.gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            nums = {key: (re // g, im // g) for key, (re, im) in nums.items()}
            den //= g
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_numerators(
        cls, dim: int, p: int, q: int, nums: dict[Key, Pair], den: int
    ) -> "PQForm":
        """The form ``nums / den`` (den > 0) with keys already checked
        against ``dim``, ``p`` and ``q``: the result of an operation on forms."""
        form = object.__new__(cls)
        form._assign(dim, p, q, nums, den)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("PQForm is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, p: int = 0, q: int = 0) -> "PQForm":
        return cls(dim, p, q, {})

    @classmethod
    def one(cls, dim: int) -> "PQForm":
        _check_dim(dim)
        return cls._from_numerators(dim, 0, 0, {(0, 0): (1, 0)}, 1)

    @classmethod
    def dz_dzbar(cls, dim: int, j: int, k: int, coeff=1) -> "PQForm":
        """The (1,1)-form coeff * dz_j wedge dzbar_k (1-based indices)."""
        if not (1 <= j <= dim and 1 <= k <= dim):
            raise ValidationError("index outside 1..dim")
        return cls(dim, 1, 1, {(1 << (j - 1), 1 << (k - 1)): GaussianRational.coerce(coeff)})

    # -- structure ------------------------------------------------------

    def coefficient(self, key: Key) -> GaussianRational:
        """The coefficient of dz_I dzbar_J for ``key = (I, J)`` (0 if absent)."""
        re, im = self.coeffs.get(key, (0, 0))
        return GaussianRational(Fraction(re, self.den), Fraction(im, self.den))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def conj(self) -> "PQForm":
        sign = -1 if (self.p * self.q) & 1 else 1
        nums = {(j, i): (sign * re, -sign * im) for (i, j), (re, im) in self.coeffs.items()}
        return PQForm._from_numerators(self.dim, self.q, self.p, nums, self.den)

    def is_real(self) -> bool:
        """conj(c_{I,J}) = (-1)^(pq) c_{J,I} at every key (see the module docstring)."""
        if self.p != self.q:
            return False
        sign = -1 if self.p & 1 else 1
        mirror = {(j, i): (sign * re, -sign * im) for (i, j), (re, im) in self.coeffs.items()}
        return mirror == self.coeffs

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "PQForm") -> None:
        if self.dim != other.dim:
            raise ValidationError("forms live on different dimensions")
        if (self.p, self.q) != (other.p, other.q):
            raise ValidationError(
                f"cannot add bidegrees {(self.p, self.q)} and {(other.p, other.q)}"
            )

    def __add__(self, other: "PQForm") -> "PQForm":
        if not isinstance(other, PQForm):
            return NotImplemented
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        merged = {key: (re * sa, im * sa) for key, (re, im) in self.coeffs.items()}
        for key, (re, im) in other.coeffs.items():
            r0, i0 = merged.get(key, (0, 0))
            merged[key] = (r0 + re * sb, i0 + im * sb)
        return PQForm._from_numerators(self.dim, self.p, self.q, merged, den)

    def __neg__(self):
        nums = {key: (-re, -im) for key, (re, im) in self.coeffs.items()}
        return PQForm._from_numerators(self.dim, self.p, self.q, nums, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            sr, si, sd = _numerators(GaussianRational.coerce(other))
            nums = {
                key: (re * sr - im * si, re * si + im * sr)
                for key, (re, im) in self.coeffs.items()
            }
            return PQForm._from_numerators(self.dim, self.p, self.q, nums, self.den * sd)
        if isinstance(other, PQForm):
            return wedge(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "PQForm":
        if n < 0:
            raise ValidationError("negative power of a form")
        if n == 0:
            return PQForm.one(self.dim)
        result = self
        for _ in range(n - 1):
            result = wedge(result, self)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, PQForm)
            and self.dim == other.dim
            and (self.p, self.q) == (other.p, other.q)
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"PQForm(dim={self.dim}, p={self.p}, q={self.q}, {len(self.coeffs)} terms)"


@lru_cache(maxsize=None)
def _splits(dim: int, n: int, p: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """Every n-subset U of the indices, by increasing mask, with its splits
    (A, U - A, odd) over the p-subsets A of U; ``odd`` is the parity of the
    shuffle that sorts A|(U - A).  At most (MAX_DIM + 1)^3 of these lists
    exist, since :func:`wedge` asks only for n <= dim."""
    out = []
    for u in combinations(range(dim), n):
        whole = sum(1 << x for x in u)
        parts = []
        for s in combinations(u, p):
            part = sum(1 << x for x in s)
            rest = whole ^ part
            parts.append((part, rest, (_above_parity(part, dim) & rest).bit_count() & 1))
        out.append((whole, tuple(parts)))
    return tuple(sorted(out))


def _rows(form: PQForm) -> dict[int, list[Pair | None]]:
    """The coefficients as ``rows[I][J]``, each row a list indexed by the
    J bitmask (``None`` where the form has no term)."""
    size = 1 << form.dim
    rows: dict[int, list[Pair | None]] = {}
    for (i, j), c in form.coeffs.items():
        row = rows.get(i)
        if row is None:
            row = rows[i] = [None] * size
        row[j] = c
    return rows


def wedge(a: PQForm, b: PQForm) -> PQForm:
    """Exterior product with the Koszul sign convention.

    dz_A dzbar_B wedge dz_C dzbar_D picks up (-1)^(|B||C|) for moving the
    dz_C block through the dzbar_B block, times the two shuffle signs that
    sort A|C and B|D.  The product is pulled key by key: the coefficient of
    dz_U dzbar_V is one sum over the splits U = A|C with |A| = a.p and
    V = B|D with |B| = a.q (see :func:`_splits`), so no pair of terms is
    tested for a collision.  Splits whose parts index no term of a or b are
    dropped up front.

    When a and b are both real (p,p)-forms, so is the product, and by the
    reality rule in the module docstring its coefficient at (V, U) is
    (-1)^P conj of the one at (U, V), P = a.p + b.p; only the keys with
    U <= V are summed and the others are filled in that way.
    """
    if a.dim != b.dim:
        raise ValidationError("forms live on different dimensions")
    dim = a.dim
    p, q = a.p + b.p, a.q + b.q
    nums: dict[Key, Pair] = {}
    if p > dim or q > dim:
        return PQForm._from_numerators(dim, p, q, nums, a.den * b.den)
    half = a.is_real() and b.is_real()
    mirror = -1 if p & 1 else 1
    koszul = (a.q * b.p) & 1
    arows, brows = _rows(a), _rows(b)
    acols = {j for _, j in a.coeffs}
    bcols = {j for _, j in b.coeffs}
    ulist = []
    for u, parts in _splits(dim, p, a.p):
        pairs = [
            (arows[s], brows[t], odd ^ koszul)
            for s, t, odd in parts
            if s in arows and t in brows
        ]
        if pairs:
            ulist.append((u, pairs))
    vlist = []
    for v, parts in _splits(dim, q, a.q):
        pairs = [(s, t, odd) for s, t, odd in parts if s in acols and t in bcols]
        if pairs:
            vlist.append((v, pairs))
    for u, upairs in ulist:
        for v, vpairs in vlist:
            if half and v < u:
                continue
            re = im = 0
            for arow, brow, odd in upairs:
                for s, t, odd2 in vpairs:
                    x = arow[s]
                    y = brow[t]
                    if x is None or y is None:
                        continue
                    r1, m1 = x
                    r2, m2 = y
                    if odd ^ odd2:
                        re -= r1 * r2 - m1 * m2
                        im -= r1 * m2 + m1 * r2
                    else:
                        re += r1 * r2 - m1 * m2
                        im += r1 * m2 + m1 * r2
            if re or im:
                nums[(u, v)] = (re, im)
                if half and u != v:
                    nums[(v, u)] = (mirror * re, -mirror * im)
    return PQForm._from_numerators(dim, p, q, nums, a.den * b.den)


def wedge_top_coefficient(a: PQForm, b: PQForm) -> GaussianRational:
    """Coefficient of dz_{1..d} dzbar_{1..d} in a wedge b."""
    full = (1 << a.dim) - 1
    return wedge(a, b).coefficient((full, full))


def _volume_unit(dim: int) -> Pair:
    """The coefficient of dz_{1..d} dzbar_{1..d} in prod_j (i dz_j dzbar_j).

    Moving every dz_j to the front past the dzbar's before it takes
    d(d-1)/2 transpositions, so the coefficient is
    i^d (-1)^(d(d-1)/2) = i^(d^2): 1 for even d, i for odd d.  So
    (re + im*i) over the unit (vr, vi) is re*vr + im*vi, and it is real
    exactly when im*vr == re*vi.
    """
    return (0, 1) if dim & 1 else (1, 0)


def integrate_top(omega: PQForm) -> Fraction:
    """The unique r with omega = r * prod_j (i dz_j dzbar_j); exact.

    Defined on real (d,d)-forms; the normalization gives the standard
    Kaehler form integral d!.
    """
    if omega.p != omega.dim or omega.q != omega.dim:
        raise PreconditionError(
            f"top integral needs bidegree ({omega.dim},{omega.dim}), "
            f"got ({omega.p},{omega.q})"
        )
    if not omega.is_real():
        raise PreconditionError("top integral of a non-real form")
    full = (1 << omega.dim) - 1
    re, im = omega.coeffs.get((full, full), (0, 0))
    vr, vi = _volume_unit(omega.dim)
    if im * vr != re * vi:
        raise RuntimeError("internal: real form integrated to a non-real value")
    return Fraction(re * vr + im * vi, omega.den)


def hermitian_form(rows: Sequence[Sequence]) -> PQForm:
    """The real (1,1)-form i sum_jk H_jk dz_j dzbar_k of a Hermitian matrix H.

    The form is real exactly when H is Hermitian.  A matrix that is not
    square, larger than MAX_DIM or not conjugate-symmetric (the first bad
    entry ``(j,k)`` is named) raises ValidationError.
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValidationError("Hermitian matrix must be square and nonempty")
    _check_dim(n)
    parts = [[_numerators(GaussianRational.coerce(x)) for x in row] for row in rows]
    den = math.lcm(*(d for row in parts for _, _, d in row))
    h = [[(re * (den // d), im * (den // d)) for re, im, d in row] for row in parts]
    for j in range(n):
        for k in range(n):
            re, im = h[k][j]
            if h[j][k] != (re, -im):
                raise ValidationError(f"matrix is not conjugate-symmetric at ({j},{k})")
    nums = {
        (1 << j, 1 << k): (-im, re)
        for j, row in enumerate(h)
        for k, (re, im) in enumerate(row)
    }
    return PQForm._from_numerators(n, 1, 1, nums, den)


def diagonal_form(values: Sequence) -> PQForm:
    """The real (1,1)-form i sum_j v_j dz_j dzbar_j of rational ``values``."""
    vals = [exact_rational(v) for v in values]
    return hermitian_form(
        [[v if j == k else 0 for k in range(len(vals))] for j, v in enumerate(vals)]
    )


def kahler_check(omega: PQForm) -> bool:
    """Positive definiteness of the Hermitian H = A + iB with omega = i H dz dzbar.

    omega must be a real (1,1)-form.  H is positive definite iff the real
    symmetric matrix [[A, -B], [B, A]], whose spectrum is that of H with
    every eigenvalue doubled, is; it is built from the integer numerators,
    which are H scaled by den > 0.
    """
    if (omega.p, omega.q) != (1, 1) or not omega.is_real():
        raise ValidationError("the Kaehler test needs a real (1,1)-form")
    n = omega.dim
    # The coefficient (re + im*i) / den of dz_j dzbar_k is i H_jk, so
    # den * H_jk = im - re*i: den * A_jk = im and den * B_jk = -re.
    h = [[omega.coeffs.get((1 << j, 1 << k), (0, 0)) for k in range(n)] for j in range(n)]
    rows = [[im for re, im in row] + [re for re, im in row] for row in h]
    rows += [[-re for re, im in row] + [im for re, im in row] for row in h]
    return inertia_triple(rows) == (2 * n, 0, 0)


def schur_form(lam: Partition, omegas: Sequence[PQForm]) -> PQForm:
    """Schur form of a tuple of (1,1)-forms: the Chern determinant with
    c_k replaced by the k-th elementary symmetric wedge polynomial.  Only
    the c_k that the Jacobi-Trudi polynomial reads are formed, and of the
    recurrence only the band they need (``elementary_symmetric``)."""
    e = len(omegas)
    if not omegas:
        raise ValidationError("need at least one form")
    dim = omegas[0].dim
    for w in omegas:
        if w.dim != dim:
            raise ValidationError("forms live on different dimensions")
        if (w.p, w.q) != (1, 1):
            raise ValidationError("Schur forms need (1,1)-forms")
    if lam.weight > dim:
        raise ValidationError(
            f"Schur form of weight {lam.weight} vanishes beyond dimension {dim}"
        )
    one = PQForm.one(dim)
    poly = schur_poly(lam, e)
    cherns = elementary_symmetric(omegas, one, {k for cs in poly.terms for k in cs})
    return evaluate(poly, cherns, one)


Term = tuple[int, int, int, int]  # (j, k, re, im): (re + im*i) dz_j dzbar_k, 0-based


def _real_basis_terms(dim: int) -> list[tuple[Term, ...]]:
    """The canonical real basis of the d^2-dimensional space of real
    (1,1)-forms, in the order :func:`hr_gram` documents, each basis form
    as its elementary terms."""
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    return (
        [((j, j, 0, 1),) for j in range(dim)]
        + [((j, k, 0, 1), (k, j, 0, 1)) for j, k in pairs]
        + [((j, k, 1, 0), (k, j, -1, 0)) for j, k in pairs]
    )


def _halves(dim: int) -> list[list[tuple[int, int]]]:
    """``halves[j][l]`` for j != l: the bitmask of [d] - {j, l} and the
    parity of f(j, l) = (j - [l<j]) + (d-1-l), the transpositions that sort
    j|I|l (module docstring).  The sign rule is a product of two such halves,
    one for the dz indices and one for the dzbar indices."""
    full = (1 << dim) - 1
    return [
        [(full ^ (1 << j | 1 << l), (j - (l < j) + dim - 1 - l) & 1) for l in range(dim)]
        for j in range(dim)
    ]


def _top_term(halves, j: int, k: int, l: int, m: int) -> tuple[Key, int] | None:
    """The key of omega that dz_j dzbar_k wedge omega wedge dz_l dzbar_m
    reads and the sign -(-1)^(f(j,l) + f(k,m)) it enters the top coefficient
    with; None when j == l or k == m, where the product is 0."""
    if j == l or k == m:
        return None
    i_mask, f1 = halves[j][l]
    j_mask, f2 = halves[k][m]
    return (i_mask, j_mask), 1 if f1 ^ f2 else -1


# One plan per dimension, at most MAX_DIM of them; it holds no form data.
@lru_cache(maxsize=None)
def _gram_plan(dim: int) -> tuple[tuple[Key, ...], tuple[tuple[int, int, tuple], ...]]:
    """The keys of omega that the Gram reads, and for each upper entry
    (a, b) of the Gram on the canonical real basis a tuple of
    ``(x, re, im)``, one per term pair of basis_a wedge omega wedge basis_b
    that survives: the pair reads key x of that list with the Gaussian
    integer factor ``re + im*i``, the sign of :func:`_top_term` times the
    product of the two terms' coefficients.  Two pairs of one entry read
    the same key only when both basis forms sit on the same {j, k}; they
    are not merged."""
    halves = _halves(dim)
    basis = _real_basis_terms(dim)
    index: dict[Key, int] = {}
    entries = []
    for a, left in enumerate(basis):
        for b in range(a, len(basis)):
            items = []
            for j, k, r1, m1 in left:
                for l, m, r2, m2 in basis[b]:
                    top = _top_term(halves, j, k, l, m)
                    if top is not None:
                        key, sign = top
                        x = index.setdefault(key, len(index))
                        items.append((x, sign * (r1 * r2 - m1 * m2), sign * (r1 * m2 + m1 * r2)))
            entries.append((a, b, tuple(items)))
    return tuple(index), tuple(entries)


def _require_pairing(omega: PQForm) -> None:
    d = omega.dim
    if (omega.p, omega.q) != (d - 2, d - 2):
        raise PreconditionError(
            f"Hodge-Riemann pairing needs bidegree ({d - 2},{d - 2}), "
            f"got ({omega.p},{omega.q})"
        )
    if not omega.is_real():
        raise PreconditionError("Hodge-Riemann pairing of a non-real form")


def _gram_numerators(omega: PQForm) -> list[list[int]]:
    """The Hodge-Riemann Gram of a real (d-2,d-2)-form times ``omega.den``:
    the plan of its dimension evaluated on omega's numerators, each entry
    divided by the volume unit."""
    d = omega.dim
    n = d * d
    keys, entries = _gram_plan(d)
    vr, vi = _volume_unit(d)
    get = omega.coeffs.get
    vals = [get(key, (0, 0)) for key in keys]
    rows = [[0] * n for _ in range(n)]
    for a, b, items in entries:
        re = im = 0
        for x, fr, fi in items:
            cr, ci = vals[x]
            re += fr * cr - fi * ci
            im += fr * ci + fi * cr
        if im * vr != re * vi:
            raise RuntimeError("internal: non-real Gram entry")
        rows[a][b] = rows[b][a] = re * vr + im * vi
    return rows


def hr_gram(omega: PQForm) -> list[list[Fraction]]:
    """Gram matrix of (a, b) -> integral(a wedge omega wedge b) on the
    canonical real (1,1) basis; all entries exact rationals.

    Order of the basis: i dz_j dzbar_j; then i(dz_j dzbar_k + dz_k dzbar_j)
    for j < k; then dz_j dzbar_k - dz_k dzbar_j for j < k.  Each entry is
    read off the coefficients of omega by the plan of its dimension
    (:func:`_gram_plan`, at most four keys per entry); nothing is wedged.
    """
    _require_pairing(omega)
    return [[Fraction(x, omega.den) for x in row] for row in _gram_numerators(omega)]


def hodge_riemann_verdict(omega: PQForm, reference: PQForm) -> HodgeRiemannVerdict:
    """Inertia of the (1,1) pairing of omega and integral(omega wedge ref^2).

    The reference form must be Kaehler (positive definite).  The verdict
    decides HR (positive integral, inertia (1, 0, d^2 - 1)) and HL (a
    nondegenerate pairing) from these two values.  Both come from one
    Gram G on the canonical real basis, read off omega's numerators: the
    inertia is G's, which has the inertia of the Gram since omega.den > 0,
    and integral(omega wedge ref^2) = integral(ref wedge omega wedge ref),
    (1,1)-forms being even, is r^T G r over omega.den * ref.den^2 for the
    numerators r of the reference's coordinates.
    """
    d = omega.dim
    if reference.dim != d:
        raise ValidationError("reference form has the wrong dimension")
    if not kahler_check(reference):
        raise PreconditionError("reference form is not Kaehler (not positive definite)")
    _require_pairing(omega)
    gram = _gram_numerators(omega)
    # A basis form's first term has coefficient t = 1 or i at its key, where
    # only basis forms with t = 1 and t = i are nonzero; 1 and i are
    # orthogonal over R, so the coordinate is Re(conj(t) c) for the
    # reference's numerator c there.
    get = reference.coeffs.get
    r = []
    for (j, k, tr, ti), *_ in _real_basis_terms(d):
        cr, ci = get((1 << j, 1 << k), (0, 0))
        r.append(tr * cr + ti * ci)
    top = sum(x * sum(g * y for g, y in zip(row, r)) for x, row in zip(r, gram) if x)
    positivity = Fraction(top, omega.den * reference.den**2)
    return HodgeRiemannVerdict(inertia_triple(gram), positivity)
