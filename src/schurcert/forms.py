"""Exact (p,q)-form calculus on C^d and the Hodge-Riemann test on it.

Forms are sparse maps from pairs of index subsets (stored as bitmasks) to
Gaussian-rational coefficients, on C^d for d <= 8 (``MAX_DIM``; one
hr-check at d=8 takes about 0.3 s):

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
volume unit i^(d^2).  A real (1,1)-form is at most d^2 such elementary
terms, so every Gram entry on the canonical real basis is a sum of at most
four lookups, and integral(omega wedge ref^2) = integral(ref wedge omega
wedge ref), (1,1)-forms being even, is one lookup per pair of terms of ref.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
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
# positive definite form with complex entries, took 0.014 s at d=6, 0.07 s
# at d=7 and 0.32 s at d=8 (building the form included) on one core of a
# 2-vCPU Xeon host; the Gram is 9 ms of the d=8 time, the powers and the
# congruence reduction the rest.  d >= 9 is refused: no test or benchmark
# covers it yet.
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
        return self.conj() == self

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
        result = PQForm.one(self.dim)
        for _ in range(n):
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


def wedge(a: PQForm, b: PQForm) -> PQForm:
    """Exterior product with the Koszul sign convention.

    dz_I dzbar_J wedge dz_K dzbar_L picks up (-1)^(|J||K|) for moving the
    dz_K block through the dzbar_J block, times the two shuffle signs that
    sort I|K and J|L; colliding indices kill the term.  A term's key (I, J)
    is packed as I | J << dim, so one AND finds a collision and one popcount
    the shuffle sign.
    """
    if a.dim != b.dim:
        raise ValidationError("forms live on different dimensions")
    dim = a.dim
    sign = -1 if (a.q * b.p) & 1 else 1
    left = [
        (i | j << dim, _above_parity(i, dim) | _above_parity(j, dim) << dim, sign * re, sign * im)
        for (i, j), (re, im) in a.coeffs.items()
    ]
    right = [(i | j << dim, re, im) for (i, j), (re, im) in b.coeffs.items()]
    out: dict[int, Pair] = {}
    get = out.get
    for packed1, above1, r1, m1 in left:
        for packed2, r2, m2 in right:
            if packed1 & packed2:
                continue
            if (above1 & packed2).bit_count() & 1:
                re, im = m1 * m2 - r1 * r2, -r1 * m2 - m1 * r2
            else:
                re, im = r1 * r2 - m1 * m2, r1 * m2 + m1 * r2
            key = packed1 | packed2
            prev = get(key)
            out[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    full = (1 << dim) - 1
    nums = {(key & full, key >> dim): c for key, c in out.items()}
    return PQForm._from_numerators(dim, a.p + b.p, a.q + b.q, nums, a.den * b.den)


def wedge_top_coefficient(a: PQForm, b: PQForm) -> GaussianRational:
    """Coefficient of dz_{1..d} dzbar_{1..d} in a wedge b."""
    full = (1 << a.dim) - 1
    return wedge(a, b).coefficient((full, full))


def _volume_unit(dim: int) -> Pair:
    """The coefficient of dz_{1..d} dzbar_{1..d} in prod_j (i dz_j dzbar_j).

    Moving every dz_j to the front past the dzbar's before it takes
    d(d-1)/2 transpositions, so the coefficient is
    i^d (-1)^(d(d-1)/2) = i^(d^2): 1 for even d, i for odd d.
    """
    return (0, 1) if dim & 1 else (1, 0)


_NON_REAL_TOP = "internal: real form integrated to a non-real value"


def _real_over_volume(top: Pair, dim: int, fault: str) -> int:
    """``re + im*i`` divided by the volume unit of ``dim`` (a unit, so the
    denominator is kept); the quotient must be real, else ``fault`` is
    raised."""
    re, im = top
    vr, vi = _volume_unit(dim)
    if im * vr != re * vi:
        raise RuntimeError(fault)
    return re * vr + im * vi


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
    top = _real_over_volume(omega.coeffs.get((full, full), (0, 0)), omega.dim, _NON_REAL_TOP)
    return Fraction(top, omega.den)


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
    c_k replaced by the k-th elementary symmetric wedge polynomial."""
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
    cherns = elementary_symmetric(omegas, one, top=lam.weight)
    return evaluate(schur_poly(lam, e), cherns, one)


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


def _pairing(omega: PQForm, left: Sequence[Term], right: Sequence[Term]) -> Pair:
    """Numerators, over ``omega.den`` times the denominators of the terms,
    of the coefficient of dz_{1..d} dzbar_{1..d} in a wedge omega wedge b,
    a and b the sums of the ``left`` and ``right`` terms: one lookup of
    omega per pair of terms, signed by the rule in the module docstring."""
    d = omega.dim
    full = (1 << d) - 1
    get = omega.coeffs.get
    total_re = total_im = 0
    for j, k, r1, m1 in left:
        for l, m, r2, m2 in right:
            if j == l or k == m:
                continue
            c = get((full ^ (1 << j | 1 << l), full ^ (1 << k | 1 << m)))
            if c is None:
                continue
            ar, ai = r1 * r2 - m1 * m2, r1 * m2 + m1 * r2
            re, im = ar * c[0] - ai * c[1], ar * c[1] + ai * c[0]
            e = (j - (l < j)) + (d - 1 - l) + (k - (m < k)) + (d - 1 - m)
            if e & 1:
                total_re += re
                total_im += im
            else:
                total_re -= re
                total_im -= im
    return total_re, total_im


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
    """The Hodge-Riemann Gram of a real (d-2,d-2)-form times ``omega.den``."""
    d = omega.dim
    basis = _real_basis_terms(d)
    n = len(basis)
    rows = [[0] * n for _ in range(n)]
    for a, left in enumerate(basis):
        for b in range(a, n):
            val = _real_over_volume(
                _pairing(omega, left, basis[b]), d, "internal: non-real Gram entry"
            )
            rows[a][b] = rows[b][a] = val
    return rows


def hr_gram(omega: PQForm) -> list[list[Fraction]]:
    """Gram matrix of (a, b) -> integral(a wedge omega wedge b) on the
    canonical real (1,1) basis; all entries exact rationals.

    Order of the basis: i dz_j dzbar_j; then i(dz_j dzbar_k + dz_k dzbar_j)
    for j < k; then dz_j dzbar_k - dz_k dzbar_j for j < k.  Each entry is
    a signed sum of at most four coefficients of omega, looked up by the
    rule in the module docstring; nothing is wedged.
    """
    _require_pairing(omega)
    return [[Fraction(x, omega.den) for x in row] for row in _gram_numerators(omega)]


def hodge_riemann_verdict(omega: PQForm, reference: PQForm) -> HodgeRiemannVerdict:
    """Inertia of the (1,1) pairing of omega and integral(omega wedge ref^2).

    The reference form must be Kaehler (positive definite).  The verdict
    decides HR (positive integral, inertia (1, 0, d^2 - 1)) and HL (a
    nondegenerate pairing) from these two values.  Both are read off the
    coefficients of omega; the Gram's inertia is taken on its integer
    numerators, which have the same inertia since omega.den > 0.
    """
    d = omega.dim
    if reference.dim != d:
        raise ValidationError("reference form has the wrong dimension")
    if not kahler_check(reference):
        raise PreconditionError("reference form is not Kaehler (not positive definite)")
    _require_pairing(omega)
    terms = [
        (i.bit_length() - 1, j.bit_length() - 1, re, im)
        for (i, j), (re, im) in reference.coeffs.items()
    ]
    top = _real_over_volume(_pairing(omega, terms, terms), d, _NON_REAL_TOP)
    positivity = Fraction(top, omega.den * reference.den**2)
    return HodgeRiemannVerdict(inertia_triple(_gram_numerators(omega)), positivity)
