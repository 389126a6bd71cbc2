"""Exact (p,q)-form calculus on C^d and the Hodge-Riemann test on it.

Forms are sparse maps from pairs of index subsets (stored as bitmasks) to
Gaussian-rational coefficients, on C^d for d <= 8 (``MAX_DIM``; one
hr-check at d=8 takes about 8 s):

    Omega = sum c_{I,J} dz_I wedge dzbar_J,   I, J increasing.

Conventions, validated by tests before anything is built on them:

* conj(dz_I wedge dzbar_J) = (-1)^(pq) dz_J wedge dzbar_I, so a form is
  real iff conj(c_{I,J}) = (-1)^(pq) c_{J,I} coefficient-wise;
* the volume normalization is integral(prod_j i dz_j wedge dzbar_j) = 1,
  making integral(omega^d) = d! for the standard Kaehler form.  Positivity
  verdicts are invariant under any positive rescaling of the integral, so
  this choice is harmless.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .chernpoly import elementary_symmetric, evaluate, schur as schur_poly
from .errors import PreconditionError, ValidationError
from .gaussian import GaussianRational
from .inertia import InertiaReport, inertia, inertia_triple
from .partitions import Partition

Key = tuple[int, int]  # (I bitmask, J bitmask)

# Largest accepted dimension.  Work grows 3x to 6x per dimension: the
# hr-check of omega1^(d-2) + 7/2 omega2^(d-2), omega1 = I and omega2 dense
# with complex entries, took 0.55 s at d=6, 1.8 s at d=7 and 8.1 s at d=8 on
# one core of a 2-vCPU Xeon host, so from d=9 on a verdict would take
# minutes to hours and is refused up front.
MAX_DIM = 8


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending subsets."""
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        inversions += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if inversions & 1 else 1


class PQForm:
    """Sparse (p,q)-form with Gaussian-rational coefficients."""

    __slots__ = ("dim", "p", "q", "coeffs")

    def __init__(self, dim: int, p: int, q: int, coeffs: dict[Key, GaussianRational]):
        if dim < 1 or dim > MAX_DIM:
            raise ValidationError(
                f"dimension {dim} out of the supported range 1..{MAX_DIM}"
            )
        if p < 0 or q < 0:
            raise ValidationError("negative bidegree")
        full = (1 << dim) - 1
        clean: dict[Key, GaussianRational] = {}
        for (i_mask, j_mask), c in coeffs.items():
            c = GaussianRational.coerce(c)
            if c.is_zero():
                continue
            if i_mask & ~full or j_mask & ~full:
                raise ValidationError("index outside 1..dim")
            if i_mask.bit_count() != p or j_mask.bit_count() != q:
                raise ValidationError("key size does not match the bidegree")
            clean[(i_mask, j_mask)] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PQForm is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, p: int = 0, q: int = 0) -> "PQForm":
        return cls(dim, p, q, {})

    @classmethod
    def one(cls, dim: int) -> "PQForm":
        return cls(dim, 0, 0, {(0, 0): GaussianRational(1)})

    @classmethod
    def dz_dzbar(cls, dim: int, j: int, k: int, coeff=1) -> "PQForm":
        """The (1,1)-form coeff * dz_j wedge dzbar_k (1-based indices)."""
        if not (1 <= j <= dim and 1 <= k <= dim):
            raise ValidationError("index outside 1..dim")
        return cls(dim, 1, 1, {(1 << (j - 1), 1 << (k - 1)): GaussianRational.coerce(coeff)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    def conj(self) -> "PQForm":
        sign = -1 if (self.p * self.q) & 1 else 1
        return PQForm(
            self.dim,
            self.q,
            self.p,
            {
                (j_mask, i_mask): c.conj() * sign
                for (i_mask, j_mask), c in self.coeffs.items()
            },
        )

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
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, GaussianRational(0)) + c
        return PQForm(self.dim, self.p, self.q, merged)

    def __neg__(self):
        return PQForm(
            self.dim, self.p, self.q, {k: -c for k, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            s = GaussianRational.coerce(other)
            return PQForm(
                self.dim, self.p, self.q, {k: c * s for k, c in self.coeffs.items()}
            )
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
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        return f"PQForm(dim={self.dim}, p={self.p}, q={self.q}, {len(self.coeffs)} terms)"


def wedge(a: PQForm, b: PQForm) -> PQForm:
    """Exterior product with the Koszul sign convention.

    dz_I dzbar_J wedge dz_K dzbar_L picks up (-1)^(|J||K|) for moving the
    dz_K block through the dzbar_J block, times the two shuffle signs that
    sort I|K and J|L; colliding indices kill the term.
    """
    if a.dim != b.dim:
        raise ValidationError("forms live on different dimensions")
    p, q = a.p + b.p, a.q + b.q
    out: dict[Key, GaussianRational] = {}
    block_parity = (a.q * b.p) & 1
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            if i1 & i2 or j1 & j2:
                continue
            sign = _merge_sign(i1, i2) * _merge_sign(j1, j2)
            if block_parity:
                sign = -sign
            key = (i1 | i2, j1 | j2)
            term = c1 * c2 * sign
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
    return PQForm(a.dim, p, q, out)


def wedge_top_coefficient(a: PQForm, b: PQForm) -> GaussianRational:
    """Coefficient of dz_{1..d} dzbar_{1..d} in a wedge b, without expanding."""
    if a.dim != b.dim:
        raise ValidationError("forms live on different dimensions")
    full = (1 << a.dim) - 1
    total = GaussianRational(0)
    block_parity = (a.q * b.p) & 1
    for (i1, j1), c1 in a.coeffs.items():
        key = (full & ~i1, full & ~j1)
        c2 = b.coeffs.get(key)
        if c2 is None:
            continue
        sign = _merge_sign(i1, key[0]) * _merge_sign(j1, key[1])
        if block_parity:
            sign = -sign
        total = total + c1 * c2 * sign
    return total


@lru_cache(maxsize=None)
def _volume_coefficient(dim: int) -> GaussianRational:
    """Coefficient of dz_{1..d} dzbar_{1..d} in prod_j (i dz_j dzbar_j)."""
    vol = PQForm.one(dim)
    for j in range(1, dim + 1):
        vol = wedge(vol, PQForm.dz_dzbar(dim, j, j, GaussianRational.i()))
    full = (1 << dim) - 1
    return vol.coeffs[(full, full)]


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
    c = omega.coeffs.get((full, full), GaussianRational(0))
    r = c / _volume_coefficient(omega.dim)
    if r.im != 0:
        raise RuntimeError("internal: real form integrated to a non-real value")
    return r.re


class HermitianOneOne:
    """A d x d Hermitian matrix, embedded as the real (1,1)-form i H_jk dz_j dzbar_k."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(
            tuple(GaussianRational.coerce(x) for x in row) for row in entries
        )
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValidationError("Hermitian matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i].conj():
                    raise ValidationError(
                        f"matrix is not conjugate-symmetric at ({i},{j})"
                    )
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOneOne is immutable")

    @classmethod
    def identity(cls, dim: int) -> "HermitianOneOne":
        return cls.diagonal([Fraction(1)] * dim)

    @classmethod
    def diagonal(cls, values: Sequence) -> "HermitianOneOne":
        vals = [Fraction(v) for v in values]
        return cls(
            [
                [vals[i] if i == j else Fraction(0) for j in range(len(vals))]
                for i in range(len(vals))
            ]
        )

    @property
    def dim(self) -> int:
        return len(self.entries)

    def to_form(self) -> PQForm:
        d = self.dim
        coeffs: dict[Key, GaussianRational] = {}
        i_unit = GaussianRational.i()
        for j in range(d):
            for k in range(d):
                c = self.entries[j][k]
                if not c.is_zero():
                    coeffs[(1 << j, 1 << k)] = i_unit * c
        return PQForm(d, 1, 1, coeffs)

    def __eq__(self, other):
        return isinstance(other, HermitianOneOne) and self.entries == other.entries

    __hash__ = None


def kahler_check(h: HermitianOneOne) -> bool:
    """Positive definiteness of H = A + iB, decided exactly by inertia.

    H is positive definite iff the real symmetric matrix [[A, -B], [B, A]],
    whose spectrum is that of H with every eigenvalue doubled, is.
    """
    n = h.dim
    rows = [
        [h.entries[i][j].re for j in range(n)] + [-h.entries[i][j].im for j in range(n)]
        for i in range(n)
    ]
    rows += [
        [h.entries[i][j].im for j in range(n)] + [h.entries[i][j].re for j in range(n)]
        for i in range(n)
    ]
    return inertia_triple(rows) == (2 * n, 0, 0)


def schur_form(lam: Partition, omegas: Sequence[PQForm]) -> PQForm:
    """Schur form of a tuple of (1,1)-forms: the Chern determinant with
    c_k replaced by the k-th elementary symmetric wedge polynomial."""
    e = len(omegas)
    lam.require_rank(e)
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
    return evaluate(schur_poly(lam, e), elementary_symmetric(omegas, one), one)


@lru_cache(maxsize=None)
def real_oneone_basis(dim: int) -> tuple[PQForm, ...]:
    """Canonical real basis of the d^2-dimensional space of real (1,1)-forms.

    Order: the diagonal forms i dz_j dzbar_j; then i(dz_j dzbar_k +
    dz_k dzbar_j) for j < k; then dz_j dzbar_k - dz_k dzbar_j for j < k.
    """
    basis: list[PQForm] = []
    i_unit = GaussianRational.i()
    for j in range(1, dim + 1):
        basis.append(PQForm.dz_dzbar(dim, j, j, i_unit))
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            basis.append(
                PQForm.dz_dzbar(dim, j, k, i_unit)
                + PQForm.dz_dzbar(dim, k, j, i_unit)
            )
    for j in range(1, dim + 1):
        for k in range(j + 1, dim + 1):
            basis.append(
                PQForm.dz_dzbar(dim, j, k, 1) + PQForm.dz_dzbar(dim, k, j, -1)
            )
    return tuple(basis)


def hr_gram(omega: PQForm) -> list[list[Fraction]]:
    """Gram matrix of (a, b) -> integral(a wedge omega wedge b) on the
    canonical real (1,1) basis; all entries exact rationals."""
    d = omega.dim
    if (omega.p, omega.q) != (d - 2, d - 2):
        raise PreconditionError(
            f"Hodge-Riemann pairing needs bidegree ({d - 2},{d - 2}), "
            f"got ({omega.p},{omega.q})"
        )
    if not omega.is_real():
        raise PreconditionError("Hodge-Riemann pairing of a non-real form")
    basis = real_oneone_basis(d)
    vol = _volume_coefficient(d)
    mids = [wedge(b, omega) for b in basis]
    n = len(basis)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = wedge_top_coefficient(mids[i], basis[j]) / vol
            if val.im != 0:
                raise RuntimeError("internal: non-real Gram entry")
            gram[i][j] = val.re
            gram[j][i] = val.re
    return gram


def hodge_riemann_verdict(omega: PQForm, reference: HermitianOneOne) -> InertiaReport:
    """Full inertia of the (1,1) pairing of omega, plus the HR/HL verdict.

    The reference form must be Kaehler (positive definite); the verdict is
    HR iff integral(omega wedge ref^2) > 0 and the inertia is
    (1, 0, d^2 - 1), and HL iff the pairing is nondegenerate.
    """
    if not kahler_check(reference):
        raise PreconditionError("reference form is not Kaehler (not positive definite)")
    d = omega.dim
    if reference.dim != d:
        raise ValidationError("reference form has the wrong dimension")
    ref = reference.to_form()
    positivity = integrate_top(wedge(wedge(omega, ref), ref))
    rep = inertia(hr_gram(omega))
    return replace(
        rep,
        hr_flag=positivity > 0 and rep.triple == (1, 0, d * d - 1),
        positivity_scalar=positivity,
    )
