"""Shared independent oracles for the test suite.

These deliberately recompute things by structurally different routes
(characteristic polynomials, brute-force symbol sorting, alternants,
tableau sums, Yun's square-free decomposition) so that the production code paths are checked against
something they do not share.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from schurcert.certify import hl_failure_instance
from schurcert.chernpoly import ChernPoly, det_in_ring, evaluate, schur
from schurcert.errors import ValidationError
from schurcert.forms import PQForm
from schurcert.gaussian import GaussianRational
from schurcert.inertia import rational_det
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly
from schurcert.rings import GradedClass, chern, gram_on_basis, multiply


class GaussianField(GaussianRational):
    """The oracle's scalar: a ``GaussianRational`` with the field
    arithmetic of Q(i).

    ``coerce`` turns a plain ``GaussianRational`` (a ``PQForm.coefficient``
    value, say) into this class, so oracle arithmetic never meets the
    arithmetic-free value.
    """

    __slots__ = ()

    @classmethod
    def coerce(cls, value) -> "GaussianField":
        if isinstance(value, cls):
            return value
        if isinstance(value, GaussianRational):
            return cls(value.re, value.im)
        return super().coerce(value)

    def conj(self) -> "GaussianField":
        return GaussianField(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other):
        other = GaussianField.coerce(other)
        return GaussianField(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianField(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianField.coerce(other))

    def __rsub__(self, other):
        return GaussianField.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianField.coerce(other)
        return GaussianField(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianField.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianField(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )


def inertia_by_charpoly(matrix) -> tuple[int, int, int]:
    """Inertia via Descartes' rule on the characteristic polynomial.

    All eigenvalues of a symmetric rational matrix are real, so the number
    of positive roots of det(M - t I) equals the sign variations of its
    coefficient sequence, exactly; the zero-eigenvalue multiplicity is the
    index of the first nonzero coefficient.
    """
    n = len(matrix)
    entries = [
        [
            QPoly.of(Fraction(matrix[i][j]), -1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    p = det_in_ring(entries, QPoly.of(1))
    coeffs = list(p.coeffs)
    n_zero = next(i for i, c in enumerate(coeffs) if c != 0)
    signs = [c for c in coeffs if c != 0]
    n_plus = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    return n_plus, n_zero, n - n_plus - n_zero


def wedge_word_oracle(i1: int, j1: int, i2: int, j2: int, dim: int):
    """Sign of dz_I1 dzbar_J1 ^ dz_I2 dzbar_J2 by explicit symbol sorting.

    Writes the concatenated word of degree-1 symbols, bubble-sorts it into
    the canonical order (all dz ascending, then all dzbar ascending) while
    counting transpositions, and reports the resulting sign (0 on any
    repeated symbol).
    """
    word = []
    for mask, kind in ((i1, 0), (j1, 1), (i2, 0), (j2, 1)):
        for b in range(dim):
            if mask >> b & 1:
                word.append((kind, b))
    if len(set(word)) != len(word):
        return 0, None
    swaps = 0
    # insertion sort counting inversions; all symbols are odd-degree.
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            swaps += 1
            j -= 1
    i_mask = sum(1 << b for kind, b in word if kind == 0)
    j_mask = sum(1 << b for kind, b in word if kind == 1)
    return (-1) ** swaps, (i_mask, j_mask)


def multiply_oracle(a, b):
    """Product of two graded classes by the ``Fraction`` tuple-sum route.

    Walks every pair of nonzero ``Fraction`` coefficients, adds the two
    exponent tuples and keeps the product iff the sum lies in the target
    grade's basis.  This is the route ``rings.multiply`` replaced with
    integer numerators and monomial codes.
    """
    if a.model != b.model:
        raise ValidationError("classes live on different models")
    model = a.model
    grade = a.grade + b.grade
    index = model.index(grade)
    out = [Fraction(0)] * len(index)
    if not index:
        return GradedClass(model, grade, out)
    basis_a = model.basis(a.grade)
    basis_b = model.basis(b.grade)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        ma = basis_a[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            pos = index.get(tuple(x + y for x, y in zip(ma, basis_b[j])))
            if pos is not None:
                out[pos] += ca * cb
    return GradedClass(model, grade, out)


def integrate_oracle(a) -> Fraction:
    """Top integral of a graded class, summed over its ``Fraction`` coefficients."""
    if a.grade != a.model.dimension:
        raise ValidationError("can only integrate top-grade classes")
    return sum(
        (c * a.model.top_integrals.get(mono, 0)
         for mono, c in zip(a.model.basis(a.grade), a.coeffs)),
        Fraction(0),
    )


def chern_by_subsets(bundle, p: int):
    """c_p of a split bundle as the sum, over all p-subsets of the twisted
    roots, of their products."""
    model = bundle.model
    if p == 0:
        return model.one()
    total = model.zero(p)
    for subset in itertools.combinations(bundle.roots, p):
        term = subset[0]
        for root in subset[1:]:
            term = multiply(term, root)
        total = total + term
    return total


class TwistPoly:
    """Polynomial in one formal degree-1 twist variable ``d`` over
    ``ChernPoly``: a map from each power of ``d`` to its coefficient.

    It carries the twisted route to derived Schur classes, the oracle for
    Lascoux's formula in ``chernpoly``, and supports what ``det_in_ring``
    and ``evaluate`` need.
    """

    def __init__(self, rank: int, coeffs: Mapping[int, ChernPoly]):
        self.rank = rank
        self.coeffs = {k: p for k, p in coeffs.items() if p}

    @classmethod
    def one(cls, rank: int) -> "TwistPoly":
        return cls(rank, {0: ChernPoly.one(rank)})

    @classmethod
    def d(cls, rank: int) -> "TwistPoly":
        return cls(rank, {1: ChernPoly.one(rank)})

    def coefficient(self, power: int) -> ChernPoly:
        return self.coeffs.get(power, ChernPoly.zero(self.rank))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "TwistPoly") -> "TwistPoly":
        merged = dict(self.coeffs)
        for k, p in other.coeffs.items():
            merged[k] = merged[k] + p if k in merged else p
        return TwistPoly(self.rank, merged)

    def __neg__(self) -> "TwistPoly":
        return TwistPoly(self.rank, {k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other: "TwistPoly") -> "TwistPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TwistPoly):
            return TwistPoly(self.rank, {k: p * other for k, p in self.coeffs.items()})
        out: dict[int, ChernPoly] = {}
        for k1, p1 in self.coeffs.items():
            for k2, p2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out[k] + p1 * p2 if k in out else p1 * p2
        return TwistPoly(self.rank, out)

    def __pow__(self, n: int) -> "TwistPoly":
        result = TwistPoly.one(self.rank)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (self.rank, self.coeffs) == (other.rank, other.coeffs)


def twisted_chern(p: int, rank: int) -> TwistPoly:
    """c_p of a bundle twisted by a line bundle with c_1 = d: the p-th
    elementary symmetric polynomial of the shifted roots x_i + d, which is
    ``sum_k binom(rank-k, p-k) c_k d^(p-k)``."""
    if p < 0 or p > rank:
        raise ValidationError(f"twisted Chern degree {p} out of range 0..{rank}")
    return TwistPoly(
        rank,
        {p - k: ChernPoly.generator(rank, k) * math.comb(rank - k, p - k)
         for k in range(p + 1)},
    )


def on_twisted_generators(poly: ChernPoly, rank: int) -> TwistPoly:
    """``poly`` with every c_k replaced by its twisted counterpart."""
    one = TwistPoly.one(rank)
    images = [one] + [twisted_chern(k, rank) for k in range(1, rank + 1)]
    return evaluate(poly, images, one) if poly else TwistPoly(rank, {})


@lru_cache(maxsize=None)
def _twisted_schur(mu: Partition, rank: int) -> TwistPoly:
    n = len(mu)
    rows = [
        [
            twisted_chern(m, rank) if 0 <= m <= rank else TwistPoly(rank, {})
            for m in (mu.parts[i] + j - i for j in range(n))
        ]
        for i in range(n)
    ]
    return det_in_ring(rows, TwistPoly.one(rank))


def derived_schur_oracle(mu: Partition, rank: int, order: int) -> ChernPoly:
    """The derived Schur class by the twisted route: the Schur determinant
    with every c_k replaced by its twisted counterpart, expanded over
    ``TwistPoly``, and the coefficient of d^order read off."""
    return _twisted_schur(mu, rank).coefficient(order)


def segre_derived(rank: int, order: int) -> ChernPoly:
    """Closed form for the derived classes of the all-ones partition.

    Equals ``binom(2*rank-1, 2*rank-1-order) * schur((1)^(rank-order))``,
    an oracle for the general ``derived_schur`` computation.
    """
    if order < 0 or order > rank:
        raise ValidationError(f"order {order} out of range 0..{rank}")
    lam = Partition((1,) * (rank - order))
    return schur(lam, rank) * math.comb(2 * rank - 1, 2 * rank - 1 - order)


def padded(lam: Partition, n: int) -> tuple[int, ...]:
    """Parts of ``lam`` extended by zeros to length ``n`` (n >= len(lam))."""
    if n < len(lam):
        raise ValidationError(f"cannot pad length-{len(lam)} partition to {n}")
    return lam.parts + (0,) * (n - len(lam))


def schur_bialternant_oracle(lam: Partition, xs: Sequence[Fraction]) -> Fraction:
    """Evaluation of the Schur class at rational points by alternants.

    Evaluates the same class as ``chernpoly.schur`` by the quotient of
    alternants ``det(x_i^(m_j + e - j)) / det(x_i^(e - j))`` where ``m`` runs
    over the conjugate partition padded to length e (the determinant over
    Chern generators expands Schur-wise in the conjugate shape).  The points
    must be pairwise distinct.
    """
    e = len(xs)
    xs = [Fraction(x) for x in xs]
    lam.require_rank(e)
    for i in range(e):
        for j in range(i + 1, e):
            if xs[i] == xs[j]:
                raise ZeroDivisionError(
                    "alternant denominator vanishes: evaluation points must be "
                    "pairwise distinct (perturb and retry)"
                )
    mu = padded(lam.conjugate(), e)
    num = [[xs[i] ** (mu[j] + e - 1 - j) for j in range(e)] for i in range(e)]
    den = [[xs[i] ** (e - 1 - j) for j in range(e)] for i in range(e)]
    return det_in_ring(num, Fraction(1)) / det_in_ring(den, Fraction(1))


def ssyt_contents(lam: Partition, rank: int) -> Iterator[tuple[int, ...]]:
    """Content vectors of the tableaux expanding the Schur class monomially.

    Enumerates semistandard fillings (rows weakly, columns strictly
    increasing) of the *conjugate* shape with entries in 1..rank, matching
    the determinant convention of ``chernpoly.schur``; yields one exponent
    vector per tableau.  Brute-force enumeration.
    """
    lam.require_rank(rank)
    shape = lam.conjugate().parts
    if not shape:
        yield (0,) * rank
        return

    rows: list[list[int]] = []

    def fill_row(r: int, c: int, current: list[int]):
        if c == shape[r]:
            rows.append(current[:])
            yield from fill_rows(r + 1)
            rows.pop()
            return
        lo = current[c - 1] if c > 0 else 1
        if r > 0 and c < len(rows[r - 1]):
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, rank + 1):
            current.append(v)
            yield from fill_row(r, c + 1, current)
            current.pop()

    def fill_rows(r: int):
        if r == len(shape):
            content = [0] * rank
            for row in rows:
                for v in row:
                    content[v - 1] += 1
            yield tuple(content)
            return
        yield from fill_row(r, 0, [])

    yield from fill_rows(0)


def schur_class_ssyt_oracle(bundle, lam: Partition):
    """The Schur class of a split bundle by tableau enumeration: the
    monomial expansion over semistandard tableaux at the twisted roots."""
    model = bundle.model
    total = model.zero(lam.weight)
    for content in ssyt_contents(lam, bundle.rank):
        term = model.one()
        for root, power in zip(bundle.roots, content):
            for _ in range(power):
                term = multiply(term, root)
        total = total + term
    return total


def _gaussian_det(rows) -> GaussianField:
    n = len(rows)
    m = [row[:] for row in rows]
    det = GaussianField(1)
    for col in range(n):
        pr = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pr is None:
            return GaussianField(0)
        if pr != col:
            m[col], m[pr] = m[pr], m[col]
            det = -det
        pivot = m[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def positive_definite_by_minors(entries) -> bool:
    """Sylvester's criterion: every leading principal minor of the Hermitian
    matrix is positive, each by elimination over the Gaussian rationals."""
    for k in range(1, len(entries) + 1):
        det = _gaussian_det([list(row[:k]) for row in entries[:k]])
        assert det.im == 0, "Hermitian minor with a non-real determinant"
        if det.re <= 0:
            return False
    return True


def gaussian_coefficients(form) -> dict:
    """The coefficients of a ``PQForm`` as a map from (I, J) to ``GaussianRational``."""
    return {key: form.coefficient(key) for key in form.coeffs}


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending subsets."""
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        inversions += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if inversions & 1 else 1


class GaussianForm:
    """Oracle (p,q)-form: a map from (I, J) bitmasks to ``GaussianField``.

    Its wedge is the loop the forms module ran before its integer kernel,
    one ``GaussianField`` product per pair of terms, so comparing a
    ``PQForm`` with it checks the numerator/denominator arithmetic against
    field arithmetic that shares none of it.  It supports what the
    generic ``elementary_symmetric`` and ``evaluate`` need.
    """

    def __init__(self, dim: int, p: int, q: int, coeffs):
        self.dim, self.p, self.q = dim, p, q
        self.coeffs = {
            key: GaussianField.coerce(c) for key, c in coeffs.items() if c != 0
        }

    @classmethod
    def of(cls, form) -> "GaussianForm":
        return cls(form.dim, form.p, form.q, gaussian_coefficients(form))

    @classmethod
    def one(cls, dim: int) -> "GaussianForm":
        return cls(dim, 0, 0, {(0, 0): GaussianField(1)})

    def __add__(self, other: "GaussianForm") -> "GaussianForm":
        assert (self.dim, self.p, self.q) == (other.dim, other.p, other.q)
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, GaussianField(0)) + c
        return GaussianForm(self.dim, self.p, self.q, merged)

    def __neg__(self) -> "GaussianForm":
        return self * -1

    def __sub__(self, other: "GaussianForm") -> "GaussianForm":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GaussianForm):
            return wedge_oracle(self, other)
        s = GaussianField.coerce(other)
        return GaussianForm(
            self.dim, self.p, self.q, {k: c * s for k, c in self.coeffs.items()}
        )

    def __pow__(self, n: int) -> "GaussianForm":
        result = GaussianForm.one(self.dim)
        for _ in range(n):
            result = wedge_oracle(result, self)
        return result

    def __eq__(self, other):
        return (self.dim, self.p, self.q, self.coeffs) == (
            other.dim,
            other.p,
            other.q,
            other.coeffs,
        )


def wedge_oracle(a: GaussianForm, b: GaussianForm) -> GaussianForm:
    """Exterior product over ``GaussianField``: the Koszul sign
    (-1)^(|J||K|) times the shuffle signs of I|K and J|L, per pair of terms."""
    out: dict = {}
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
    return GaussianForm(a.dim, a.p + b.p, a.q + b.q, out)


def _top_coefficient_oracle(a: GaussianForm, b: GaussianForm) -> GaussianField:
    full = (1 << a.dim) - 1
    total = GaussianField(0)
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


def _volume_oracle(dim: int) -> GaussianField:
    vol = GaussianForm.one(dim)
    for j in range(dim):
        vol = wedge_oracle(
            vol, GaussianForm(dim, 1, 1, {(1 << j, 1 << j): GaussianField.i()})
        )
    full = (1 << dim) - 1
    return vol.coeffs[(full, full)]


def integrate_top_oracle(omega: GaussianForm) -> Fraction:
    """Top integral of a real (d,d)-form over ``GaussianField``."""
    full = (1 << omega.dim) - 1
    r = omega.coeffs.get((full, full), GaussianField(0)) / _volume_oracle(omega.dim)
    assert r.im == 0
    return r.re


@lru_cache(maxsize=None)
def real_oneone_basis(dim: int) -> tuple[PQForm, ...]:
    """Canonical real basis of the d^2-dimensional space of real (1,1)-forms.

    Order: the diagonal forms i dz_j dzbar_j; then i(dz_j dzbar_k +
    dz_k dzbar_j) for j < k; then dz_j dzbar_k - dz_k dzbar_j for j < k.
    It is the basis ``forms.hr_gram`` reads its entries on, built as forms
    for ``hr_gram_oracle``.
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


def hr_gram_oracle(omega: GaussianForm, basis) -> list[list[Fraction]]:
    """The Hodge-Riemann Gram of ``omega`` on ``basis`` (oracle forms), by
    oracle wedges and top coefficients over ``GaussianField``."""
    vol = _volume_oracle(omega.dim)
    mids = [wedge_oracle(b, omega) for b in basis]
    n = len(basis)
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = _top_coefficient_oracle(mids[i], basis[j]) / vol
            assert val.im == 0
            gram[i][j] = gram[j][i] = val.re
    return gram


def congruence_diagonal_oracle(matrix) -> tuple[list[Fraction], int]:
    """Congruence diagonal by ``Fraction`` elimination, and the number of
    shears it took.

    The reduction the inertia module ran before it went fraction-free: the
    same pivot order (first nonzero diagonal entry, else the first nonzero
    off-diagonal entry m_jk, sheared in by e_j -> e_j + e_k), with every
    Schur complement formed over the rationals.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    live = list(range(len(m)))
    diag: list[Fraction] = []
    shears = 0
    while live:
        pivot = next((j for j in live if m[j][j] != 0), None)
        if pivot is None:
            off = next(
                ((j, k) for j in live for k in live if k > j and m[j][k] != 0), None
            )
            if off is None:
                break
            pivot, k = off
            shears += 1
            for s in live:
                m[pivot][s] += m[k][s]
            m[pivot][pivot] += m[pivot][k]
            for s in live:
                m[s][pivot] = m[pivot][s]
        d = m[pivot][pivot]
        diag.append(d)
        live.remove(pivot)
        col = {r: m[r][pivot] for r in live}
        for r in live:
            cr = col[r]
            if cr == 0:
                continue
            for s in live:
                m[r][s] -= cr * col[s] / d
    return diag + [Fraction(0)] * len(live), shears


def chord_strict_oracle(values) -> bool:
    """Strict log-concavity of a positive sequence by the full chord
    condition f(i)^(k-j) f(k)^(j-i) < f(j)^(k-i) for all i < j < k: every
    triple, where ``certify`` checks only adjacent ones."""
    vals = [Fraction(v) for v in values]
    n = len(vals)
    return all(
        vals[i] ** (k - j) * vals[k] ** (j - i) < vals[j] ** (k - i)
        for i in range(n)
        for k in range(i + 2, n)
        for j in range(i + 1, k)
    )


def proportionality_oracle(v, h) -> Fraction | None:
    """kappa with v = kappa * h, read off coordinates, or None: the
    witness ``certify.hodge_index_check`` gets from Q(v,h) / Q(h)."""
    v = [Fraction(x) for x in v]
    h = [Fraction(x) for x in h]
    if all(x == 0 for x in v):
        return Fraction(0)
    pivot = next((i for i, x in enumerate(h) if x != 0), None)
    if pivot is None:
        return None
    kappa = v[pivot] / h[pivot]
    return kappa if all(v[i] == kappa * h[i] for i in range(len(v))) else None


def hl_pencil_det_oracle(t) -> Fraction:
    """det(R + (2t + 3t^2) S) at the rational ``t``, for the Grams R of c2
    and S of c1^2 on ``hl_failure_instance``: one rational determinant per
    point, where ``hl_failure_scan`` expands the determinant over Q[t]."""
    bundle, basis = hl_failure_instance()
    c1 = chern(bundle, 1)
    r = gram_on_basis(chern(bundle, 2), basis)
    s = gram_on_basis(multiply(c1, c1), basis)
    u = 2 * t + 3 * t * t
    return rational_det(
        [[r_ij + u * s_ij for r_ij, s_ij in zip(r_row, s_row)] for r_row, s_row in zip(r, s)]
    )


def primitive(p: QPoly) -> QPoly:
    """Integer-primitive associate of ``p`` with positive leading coefficient."""
    p = p.content_normalized()
    return -p if p and p.leading() < 0 else p


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Primitive gcd by the Euclidean algorithm, normalized each step."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(divmod(a, b)[1])
    return a


def squarefree_part(p: QPoly) -> QPoly:
    """Primitive p / gcd(p, p'); 1 for a constant or zero ``p``."""
    if p.degree() <= 0:
        return QPoly.of(1)
    return primitive(divmod(p, poly_gcd(p, p.derivative()))[0])


def odd_multiplicity_part(p: QPoly) -> QPoly:
    """Product of the square-free factors of odd multiplicity, by Yun's
    decomposition (SYMSAC 1976); ``p`` changes sign exactly at its real
    roots.  ``qpoly.nonneg_on_reals`` counts them by alternating Sturm
    counts instead."""
    p = primitive(p)
    odd = QPoly.of(1)
    g = poly_gcd(p, p.derivative())
    c = divmod(p, g)[0]
    d = divmod(p.derivative(), g)[0] - c.derivative()
    multiplicity = 1
    while c.degree() > 0:
        a = poly_gcd(c, d)  # the square-free factor of this multiplicity
        if multiplicity % 2:
            odd = odd * a
        c = divmod(c, a)[0]
        d = divmod(d, a)[0] - c.derivative()
        multiplicity += 1
    return primitive(odd)


def partitions_of(weight: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``weight`` with parts bounded by ``max_part``."""
    if weight < 0:
        return
    bound = weight if max_part is None else min(max_part, weight)

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    if weight == 0:
        yield Partition(())
        return
    yield from rec(weight, bound, [])
