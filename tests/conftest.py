"""Shared independent oracles for the test suite.

These deliberately recompute things by structurally different routes
(characteristic polynomials, brute-force symbol sorting, alternants,
tableau sums) so that the production code paths are checked against
something they do not share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import pytest

from schurcert.chernpoly import ChernPoly, det_in_ring, evaluate
from schurcert.errors import ValidationError
from schurcert.gaussian import GaussianRational
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly
from schurcert.rings import multiply


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


def chern_by_subsets(bundle, p: int):
    """c_p of a split bundle as the sum, over all p-subsets of the shifted
    roots, of their products."""
    model = bundle.model
    if p == 0:
        return model.one()
    total = model.zero(p)
    for subset in itertools.combinations(bundle.shifted_roots(), p):
        term = subset[0]
        for root in subset[1:]:
            term = multiply(term, root)
        total = total + term
    return total


def substitute(
    poly: ChernPoly,
    c_images: Mapping[int, ChernPoly],
    extra_images: Sequence[ChernPoly] = (),
) -> ChernPoly:
    """Evaluate ``poly`` at images of the generators and twist variables.

    All images must live in one common algebra; image of ``c_k`` must be
    homogeneous of grade k, images of twist variables of grade 1.
    """
    images = list(c_images.values()) + list(extra_images)
    if not images:
        raise ValidationError("substitution needs at least one image")
    rank, nextra = images[0].rank, images[0].nextra
    for img in images:
        if img.rank != rank or img.nextra != nextra:
            raise ValidationError("substitution images live in different algebras")
    for k, img in c_images.items():
        if img.terms and img.grade != k:
            raise ValidationError(f"image of c_{k} must have grade {k}")
    for img in extra_images:
        if img.terms and img.grade != 1:
            raise ValidationError("twist-variable images must have grade 1")
    for cs, _extras in poly.terms:
        for k in cs:
            if k not in c_images:
                raise ValidationError(f"no image supplied for c_{k}")
    if not poly.terms:
        return ChernPoly.zero(rank, nextra)
    return evaluate(poly, c_images, ChernPoly.one(rank, nextra), extra_images)


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
    mu = lam.conjugate().padded(e)
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
    monomial expansion over semistandard tableaux at the shifted roots."""
    model = bundle.model
    shifted = bundle.shifted_roots()
    total = model.zero(lam.weight)
    for content in ssyt_contents(lam, bundle.rank):
        term = model.one()
        for root, power in zip(shifted, content):
            for _ in range(power):
                term = multiply(term, root)
        total = total + term
    return total


def _gaussian_det(rows) -> GaussianRational:
    n = len(rows)
    m = [row[:] for row in rows]
    det = GaussianRational(1)
    for col in range(n):
        pr = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pr is None:
            return GaussianRational(0)
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


@pytest.fixture
def gaussian():
    return GaussianRational
