"""Shared independent oracles for the test suite.

These deliberately recompute things by structurally different routes
(characteristic polynomials, brute-force symbol sorting) so that the
production code paths are checked against something they do not share.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from schurcert.chernpoly import det_in_ring
from schurcert.gaussian import GaussianRational
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
