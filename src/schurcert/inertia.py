"""Exact inertia, rank and determinant of symmetric rational matrices.

One congruence reduction, :func:`congruence_diagonal`, serves all three: by
Sylvester's law of inertia the signs of its diagonal give (n+, n0, n-), the
number of nonzero entries is the rank and their product is det M.  No
eigenvalue computation and no floating point is involved.

:class:`HodgeRiemannVerdict` holds a pairing's inertia triple and its
positivity integral, and is the one place that decides Hodge-Riemann and
Hard Lefschetz from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ValidationError, exact_rational

Matrix = Sequence[Sequence[Fraction]]


class HodgeRiemannVerdict(NamedTuple):
    """The inertia (n+, n0, n-) of a pairing and its positivity integral."""

    triple: tuple[int, int, int]
    positivity_scalar: Fraction

    @property
    def hr_flag(self) -> bool:
        """Positive integral and signature (1, 0, n-1)."""
        return self.positivity_scalar > 0 and self.triple == (1, 0, sum(self.triple) - 1)

    @property
    def hl_flag(self) -> bool:
        """Nondegeneracy (no zero eigenvalues)."""
        return self.triple[1] == 0


def _integer_rows(matrix: Matrix) -> tuple[list[list[int]], int]:
    """The integer matrix A = L*M of a symmetric M and L > 0, the lcm of
    the denominators of M's non-int entries.  Only those entries enter the
    lcm; when every entry is an int, L = 1 and the rows pass through."""
    rows = [[x if type(x) is int else exact_rational(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValidationError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValidationError(
                    f"matrix is not symmetric at ({i},{j}): "
                    f"{rows[i][j]} != {rows[j][i]}"
                )
    dens = [x.denominator for row in rows for x in row if type(x) is not int]
    if not dens:
        return rows, 1
    scale = math.lcm(*dens)
    return [
        [x * scale if type(x) is int else x.numerator * (scale // x.denominator) for x in row]
        for row in rows
    ], scale


def congruence_diagonal(matrix: Matrix) -> list[Fraction]:
    """Diagonal of D = P^T M P for a symmetric M, with det P = +-1.

    Appends the pivot ``d`` of each elimination step and one ``0`` for each
    row of the zero block that remains.  Every step is a congruence of
    determinant +-1: a symmetric swap (choosing the pivot), a unit-triangular
    Schur complement, and, when no nonzero diagonal entry is left but an
    off-diagonal entry m_jk is, the shear e_j -> e_j + e_k, which has
    determinant 1 and makes the diagonal entry at j equal to 2 m_jk.  So the
    signs of the entries give the inertia, the number of nonzero entries the
    rank, and their product det M.  Non-symmetric input is rejected.

    The elimination is fraction-free (Bareiss 1968) on the integer matrix
    A = L*M, L > 0 the lcm of the denominators.  Once the pivots S are
    eliminated, entry (r, s) holds the integer minor det A[S+r, S+s], and
    each update divides exactly by the previous leading minor
    ``prev = det A[S, S]``.  A shear acts on rows and columns outside S
    only, so the stored minors are those of the sheared A and ``prev`` is
    unchanged.  The Schur complement of M at (r, s) is that minor over
    ``L * prev``, so the pivots are read off as exact ratios.
    """
    m, scale = _integer_rows(matrix)
    live = list(range(len(m)))
    prev = 1
    diag: list[Fraction] = []
    while live:
        pivot = next((j for j in live if m[j][j]), None)
        if pivot is None:
            off = next(((j, k) for j in live for k in live if k > j and m[j][k]), None)
            if off is None:
                break  # remaining block is zero
            pivot, k = off
            # Shear e_j -> e_j + e_k: row j += row k, then column j += column k.
            row_p, row_k = m[pivot], m[k]
            for s in live:
                row_p[s] += row_k[s]
            row_p[pivot] += row_p[k]
            for s in live:
                m[s][pivot] = row_p[s]
        d = m[pivot][pivot]
        diag.append(Fraction(d, prev * scale))
        live.remove(pivot)
        row_p = m[pivot]
        for x, r in enumerate(live):
            row = m[r]
            cr = row_p[r]
            for s in live[x:]:
                v = (d * row[s] - cr * row_p[s]) // prev
                row[s] = v
                m[s][r] = v
        prev = d
    return diag + [Fraction(0)] * len(live)


def inertia_triple(matrix: Matrix) -> tuple[int, int, int]:
    """(n+, n0, n-) of a symmetric matrix: the signs of its congruence diagonal."""
    diag = congruence_diagonal(matrix)
    n_plus = sum(1 for x in diag if x > 0)
    n_minus = sum(1 for x in diag if x < 0)
    return n_plus, len(diag) - n_plus - n_minus, n_minus


def quadratic_value(matrix: Matrix, v: Sequence[Fraction], w=None) -> Fraction:
    """Q(v, w) for the symmetric matrix Q; ``Q(v, v)`` when w is omitted."""
    if w is None:
        w = v
    n = len(matrix)
    if len(v) != n or len(w) != n:
        raise ValidationError("vector length does not match the matrix")
    total = Fraction(0)
    for i in range(n):
        vi = exact_rational(v[i])
        if vi == 0:
            continue
        row = matrix[i]
        total += vi * sum(exact_rational(row[j]) * exact_rational(w[j]) for j in range(n))
    return total


def congruent(matrix: Matrix, p: Matrix) -> list[list[Fraction]]:
    """P^T M P, exactly."""
    n = len(matrix)
    if len(p) != n or any(len(row) != len(p[0]) for row in p):
        raise ValidationError("incompatible congruence matrix")
    k = len(p[0])
    mp = [
        [
            sum(exact_rational(matrix[i][j]) * exact_rational(p[j][c]) for j in range(n))
            for c in range(k)
        ]
        for i in range(n)
    ]
    return [
        [sum(exact_rational(p[j][r]) * mp[j][c] for j in range(n)) for c in range(k)]
        for r in range(k)
    ]


def kernel_basis(phi: Sequence[Fraction]) -> list[list[Fraction]]:
    """Basis of the kernel of a nonzero covector, as column vectors."""
    n = len(phi)
    phi = [exact_rational(x) for x in phi]
    pivot = next((i for i, x in enumerate(phi) if x != 0), None)
    if pivot is None:
        raise ValidationError("covector is zero; kernel is everything")
    basis = []
    for i in range(n):
        if i == pivot:
            continue
        vec = [Fraction(0)] * n
        vec[i] = Fraction(1)
        vec[pivot] = -phi[i] / phi[pivot]
        basis.append(vec)
    return basis


def restrict_to_kernel(matrix: Matrix, phi: Sequence[Fraction]) -> list[list[Fraction]]:
    """Gram matrix of Q restricted to ker(phi), in the standard kernel basis."""
    basis = kernel_basis(phi)
    cols = [[basis[c][r] for c in range(len(basis))] for r in range(len(phi))]
    return congruent(matrix, cols)


def rational_det(matrix: Matrix) -> Fraction:
    """Exact determinant of a symmetric matrix: the product of its congruence
    diagonal.  Non-symmetric input is rejected."""
    return math.prod(congruence_diagonal(matrix), start=Fraction(1))
