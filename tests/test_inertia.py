import math
import random
from fractions import Fraction

import pytest
from conftest import congruence_diagonal_oracle, inertia_by_charpoly
from instances import random_invertible_matrix, random_symmetric_matrix

from schurcert.chernpoly import det_in_ring
from schurcert.errors import ValidationError
from schurcert.inertia import (
    HodgeRiemannVerdict,
    congruence_diagonal,
    congruent,
    inertia_triple,
    kernel_basis,
    quadratic_value,
    rational_det,
    restrict_to_kernel,
)


def test_spec_examples():
    assert inertia_triple([[0, 1], [1, 0]]) == (1, 0, 1)
    m = [[0, 20, 0], [20, 0, 0], [0, 0, 40]]
    assert inertia_triple(m) == (2, 0, 1)
    assert inertia_triple([[0] * 4 for _ in range(4)]) == (0, 4, 0)


def test_report_fields():
    # HR needs a positive integral and inertia (1, 0, n-1); HL needs n0 = 0.
    for triple, positivity, hr, hl in [
        ((1, 0, 15), 1, True, True),
        ((1, 0, 15), -1, False, True),
        ((2, 0, 14), 1, False, True),
        ((1, 1, 14), 1, False, False),
    ]:
        rep = HodgeRiemannVerdict(triple, Fraction(positivity))
        assert (rep.hr_flag, rep.hl_flag) == (hr, hl)


def test_rejects_non_symmetric():
    with pytest.raises(ValidationError):
        inertia_triple([[0, 1], [2, 0]])
    with pytest.raises(ValidationError):
        inertia_triple([[1, 2, 3], [2, 1, 1]])


def test_agrees_with_charpoly_oracle():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_symmetric_matrix(rng, n)
        assert inertia_triple(m) == inertia_by_charpoly(m)


def test_congruence_invariance():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_symmetric_matrix(rng, n)
        p = random_invertible_matrix(rng, n)
        assert inertia_triple(congruent(m, p)) == inertia_triple(m)


def test_diagonal_and_definite_cases():
    assert inertia_triple([[2]]) == (1, 0, 0)
    assert inertia_triple([[-3]]) == (0, 0, 1)
    d = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    assert inertia_triple(d) == (1, 1, 1)


def test_quadratic_value():
    q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert quadratic_value(q, [1, 0]) == 1
    assert quadratic_value(q, [0, 1]) == -1
    assert quadratic_value(q, [1, 1], [1, -1]) == 2
    with pytest.raises(ValidationError):
        quadratic_value(q, [1, 0, 0])


def test_quadratic_value_refuses_a_ragged_matrix():
    # A short row is refused, not read as far as it goes, whichever
    # entry of v meets it; so is a long row.
    for ragged in ([[1, 0], [0]], [[1], [0, -1]], [[1, 0, 5], [0, -1]]):
        for v in ([1, 1], [1, 0], [0, 1]):
            with pytest.raises(ValidationError, match="not square"):
                quadratic_value(ragged, v)
            with pytest.raises(ValidationError, match="not square"):
                quadratic_value(ragged, v, [1, 1])


def test_kernel_basis_and_restriction():
    phi = [Fraction(2), Fraction(0), Fraction(1)]
    basis = kernel_basis(phi)
    assert len(basis) == 2
    for vec in basis:
        assert sum(a * b for a, b in zip(phi, vec)) == 0
    q = [[2, 0, 0], [0, -1, 0], [0, 0, -1]]
    restricted = restrict_to_kernel(q, phi)
    assert len(restricted) == 2
    with pytest.raises(ValidationError):
        kernel_basis([Fraction(0), Fraction(0)])


def _rank(m):
    return sum(1 for x in congruence_diagonal(m) if x != 0)


def test_rational_det_and_rank():
    with pytest.raises(ValidationError):
        rational_det([[1, 2], [3, 4]])
    assert rational_det([[1, 2], [2, 4]]) == 0
    assert rational_det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert rational_det([[0, 3], [3, 0]]) == -9
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        p, z, mi = inertia_triple(sym)
        det = rational_det(sym)
        if z > 0:
            assert det == 0
        else:
            assert (det > 0) == (mi % 2 == 0)


def _sparse_symmetric(rng, n):
    """About 40% zero entries; half the draws have an all-zero diagonal, so
    the reduction must shear an off-diagonal entry onto the diagonal."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= 0.4:
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if rng.random() < 0.5:
        for i in range(n):
            m[i][i] = Fraction(0)
    return m


def _seeded_sparse_cases():
    """200 seeded (matrix, invertible congruence) pairs, n <= 7."""
    rng = random.Random(1905)
    for _ in range(200):
        n = rng.randint(1, 7)
        m = _sparse_symmetric(rng, n)
        yield m, random_invertible_matrix(rng, n)


def test_congruence_diagonal_gives_det_inertia_and_rank():
    for m, p in _seeded_sparse_cases():
        n = len(m)
        diag = congruence_diagonal(m)
        assert len(diag) == n
        assert math.prod(diag, start=Fraction(1)) == det_in_ring(m, Fraction(1))
        signs = (
            sum(1 for x in diag if x > 0),
            sum(1 for x in diag if x == 0),
            sum(1 for x in diag if x < 0),
        )
        assert signs == inertia_by_charpoly(m)
        det_p = det_in_ring(p, Fraction(1))
        assert rational_det(congruent(m, p)) == det_p * det_p * rational_det(m)


def test_fraction_free_diagonal_matches_fraction_oracle():
    sheared = from_zero_diagonal = 0
    for m, p in _seeded_sparse_cases():
        expected, shears = congruence_diagonal_oracle(m)
        assert congruence_diagonal(m) == expected
        sheared += shears > 0
        from_zero_diagonal += shears > 0 and all(m[i][i] == 0 for i in range(len(m)))
        # A congruent copy with larger denominators and entries.
        mp = congruent(m, p)
        assert congruence_diagonal(mp) == congruence_diagonal_oracle(mp)[0]
    # 76 start from an all-zero diagonal; 5 more reach a zero block later.
    assert (sheared, from_zero_diagonal) == (81, 76)


def test_shear_doubles_the_off_diagonal_entry():
    # e_0 -> e_0 + e_1 takes [[0, 3], [3, 0]] to [[6, 3], [3, 0]].
    assert congruence_diagonal([[0, 3], [3, 0]]) == [6, Fraction(-3, 2)]


def test_shear_after_a_nonzero_pivot():
    # d (+) H with H zero-diagonal, mixed by e_i -> e_i + c_i e_0: the first
    # pivot is d, its Schur complement is H, so the shear comes with an
    # even scale L and prev = d * L, a multiple of 3, 5 or 7.
    rng = random.Random(1905)
    for _ in range(20):
        n = rng.randint(3, 6)
        d = Fraction(rng.choice([-5, -3, 3, 7]), rng.choice([2, 4]))
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n - 1)]
        h = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                h[i][j] = h[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        h[0][1] = h[1][0] = Fraction(rng.choice([-3, -1, 1, 5]), 2)
        m = [[d] + [d * ci for ci in c]] + [
            [d * c[i]] + [h[i][j] + d * c[i] * c[j] for j in range(n - 1)]
            for i in range(n - 1)
        ]
        expected, shears = congruence_diagonal_oracle(m)
        assert shears > 0
        assert congruence_diagonal(m) == expected
        assert expected[0] == d
        assert rational_det(m) == det_in_ring(m, Fraction(1))
        assert inertia_triple(m) == inertia_by_charpoly(m)


def test_fraction_free_diagonal_on_scaled_and_degenerate_input():
    rng = random.Random(1968)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = _sparse_symmetric(rng, n)
        # Rank-deficient: repeat a row and column.
        if n > 1:
            j = rng.randrange(n - 1)
            for row in m:
                row[-1] = row[j]
            m[-1] = list(m[j])
        for scale in (Fraction(1), Fraction(-7, 3), Fraction(1, 360)):
            scaled = [[x * scale for x in row] for row in m]
            assert congruence_diagonal(scaled) == congruence_diagonal_oracle(scaled)[0]
    assert congruence_diagonal([]) == []


def test_int_matrix_gives_the_diagonal_of_its_fraction_twin():
    # An int entry passes through unchanged; the Fraction twin takes the
    # lcm route.  Both give the same pivots, as Fractions.
    rng = random.Random(2019)
    for _ in range(100):
        n = rng.randint(1, 7)
        ints = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() >= 0.4:
                    ints[i][j] = ints[j][i] = rng.randint(-9, 9)
        if rng.random() < 0.5:
            for i in range(n):
                ints[i][i] = 0
        twin = [[Fraction(x) for x in row] for row in ints]
        diag = congruence_diagonal(ints)
        assert diag == congruence_diagonal(twin)
        assert all(type(x) is Fraction for x in diag)
        assert inertia_triple(ints) == inertia_triple(twin)
    for bad in (0.5, "1/2"):
        with pytest.raises(ValidationError):
            congruence_diagonal([[1, 0], [0, bad]])
