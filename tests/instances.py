"""Seeded random instance generators for the certification suites.

Every generator takes an explicit ``random.Random``; suites derive one
deterministic per-instance generator from a master seed, so identical
seeds reproduce identical instances bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from schurcert.certify import BlockFormInstance
from schurcert.chernpoly import det_in_ring
from schurcert.errors import ValidationError
from schurcert.forms import PQForm, hermitian_form
from schurcert.gaussian import GaussianRational
from schurcert.inertia import congruent
from schurcert.rings import GradedClass, RingModel, SplitBundle


def rng_for(master_seed: int, index: int) -> random.Random:
    """Per-instance generator derived deterministically from the master seed."""
    return random.Random((master_seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF)


def random_fraction(rng: random.Random, max_num: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_ample_class(rng: random.Random, model: RingModel, hi: int = 4) -> GradedClass:
    return model.degree_one([rng.randint(1, hi) for _ in model.gen_names])


def random_ample_bundle(
    rng: random.Random, model: RingModel, rank: int, with_twist: bool = True
) -> SplitBundle:
    """Split bundle passing the all-positive-coefficients criterion.

    Roots get coefficients 2..5; half the bundles also get a twist with
    entries -1..2.  Every shifted root then has coefficients of at least 1,
    so the twist is drawn once and never needs a positivity test.
    """
    k = len(model.gen_names)
    roots = [
        model.degree_one([rng.randint(2, 5) for _ in range(k)]) for _ in range(rank)
    ]
    if with_twist and rng.random() < 0.5:
        twist = model.degree_one([Fraction(rng.randint(-1, 2)) for _ in range(k)])
        return SplitBundle(model, roots, twist)
    return SplitBundle(model, roots)


def random_block_instance(rng: random.Random, rho: int) -> BlockFormInstance:
    """Instance satisfying the block-form hypotheses by construction.

    In coordinates adapted to phi the extended pairing splits into a
    hyperbolic plane and a negative definite block, which forces the
    signature (1, 0, rho); a random exact change of basis then hides the
    adapted coordinates.  Hypotheses are still re-verified downstream.
    """
    if rho < 2:
        raise ValidationError("need rho >= 2")
    # Adapted data: Q(v1) = q > 0, arbitrary couplings r, negative block N.
    q = Fraction(rng.randint(1, 9))
    r = [random_fraction(rng) for _ in range(rho - 1)]
    a = [
        [random_fraction(rng) for _ in range(rho - 1)]
        for _ in range(rho - 1)
    ]
    n = [
        [
            -sum(a[k][i] * a[k][j] for k in range(rho - 1))
            - (Fraction(1) if i == j else Fraction(0))
            for j in range(rho - 1)
        ]
        for i in range(rho - 1)
    ]
    adapted = [[Fraction(0)] * rho for _ in range(rho)]
    adapted[0][0] = q
    for i in range(rho - 1):
        adapted[0][i + 1] = r[i]
        adapted[i + 1][0] = r[i]
        for j in range(rho - 1):
            adapted[i + 1][j + 1] = n[i][j]

    # Random invertible basis matrix B: columns are the adapted basis in
    # standard coordinates.  Unimodular by construction (unit triangular
    # factors), so exactly invertible.
    lower = [
        [Fraction(1) if i == j else (random_fraction(rng, 2, 2) if i > j else Fraction(0))
         for j in range(rho)]
        for i in range(rho)
    ]
    upper = [
        [Fraction(1) if i == j else (random_fraction(rng, 2, 2) if i < j else Fraction(0))
         for j in range(rho)]
        for i in range(rho)
    ]
    b = [
        [sum(lower[i][k] * upper[k][j] for k in range(rho)) for j in range(rho)]
        for i in range(rho)
    ]
    binv = invert_matrix(b)

    # Q_std = B^{-T} Q_adapted B^{-1}; phi_std = (1,0,...,0) B^{-1};
    # h = first adapted basis vector = first column of B.
    q_std = congruent(adapted, binv)
    phi_std = [binv[0][j] for j in range(rho)]
    h = [b[i][0] for i in range(rho)]
    return BlockFormInstance.of(q_std, phi_std, h)


def invert_matrix(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of an invertible matrix, by Gauss-Jordan elimination."""
    n = len(m)
    aug = [
        [Fraction(x) for x in row]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        pr = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pr] = aug[pr], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_vector(rng: random.Random, n: int, hi: int = 5) -> list[Fraction]:
    return [Fraction(rng.randint(-hi, hi)) for _ in range(n)]


def random_pd_hermitian(rng: random.Random, dim: int) -> PQForm:
    """The Kaehler form of B* B + I for a random Gaussian-rational B."""
    b = [
        [
            GaussianRational(
                Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
            )
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    entries = [
        [
            sum(
                (b[k][i].conj() * b[k][j] for k in range(dim)),
                GaussianRational(1 if i == j else 0),
            )
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return hermitian_form(entries)


def random_symmetric_matrix(rng: random.Random, n: int, hi: int = 4) -> list[list[Fraction]]:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-hi, hi))
            m[i][j] = v
            m[j][i] = v
    return m


def random_invertible_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if det_in_ring(m, Fraction(1)) != 0:
            return m
