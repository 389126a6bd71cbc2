"""The integer-numerator forms kernel against the ``GaussianField`` oracle.

Each behaviour of the kernel is compared once with the oracle wedge of
``conftest.GaussianForm``, which computes with field arithmetic over Q(i):
wedges, sums, scalar multiples, powers and chains on seeded random forms
with non-real coefficients, mixed denominators and cancellation to zero,
and the Schur form of one seeded Kaehler pair per dimension 3, 4 and 5.
Top integrals and Hodge-Riemann Grams are compared in ``test_hr_pairing``.
"""

import itertools
import math
import random
from fractions import Fraction

from conftest import GaussianForm, _volume_oracle
from instances import random_pd_hermitian, rng_for
from test_acceptance import MASTER_SEED

from schurcert.chernpoly import elementary_symmetric, evaluate, schur
from schurcert.forms import MAX_DIM, PQForm, _volume_unit, schur_form, wedge
from schurcert.gaussian import GaussianRational
from schurcert.partitions import Partition

def same(form: PQForm, oracle: GaussianForm) -> bool:
    return GaussianForm.of(form) == oracle


def oracle_schur_form(lam: Partition, forms: list[GaussianForm]) -> GaussianForm:
    one = GaussianForm.one(forms[0].dim)
    return evaluate(schur(lam, len(forms)), elementary_symmetric(forms, one), one)


def test_volume_unit_matches_the_oracle_wedge():
    # The closed form i^(d^2) against the d-fold wedge of i dz_j dzbar_j.
    for d in range(1, MAX_DIM + 1):
        assert GaussianRational(*_volume_unit(d)) == _volume_oracle(d)


def _random_coefficient(rng):
    """Non-real as a rule, over denominators that differ from term to term."""
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9))),
        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 7))),
    )


def _random_form(rng, dim, p, q, terms):
    idx = list(itertools.combinations(range(dim), p))
    jdx = list(itertools.combinations(range(dim), q))
    coeffs = {}
    for _ in range(terms):
        i_mask = sum(1 << b for b in rng.choice(idx))
        j_mask = sum(1 << b for b in rng.choice(jdx))
        coeffs[(i_mask, j_mask)] = _random_coefficient(rng)
    return PQForm(dim, p, q, coeffs)


def test_random_forms_match_oracle():
    rng = random.Random(613)
    for dim in (2, 3, 4, 5, 6):
        for _ in range(6):
            p1, q1 = rng.randint(0, 2), rng.randint(0, 2)
            p2, q2 = rng.randint(0, dim - p1), rng.randint(0, dim - q1)
            a = _random_form(rng, dim, p1, q1, rng.randint(1, 12))
            b = _random_form(rng, dim, p2, q2, rng.randint(1, 12))
            c = _random_form(rng, dim, p2, q2, rng.randint(1, 12))
            oa, ob, oc = GaussianForm.of(a), GaussianForm.of(b), GaussianForm.of(c)
            s = _random_coefficient(rng)
            assert same(wedge(a, b), oa * ob)
            assert same(wedge(a, b + c), oa * (ob + oc))
            assert same(b * s - c, ob * s - oc)
            assert same(a.conj(), GaussianForm.of(a.conj()))
        # A chain of d (1,1)-forms reaches the top degree, and so does a power.
        ws = [_random_form(rng, dim, 1, 1, rng.randint(2, dim * dim)) for _ in range(dim)]
        chain, chain_o = PQForm.one(dim), GaussianForm.one(dim)
        for w in ws:
            chain, chain_o = wedge(chain, w), chain_o * GaussianForm.of(w)
            assert same(chain, chain_o)
        assert same(ws[0] ** dim, GaussianForm.of(ws[0]) ** dim)
    # The Schur form of a seeded Kaehler pair, as acceptance criterion 07 draws it.
    for d in (3, 4, 5):
        pair_rng = rng_for(MASTER_SEED + d, 0)
        w1, w2 = random_pd_hermitian(pair_rng, d), random_pd_hermitian(pair_rng, d)
        lam = Partition([1] * (d - 2))
        oracle = oracle_schur_form(lam, [GaussianForm.of(w1), GaussianForm.of(w2)])
        assert same(schur_form(lam, [w1, w2]), oracle), d


def test_cancellation_to_zero_and_denominators():
    rng = random.Random(614)
    for dim in (2, 3, 4, 5, 6):
        # An odd form squares to zero term by term: dz_j dz_k + dz_k dz_j = 0.
        a = PQForm(dim, 1, 0, {(1 << j, 0): _random_coefficient(rng) for j in range(dim)})
        assert len(a.coeffs) > 1
        square = wedge(a, a)
        assert square.is_zero() and square.den == 1
        assert same(square, GaussianForm.of(a) * GaussianForm.of(a))
        b = _random_form(rng, dim, 1, 1, 4)
        assert (b - b).is_zero() and (b - b).den == 1
        # Sixths and thirds add up to halves: the gcd leaves den = 2 * b.den.
        half = b * Fraction(1, 6) + b * Fraction(1, 3)
        assert half == b * Fraction(1, 2)
        assert same(half, GaussianForm.of(b) * Fraction(1, 2))
        # Multiplying by i and by -i cancels; multiplying by 4 and 1/4 too.
        assert b * GaussianRational.i() * GaussianRational(0, -1) == b
        assert (b * 4) * Fraction(1, 4) == b


def test_numerator_invariant():
    rng = random.Random(615)
    for dim in (2, 3, 4, 5, 6):
        forms = [_random_form(rng, dim, 1, 1, 5) for _ in range(3)]
        for f in forms + [wedge(forms[0], forms[1]), forms[1] + forms[2]]:
            assert f.den > 0
            nums = [x for pair in f.coeffs.values() for x in pair]
            assert all(pair != (0, 0) for pair in f.coeffs.values())
            assert math.gcd(f.den, *nums) == 1
