import math
import random
from fractions import Fraction

import pytest
from conftest import (
    TwistPoly,
    derived_schur_oracle,
    on_twisted_generators,
    partitions_of,
    schur_bialternant_oracle,
    segre_derived,
    ssyt_contents,
    twisted_chern,
)

from schurcert.chernpoly import (
    ChernPoly,
    derived_schur,
    det_in_ring,
    elementary_symmetric,
    evaluate,
    format_poly,
    jacobi_trudi,
    schur,
)
from schurcert.errors import ValidationError
from schurcert.forms import PQForm
from schurcert.partitions import Partition
from schurcert.rings import proj


def c(k, e):
    return ChernPoly.generator(e, k)


class TestSchur:
    def test_paper_values(self):
        assert schur(Partition([2, 1]), 3) == c(1, 3) * c(2, 3) - c(3, 3)
        assert schur(Partition([1, 1, 1]), 3) == (
            c(1, 3) ** 3 - c(1, 3) * c(2, 3) * 2 + c(3, 3)
        )

    def test_empty_partition_is_one(self):
        for e in (1, 3, 5):
            assert schur(Partition([0]), e) == ChernPoly.one(e)

    def test_rank_validation(self):
        with pytest.raises(ValidationError):
            schur(Partition([4]), 3)

    def test_single_part_is_chern_class(self):
        for e in range(1, 6):
            for k in range(1, e + 1):
                assert schur(Partition([k]), e) == c(k, e)

    def test_appending_zero_rows_leaves_determinant_unchanged(self):
        for e in range(2, 5):
            for w in range(1, 5):
                for lam in partitions_of(w, e):
                    plain = jacobi_trudi(lam.parts, e)
                    padded = jacobi_trudi(lam.parts + (0, 0), e)
                    assert plain == padded


class TestChernOfTwist:
    def test_matches_shifted_elementary_symmetric_at_points(self):
        # e_p(x_i + t) computed by brute force at rational points.
        rng = random.Random(11)
        for _ in range(30):
            e = rng.randint(1, 5)
            p = rng.randint(0, e)
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(e)]
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            shifted = [x + t for x in xs]
            brute = sum(
                math.prod(sub)
                for sub in __import__("itertools").combinations(shifted, p)
            ) if p else Fraction(1)
            elem = {
                k: sum(
                    math.prod(sub)
                    for sub in __import__("itertools").combinations(xs, k)
                )
                if k
                else Fraction(1)
                for k in range(e + 1)
            }
            value = sum(
                coeff * math.prod([elem[k] for k in cs] + [t] * power)
                for power, poly in twisted_chern(p, e).coeffs.items()
                for cs, coeff in poly.terms.items()
            )
            assert value == brute

    def test_twist_composition(self):
        # Twisting twice by d equals one twist by 2d.
        for e in range(1, 5):
            d = TwistPoly.d(e)
            for p in range(0, e + 1):
                lhs = TwistPoly(e, {})
                for power, poly in twisted_chern(p, e).coeffs.items():
                    lhs = lhs + on_twisted_generators(poly, e) * d**power
                rhs = TwistPoly(
                    e,
                    {p - k: c(k, e) * (math.comb(e - k, p - k) * 2 ** (p - k))
                     for k in range(p + 1)},
                )
                assert lhs == rhs


class TestDerivedSchur:
    def test_paper_examples(self):
        assert derived_schur(Partition([2, 1]), 3, 1) == (
            c(2, 3) * 2 + c(1, 3) * c(1, 3) * 2
        )
        assert derived_schur(Partition([1, 1]), 2, 2) == ChernPoly.const(2, 3)

    def test_single_full_part_gives_chern_classes(self):
        for e in range(1, 6):
            for i in range(0, e + 1):
                assert derived_schur(Partition([e]), e, i) == c(e - i, e)

    def test_order_zero_is_schur(self):
        for e in range(1, 5):
            for w in range(0, 5):
                for mu in partitions_of(w, e):
                    assert derived_schur(mu, e, 0) == schur(mu, e)

    def test_order_out_of_range(self):
        with pytest.raises(ValidationError):
            derived_schur(Partition([2, 1]), 3, 4)
        with pytest.raises(ValidationError):
            derived_schur(Partition([2, 1]), 3, -1)

    def test_grade(self):
        poly = derived_schur(Partition([2, 2]), 3, 1)
        assert poly.grade == 3

    def test_shift_identity(self):
        # s_mu^(i) on twisted generators == sum_k binom(k,i) s_mu^(k) d^(k-i).
        for e in range(1, 5):
            for w in range(0, 5):
                for mu in partitions_of(w, e):
                    for i in range(w + 1):
                        lhs = on_twisted_generators(derived_schur(mu, e, i), e)
                        rhs = TwistPoly(
                            e,
                            {k - i: derived_schur(mu, e, k) * math.comb(k, i)
                             for k in range(i, w + 1)},
                        )
                        assert lhs == rhs

    def test_matches_twisted_oracle(self):
        cases = 0
        for e in range(1, 7):
            for w in range(0, 8):
                for mu in partitions_of(w, e):
                    for k in range(w + 1):
                        assert derived_schur(mu, e, k) == derived_schur_oracle(mu, e, k)
                        cases += 1
        assert cases == 1102

    def test_lascoux_coefficients(self):
        # s_(2,1)(E (x) L) at order 1: 4 s_(2) + 2 s_(1,1).
        assert derived_schur(Partition([2, 1]), 3, 1) == (
            schur(Partition([2]), 3) * 4 + schur(Partition([1, 1]), 3) * 2
        )


class TestSegreDerived:
    def test_matches_general_derived_computation(self):
        for e in range(1, 5):
            for i in range(0, e + 1):
                assert segre_derived(e, i) == derived_schur(Partition([1] * e), e, i)

    def test_paper_values(self):
        assert segre_derived(3, 1) == (c(1, 3) * c(1, 3) - c(2, 3)) * 5
        assert segre_derived(2, 2) == ChernPoly.const(2, 3)
        for e in range(1, 5):
            assert segre_derived(e, 0) == schur(Partition([1] * e), e)


class TestBialternantOracle:
    def test_trivial_values(self):
        assert schur_bialternant_oracle(Partition([1]), [Fraction(2), Fraction(3)]) == 5
        assert schur_bialternant_oracle(Partition([0]), [Fraction(1), Fraction(7)]) == 1

    def test_derived_value(self):
        xs = [Fraction(1), Fraction(2), Fraction(3)]
        assert schur_bialternant_oracle(Partition([2, 1]), xs) == 60

    def test_repeated_points_rejected(self):
        with pytest.raises(ZeroDivisionError):
            schur_bialternant_oracle(Partition([1]), [Fraction(2), Fraction(2)])

    def test_agrees_with_jacobi_trudi_on_random_points(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 60:
            e = rng.randint(1, 5)
            w = rng.randint(0, 6)
            pool = [lam for lam in partitions_of(w, e)]
            if not pool:
                continue
            lam = pool[rng.randrange(len(pool))]
            xs = []
            while len(xs) < e:
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if x not in xs:
                    xs.append(x)
            elem = {
                k: sum(
                    math.prod(sub)
                    for sub in __import__("itertools").combinations(xs, k)
                )
                if k
                else Fraction(1)
                for k in range(e + 1)
            }
            poly = schur(lam, e)
            via_jt = sum(
                (coeff * math.prod([elem[k] for k in cs], start=Fraction(1))
                 for cs, coeff in poly.terms.items()),
                Fraction(0),
            )
            assert via_jt == schur_bialternant_oracle(lam, xs)
            checked += 1


class TestSSYTOracle:
    def test_counts_match_evaluation_at_ones(self):
        # The number of tableaux equals the Schur polynomial at all-ones.
        for e in range(1, 5):
            for w in range(0, 5):
                for lam in partitions_of(w, e):
                    count = sum(1 for _ in ssyt_contents(lam, e))
                    xs = [Fraction(i + 2) for i in range(e)]  # distinct points
                    ones = [Fraction(1)] * e
                    elem = {
                        k: Fraction(math.comb(e, k)) for k in range(e + 1)
                    }
                    poly = schur(lam, e)
                    at_ones = sum(
                        (coeff * math.prod([elem[k] for k in cs], start=Fraction(1))
                         for cs, coeff in poly.terms.items()),
                        Fraction(0),
                    )
                    assert count == at_ones

    def test_monomial_expansion_matches_bialternant(self):
        rng = random.Random(5)
        for _ in range(20):
            e = rng.randint(1, 4)
            w = rng.randint(0, 4)
            pool = list(partitions_of(w, e))
            if not pool:
                continue
            lam = pool[rng.randrange(len(pool))]
            xs = []
            while len(xs) < e:
                x = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                if x not in xs:
                    xs.append(x)
            via_ssyt = sum(
                (math.prod(
                    (x**m for x, m in zip(xs, content)), start=Fraction(1)
                ) for content in ssyt_contents(lam, e)),
                Fraction(0),
            )
            assert via_ssyt == schur_bialternant_oracle(lam, xs)


class TestAlgebra:
    def test_homogeneity_enforced(self):
        e = 3
        with pytest.raises(ValidationError):
            c(1, e) + c(2, e)
        with pytest.raises(ValidationError):
            ChernPoly(e, {(1,): Fraction(1), (2,): Fraction(1)})

    def test_zero_is_compatible_with_any_grade(self):
        z = ChernPoly.zero(3)
        assert z + c(2, 3) == c(2, 3)
        assert c(2, 3) + z == c(2, 3)

    def test_generator_normalization(self):
        assert ChernPoly.generator(3, 0) == ChernPoly.one(3)
        assert ChernPoly.generator(3, 5).is_zero()
        assert ChernPoly.generator(3, -2).is_zero()

    def test_different_algebras_do_not_mix(self):
        with pytest.raises(ValidationError):
            c(1, 3) + c(1, 4)
        with pytest.raises(ValidationError):
            c(1, 3) * c(1, 4)

    def test_det_in_ring_matches_fraction_determinant(self):
        rng = random.Random(3)
        for n in range(1, 5):
            m = [
                [Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)
            ]
            got = det_in_ring(m, Fraction(1))
            # cofactor reference
            def cof(rows):
                k = len(rows)
                if k == 1:
                    return rows[0][0]
                return sum(
                    (-1) ** j * rows[0][j] * cof(
                        [r[:j] + r[j + 1 :] for r in rows[1:]]
                    )
                    for j in range(k)
                )
            assert got == cof(m)


def _oneone_form(rng, dim):
    form = PQForm.zero(dim, 1, 1)
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            form = form + PQForm.dz_dzbar(dim, j, k, rng.randint(-3, 3))
    return form


class TestDetInGradedRings:
    """Determinants whose entries carry a grade: every sum must start from
    a term of its own grade, never from a grade-0 zero."""

    def test_forms_2x2(self):
        rng = random.Random(7)
        a, b, c_, d = (_oneone_form(rng, 3) for _ in range(4))
        got = det_in_ring([[a, b], [c_, d]], PQForm.one(3))
        assert (got.p, got.q) == (2, 2)
        assert got == a * d - b * c_

    def test_forms_3x3_with_zero_minor(self):
        # The minors on columns {2,3} and {1,3} of the last two rows have
        # no nonzero term; only the third column survives.
        rng = random.Random(8)
        a, b, c_, d, e, g, h = (_oneone_form(rng, 3) for _ in range(7))
        z = PQForm.zero(3, 1, 1)
        got = det_in_ring([[a, b, c_], [d, e, z], [g, h, z]], PQForm.one(3))
        assert (got.p, got.q) == (3, 3)
        assert got == c_ * (d * h - e * g)
        assert got

    def test_classes_2x2_and_3x3(self):
        model = proj(2, 2)
        x1, x2 = model.generator(0), model.generator(1)
        got = det_in_ring([[x1, x2], [x2, x1]], model.one())
        assert got.grade == 2
        assert got == x1 * x1 - x2 * x2
        z = model.zero(1)
        s = x1 + x2
        got = det_in_ring([[x1, x2, s], [x2, x1, z], [x1, s, z]], model.one())
        assert got.grade == 3
        assert got == s * (x2 * s - x1 * x1)

    def test_determinant_without_terms_is_zero(self):
        # The zero has the grade of the diagonal product, so it adds to the
        # nonzero determinants of that grade.
        z = PQForm.zero(3, 1, 1)
        got = det_in_ring([[z, z], [z, z]], PQForm.one(3))
        assert not got
        assert (got.p, got.q) == (2, 2)
        w = _oneone_form(random.Random(9), 3)
        assert got + w * w == w * w
        model = proj(2, 2)
        zc = model.zero(1)
        got = det_in_ring([[zc, zc], [zc, zc]], model.one())
        assert not got
        assert got.grade == 2
        x1, x2 = model.generator(0), model.generator(1)
        assert got + x1 * x2 == x1 * x2


class TestRingHelpers:
    def test_elementary_symmetric_of_integers(self):
        assert elementary_symmetric([2, 3, 5], 1) == [1, 10, 31, 30]

    def test_evaluate_at_integers(self):
        es = elementary_symmetric([2, 3, 5], 1)
        assert evaluate(schur(Partition([2, 1]), 3), es, 1) == 10 * 31 - 30
        assert evaluate(ChernPoly.const(3, Fraction(1, 2)), es, 1) == Fraction(1, 2)
        with pytest.raises(ValidationError):
            evaluate(ChernPoly.zero(3), es, 1)

    def test_elementary_symmetric_stops_at_top(self):
        xs = [2, 3, 5, 7]
        full = elementary_symmetric(xs, 1)
        for top in range(0, 6):
            assert elementary_symmetric(xs, 1, top=top) == full[: top + 1]


class TestFormatting:
    def test_spec_pinned_strings(self):
        assert format_poly(schur(Partition([2, 1]), 3)) == "c1*c2 - c3"
        assert format_poly(derived_schur(Partition([1, 1, 1]), 3, 2)) == "10*c1"
        assert format_poly(schur(Partition([0]), 5)) == "1"
        assert format_poly(schur(Partition([1, 1, 1]), 3)) == "c1^3 - 2*c1*c2 + c3"
        assert format_poly(ChernPoly.zero(4)) == "0"

    def test_fraction_coefficients(self):
        half = c(1, 2) * Fraction(1, 2)
        assert format_poly(half) == "1/2*c1"
        assert format_poly(-half) == "-1/2*c1"
