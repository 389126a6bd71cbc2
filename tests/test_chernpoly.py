import math
import random
from fractions import Fraction

import pytest
from conftest import (
    partitions_of,
    promote,
    schur_bialternant_oracle,
    segre_derived,
    ssyt_contents,
    substitute,
    twist_var,
)

from schurcert.chernpoly import (
    ChernPoly,
    chern_of_twist,
    derived_schur,
    det_in_ring,
    elementary_symmetric,
    evaluate,
    format_poly,
    jacobi_trudi,
    schur,
)
from schurcert.errors import ValidationError
from schurcert.partitions import Partition


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
                    tw = jacobi_trudi(lam.parts, e, twisted=True)
                    tw_padded = jacobi_trudi(lam.parts + (0, 0), e, twisted=True)
                    assert tw == tw_padded


class TestChernOfTwist:
    def test_paper_examples(self):
        e3 = chern_of_twist(1, 3)
        d = twist_var(3)
        assert e3 == ChernPoly.generator(3, 1, nextra=1) + d * 3
        assert chern_of_twist(0, 5) == ChernPoly.one(5, nextra=1)
        d2 = twist_var(2)
        assert chern_of_twist(2, 2) == (
            ChernPoly.generator(2, 2, nextra=1)
            + ChernPoly.generator(2, 1, nextra=1) * d2
            + d2 * d2
        )

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            chern_of_twist(4, 3)
        with pytest.raises(ValidationError):
            chern_of_twist(-1, 3)

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
            poly = chern_of_twist(p, e)
            value = sum(
                coeff * math.prod([elem[k] for k in cs] + [t] * extras[0])
                for (cs, extras), coeff in poly.terms.items()
            )
            assert value == brute

    def test_twist_composition(self):
        # Twisting twice by two formal variables equals one twist by their sum.
        for e in range(1, 5):
            c_imgs = {
                k: promote(chern_of_twist(k, e), 2, slots=(0,)) for k in range(1, e + 1)
            }
            u = twist_var(e, slot=1, nextra=2)
            dv = twist_var(e, slot=0, nextra=2)
            ident = {k: ChernPoly.generator(e, k, nextra=2) for k in range(1, e + 1)}
            for p in range(0, e + 1):
                lhs = substitute(chern_of_twist(p, e), c_imgs, extra_images=[u])
                rhs = substitute(chern_of_twist(p, e), ident, extra_images=[dv + u])
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
            ctw = {k: chern_of_twist(k, e) for k in range(1, e + 1)}
            dvar = twist_var(e)
            for w in range(0, 5):
                for mu in partitions_of(w, e):
                    for i in range(w + 1):
                        si = derived_schur(mu, e, i)
                        if si.is_zero():
                            lhs = ChernPoly.zero(e, 1)
                        else:
                            lhs = substitute(si, ctw, extra_images=[])
                        rhs = ChernPoly.zero(e, 1)
                        for k in range(i, w + 1):
                            rhs = rhs + promote(derived_schur(mu, e, k), 1) * math.comb(
                                k, i
                            ) * dvar ** (k - i)
                        assert lhs == rhs


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
                 for (cs, _), coeff in poly.terms.items()),
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
                         for (cs, _), coeff in poly.terms.items()),
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
            ChernPoly(e, {((1,), ()): Fraction(1), ((2,), ()): Fraction(1)})

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
            c(1, 3) * ChernPoly.one(3, nextra=1)

    def test_twist_coefficient_extraction(self):
        p = chern_of_twist(2, 3)
        assert p.twist_coefficient(0) == c(2, 3)
        assert p.twist_coefficient(1) == c(1, 3) * 2
        assert p.twist_coefficient(2) == ChernPoly.const(3, 3)

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


class TestRingHelpers:
    def test_elementary_symmetric_of_integers(self):
        assert elementary_symmetric([2, 3, 5], 1) == [1, 10, 31, 30]

    def test_evaluate_at_integers(self):
        es = elementary_symmetric([2, 3, 5], 1)
        assert evaluate(schur(Partition([2, 1]), 3), es, 1) == 10 * 31 - 30
        assert evaluate(ChernPoly.const(3, Fraction(1, 2)), es, 1) == Fraction(1, 2)
        with pytest.raises(ValidationError):
            evaluate(ChernPoly.zero(3), es, 1)
        with pytest.raises(ValidationError):
            evaluate(chern_of_twist(1, 3), es, 1)  # no image for the twist


class TestFormatting:
    def test_spec_pinned_strings(self):
        assert format_poly(schur(Partition([2, 1]), 3)) == "c1*c2 - c3"
        assert format_poly(derived_schur(Partition([1, 1, 1]), 3, 2)) == "10*c1"
        assert format_poly(schur(Partition([0]), 5)) == "1"
        assert format_poly(schur(Partition([1, 1, 1]), 3)) == "c1^3 - 2*c1*c2 + c3"
        assert format_poly(chern_of_twist(1, 3)) == "c1 + 3*d"
        assert format_poly(chern_of_twist(2, 2)) == "c2 + c1*d + d^2"
        assert format_poly(ChernPoly.zero(4)) == "0"

    def test_fraction_coefficients(self):
        half = c(1, 2) * Fraction(1, 2)
        assert format_poly(half) == "1/2*c1"
        assert format_poly(-half) == "-1/2*c1"
