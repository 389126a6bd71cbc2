import random
from fractions import Fraction

import pytest
from conftest import chern_by_subsets, partitions_of, schur_class_ssyt_oracle
from instances import random_ample_bundle, random_ample_class, rng_for

from schurcert.chernpoly import det_in_ring
from schurcert.errors import PreconditionError, ValidationError
from schurcert.inertia import inertia_triple
from schurcert.partitions import Partition
from schurcert.rings import (
    GradedClass,
    RingModel,
    SplitBundle,
    abelian_square,
    chern,
    derived_schur_class,
    format_class,
    gram_on_basis,
    gram_on_h11,
    integrate,
    multiply,
    proj,
    schur_class,
)
from schurcert.scenario import parse


class TestModels:
    def test_proj_basis_orders(self):
        m = proj(2, 3)
        assert m.dimension == 5
        assert m.basis(1) == ((1, 0), (0, 1))
        assert m.basis(0) == ((0, 0),)
        assert m.basis(6) == ()
        ab = abelian_square()
        assert ab.basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(ab.basis(2)) == 6
        assert ab.basis(5) == ()

    def test_model_equality(self):
        assert proj(2, 3) == proj(2, 3)
        assert proj(2, 3) != proj(3, 2)
        assert abelian_square() == abelian_square()
        assert proj(4) != abelian_square()

    def test_equality_covers_the_integral_table(self):
        a = RingModel("x", ("a",), (2,), 2, {(2,): 1})
        b = RingModel("x", ("a",), (2,), 2, {(2,): 5})
        assert a != b
        assert a == RingModel("x", ("a",), (2,), 2, {(2,): 1})
        with pytest.raises(ValidationError, match="classes live on different models"):
            multiply(a.generator(0), b.generator(0))
        with pytest.raises(ValidationError, match="classes live on different models"):
            multiply(b.generator(0), a.generator(0))
        # The table is a dict, so the hash leaves it out.
        assert hash(a) == hash(b)
        assert hash(proj(2, 3)) == hash(proj(2, 3))

    @pytest.mark.parametrize("model", [proj(2, 3), proj(1, 1, 1, 1), abelian_square()], ids=repr)
    def test_repr_reads_back_through_the_scenario_grammar(self, model):
        assert parse(f"[model]\nmodel = {model!r}\n").model == model

    def test_bad_model(self):
        with pytest.raises(ValidationError):
            proj()
        with pytest.raises(ValidationError):
            proj(0, 2)


class TestMultiplyIntegrate:
    def test_nilpotency_in_projective_plane(self):
        m = proj(2, 2)
        x1 = m.generator(0)
        sq = multiply(x1, x1)
        assert multiply(x1, sq).is_zero()

    def test_abelian_basis_product(self):
        ab = abelian_square()
        th1, th2 = ab.generator(0), ab.generator(1)
        prod = multiply(th1, th2)
        assert prod == GradedClass.from_monomials(ab, 2, {(1, 1, 0): 1})

    def test_top_normalization(self):
        m = proj(2, 3)
        x1, x2 = m.generator(0), m.generator(1)
        top = multiply(x1**2, x2**3)
        assert integrate(top) == 1

    def test_abelian_integrals(self):
        ab = abelian_square()
        th1, th2, lam = (ab.generator(i) for i in range(3))
        assert integrate(lam**4) == 24
        assert integrate(multiply(multiply(th1, th2), lam**2)) == -4
        assert integrate(multiply(th1**3, th2)) == 0
        assert integrate(multiply(th1**2, th2**2)) == 4

    @pytest.mark.parametrize(
        "model, caps",
        [(proj(2, 3), (2, 3)), (proj(1, 1, 1), (1, 1, 1)), (abelian_square(), (4, 4, 4))],
        ids=repr,
    )
    def test_monomial_products_match_brute_force_rule(self, model, caps):
        # A product monomial survives iff every exponent is within its cap
        # and the total grade is at most the dimension.
        d = model.dimension
        for ga in range(d + 1):
            for gb in range(d + 1):
                for ma in model.basis(ga):
                    for mb in model.basis(gb):
                        a = GradedClass.from_monomials(model, ga, {ma: 1})
                        b = GradedClass.from_monomials(model, gb, {mb: 1})
                        expo = tuple(x + y for x, y in zip(ma, mb))
                        survives = ga + gb <= d and all(
                            e <= cap for e, cap in zip(expo, caps)
                        )
                        got = multiply(a, b)
                        assert got.grade == ga + gb
                        assert got == GradedClass.from_monomials(
                            model, ga + gb, {expo: 1} if survives else {}
                        )

    def test_integrals_of_integral_classes_are_ints(self):
        m = proj(2, 3)
        x1, x2 = m.generator(0), m.generator(1)
        top = multiply(x1**2, x2**3)
        assert type(integrate(top * 3)) is int and integrate(top * 3) == 3
        assert integrate(top * Fraction(1, 2)) == Fraction(1, 2)
        ab = abelian_square()
        th1, th2, lam = (ab.generator(i) for i in range(3))
        for cls in (lam**4, multiply(multiply(th1, th2), lam**2), multiply(th1**3, th2)):
            assert type(integrate(cls)) is int

    def test_integrate_requires_top_grade(self):
        m = proj(2)
        with pytest.raises(ValidationError):
            integrate(m.generator(0))

    def test_model_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            multiply(proj(2).generator(0), proj(3).generator(0))

    def test_cross_grade_addition_rejected(self):
        m = proj(2, 2)
        x = m.generator(0)
        with pytest.raises(ValidationError):
            x + multiply(x, x)

    def test_integration_symmetric_in_factors(self):
        rng = random.Random(8)
        m = proj(1, 2, 2)
        classes = [random_ample_class(rng, m) for _ in range(5)]
        prods = [
            integrate(
                multiply(
                    multiply(multiply(classes[i], classes[j]), classes[k]),
                    multiply(classes[l], classes[m_]),
                )
            )
            for (i, j, k, l, m_) in [
                (0, 1, 2, 3, 4),
                (4, 3, 2, 1, 0),
                (2, 0, 4, 1, 3),
            ]
        ]
        assert prods[0] == prods[1] == prods[2]


class TestChern:
    def test_spec_bundle_on_p2_p3(self):
        m = proj(2, 3)
        a, b = m.generator(0), m.generator(1)
        e = SplitBundle(m, (a, a, b))
        assert format_class(chern(e, 1)) == "2*x1 + x2"
        assert chern(e, 0) == m.one()

    def test_triple_plane_c2(self):
        m = proj(2, 2, 2)
        x1, x2, x3 = (m.generator(i) for i in range(3))
        e = SplitBundle(m, (x1, x2, x3))
        expected = (
            multiply(x1, x2) + multiply(x2, x3) + multiply(x1, x3)
        )
        assert chern(e, 2) == expected

    def test_product_expansion_oracle(self):
        # c_p must be the t^p coefficient of prod (1 + t (root + twist)).
        rng = random.Random(31)
        for _ in range(10):
            m = proj(*rng.choice([(2, 2), (1, 3), (1, 1, 2)]))
            e = random_ample_bundle(rng, m, rng.randint(1, 4))
            coeffs = [m.one()] + [m.zero(p) for p in range(1, e.rank + 1)]
            for root in e.roots:
                for p in range(e.rank, 0, -1):
                    coeffs[p] = coeffs[p] + multiply(coeffs[p - 1], root)
            for p in range(e.rank + 1):
                assert chern(e, p) == coeffs[p]

    @pytest.mark.parametrize(
        "model",
        [proj(2, 2), proj(1, 3), proj(1, 1), abelian_square()],
        ids=repr,
    )
    def test_recurrence_matches_subset_sum(self, model):
        # Ranks run past the model's dimension, so some c_p lie above it.
        rng = random.Random(41)
        k = len(model.gen_names)
        for rank in range(1, model.dimension + 3):
            roots = [
                GradedClass(model, 1, [rng.randint(-3, 3) for _ in range(k)])
                for _ in range(rank)
            ]
            twist = GradedClass(model, 1, [rng.randint(-2, 2) for _ in range(k)])
            for e in (SplitBundle(model, roots), SplitBundle(model, roots, twist)):
                expected = [chern_by_subsets(e, p) for p in range(rank + 1)]
                assert list(e.cherns) == expected

    def test_chern_out_of_range(self):
        m = proj(2)
        e = SplitBundle(m, (m.generator(0),))
        with pytest.raises(ValidationError):
            chern(e, 2)

    def test_twist_shifts_roots(self):
        m = proj(2, 2)
        rng = random.Random(3)
        roots = [random_ample_class(rng, m) for _ in range(3)]
        delta = GradedClass(m, 1, [1, 2])
        shifted_directly = SplitBundle(m, [r + delta for r in roots])
        twisted = SplitBundle(m, roots, delta)
        for p in range(4):
            assert chern(twisted, p) == chern(shifted_directly, p)


class TestSchurClasses:
    def test_equal_roots_on_p3(self):
        m = proj(3)
        h = m.generator(0)
        e = SplitBundle(m, (h, h))
        got = schur_class(e, Partition([1, 1]))
        assert got == multiply(h, h) * 3

    def test_empty_partition(self):
        m = proj(2)
        e = SplitBundle(m, (m.generator(0),))
        assert schur_class(e, Partition([0])) == m.one()

    def test_derived_of_full_single_part_is_chern(self):
        rng = random.Random(12)
        m = proj(2, 2)
        for _ in range(5):
            e = random_ample_bundle(rng, m, rng.randint(1, 4))
            for i in range(e.rank + 1):
                assert derived_schur_class(e, Partition([e.rank]), i) == chern(
                    e, e.rank - i
                )

    def test_ssyt_oracle_agreement(self):
        rng = random.Random(21)
        for _ in range(12):
            m = proj(*rng.choice([(2, 2), (1, 3), (2, 3)]))
            rank = rng.randint(1, 4)
            e = random_ample_bundle(rng, m, rank)
            pool = [
                lam
                for w in range(0, m.dimension + 1)
                for lam in partitions_of(w, rank)
            ]
            lam = pool[rng.randrange(len(pool))]
            assert schur_class(e, lam) == schur_class_ssyt_oracle(e, lam)

    def test_twist_expansion_identity(self):
        # sum_i derived(mu, i) delta^i == schur of the delta-twisted bundle.
        rng = random.Random(77)
        m = proj(2, 2)
        e = random_ample_bundle(rng, m, 3, with_twist=False)
        delta = GradedClass(m, 1, [1, 1])
        for mu in partitions_of(3, 3):
            total = m.zero(mu.weight)
            for i in range(mu.weight + 1):
                total = total + multiply(
                    derived_schur_class(e, mu, i), delta**i
                )
            assert total == schur_class(SplitBundle(m, e.roots, delta), mu)


class TestGram:
    def test_boundary_class_matrix(self):
        ab = abelian_square()
        omega = GradedClass.from_monomials(
            ab, 2, {(1, 1, 0): Fraction(8), (0, 0, 2): Fraction(3)}
        )
        gram = gram_on_h11(omega)
        assert gram == [
            [Fraction(0), Fraction(20), Fraction(0)],
            [Fraction(20), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(40)],
        ]

    def test_zero_class_gives_zero_matrix(self):
        ab = abelian_square()
        gram = gram_on_h11(ab.zero(2))
        assert gram == [[Fraction(0)] * 3 for _ in range(3)]

    def test_wrong_grade_rejected(self):
        ab = abelian_square()
        with pytest.raises(ValidationError):
            gram_on_h11(ab.zero(1))

    def test_p2p3_pencil_at_zero(self):
        m = proj(2, 3)
        a, b = m.generator(0), m.generator(1)
        e = SplitBundle(m, (a, a, b))
        gram = gram_on_h11(chern(e, 3))
        assert gram == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]

    def test_entries_are_ints_on_proj_bundles(self):
        rng = random.Random(29)
        for exps in [(2, 2), (1, 1, 2), (2, 3), (1, 1, 1, 1)]:
            m = proj(*exps)
            bundle = random_ample_bundle(rng, m, 3)
            d = m.dimension
            for omega in (chern(bundle, d - 2), schur_class(bundle, Partition([d - 2]))):
                gram = gram_on_h11(omega)
                assert all(type(x) is int for row in gram for x in row)

    def test_poincare_nondegeneracy_gate(self):
        for exps in [(2, 2), (1, 3), (1, 1, 2), (2, 3), (1, 1, 1, 1)]:
            m = proj(*exps)
            d = m.dimension
            deg1 = [m.generator(i) for i in range(len(m.gen_names))]
            top_basis = [
                GradedClass.from_monomials(m, d - 1, {mono: Fraction(1)})
                for mono in m.basis(d - 1)
            ]
            pairing = [
                [integrate(multiply(a, b)) for b in top_basis] for a in deg1
            ]
            assert det_in_ring(pairing, Fraction(1)) != 0


class TestPositivitySmoke:
    def test_fulton_lazarsfeld_chern_positivity(self):
        rng0 = random.Random(1234)
        for trial in range(12):
            rng = rng_for(1234, trial)
            m = proj(*rng.choice([(2, 2), (1, 3), (1, 1, 2), (2, 3)]))
            e = random_ample_bundle(rng, m, rng.randint(1, 5))
            assert e.is_ample()
            h = random_ample_class(rng, m)
            d = m.dimension
            for q in range(1, min(d, e.rank) + 1):
                val = integrate(multiply(chern(e, q), h ** (d - q)))
                assert val > 0

    def test_top_derived_schur_positivity(self):
        rng0 = random.Random(777)
        for trial in range(10):
            rng = rng_for(777, trial)
            m = proj(*rng.choice([(2, 2), (1, 2), (1, 1, 2), (2,)]))
            d = m.dimension
            rank = rng.randint(d, d + 2)
            e = random_ample_bundle(rng, m, rank)
            mu = rng.choice(list(partitions_of(rank, rank)))
            cls = derived_schur_class(e, mu, rank - d)
            assert integrate(cls) > 0

    def test_twist_family_signature_constant(self):
        # The degree-(d-2) pairing of a rank-(d-2) bundle keeps signature
        # (1, 0, k-1) along positive twists of the bundle.
        rng = random.Random(55)
        m = proj(2, 2)
        e = random_ample_bundle(rng, m, 2, with_twist=False)
        h = random_ample_class(rng, m)
        for t in (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(7)):
            et = SplitBundle(m, e.roots, h * t)
            gram = gram_on_h11(chern(et, 2))
            assert inertia_triple(gram) == (1, 0, 1)


class TestAmpleness:
    def test_positive_roots_are_ample(self):
        m = proj(2, 2)
        e = SplitBundle(m, (GradedClass(m, 1, [1, 1]), GradedClass(m, 1, [2, 3])))
        assert e.is_ample()
        bad = SplitBundle(m, (GradedClass(m, 1, [1, -1]),))
        assert not bad.is_ample()

    def test_twist_can_restore_positivity(self):
        m = proj(2, 2)
        e = SplitBundle(
            m, (GradedClass(m, 1, [1, -1]),), GradedClass(m, 1, [1, 2])
        )
        assert e.is_ample()

    def test_abelian_model_has_no_criterion(self):
        ab = abelian_square()
        e = SplitBundle(ab, (ab.generator(0),))
        with pytest.raises(PreconditionError):
            e.is_ample()


def test_format_class_strings():
    m = proj(2, 3)
    x1, x2 = m.generator(0), m.generator(1)
    assert format_class(x1 + x2 * 2) == "x1 + 2*x2"
    assert format_class(multiply(x1, x1) * Fraction(1, 2) - multiply(x1, x2)) == (
        "1/2*x1^2 - x1*x2"
    )
    assert format_class(m.zero(2)) == "0"
    ab = abelian_square()
    assert format_class(ab.generator(2)) == "lam"
