import random
from fractions import Fraction

import pytest
from conftest import chord_strict_oracle, hl_pencil_det_oracle, proportionality_oracle
from instances import (
    invert_matrix,
    random_ample_bundle,
    random_ample_class,
    random_block_instance,
    random_invertible_matrix,
    random_vector,
    rng_for,
)

from schurcert.certify import (
    BlockFormInstance,
    HI2Result,
    HodgeIndexResult,
    LogConcavityReport,
    Nef2Coefficients,
    block_form_check,
    discrete_logconcave,
    hi2_check,
    hl_failure_instance,
    hl_failure_scan,
    hodge_index_check,
    khovanskii_teissier_sequence,
    nef2_membership,
    schur_logconcavity_report,
)
from schurcert.errors import PreconditionError, ValidationError
from schurcert.inertia import congruent, inertia_triple, quadratic_value, restrict_to_kernel
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly, nonneg_on_reals
from schurcert.rings import (
    GradedClass,
    SplitBundle,
    chern,
    gram_on_basis,
    integrate,
    multiply,
    proj,
)


class TestHodgeIndex:
    def test_trivial_lorentz_example(self):
        q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        res = hodge_index_check(q, [1, 0], [0, 1])
        assert res.lhs == -1 and res.rhs == 0 and res.holds and not res.equality

    def test_flags_are_read_off_lhs_and_rhs(self):
        res = HodgeIndexResult(2, 1, None)
        assert not res.holds and not res.equality and not res.proportional
        hi = HI2Result(1, 1, False)
        assert hi.holds and hi.equality

    def test_equality_iff_proportional(self):
        q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        res = hodge_index_check(q, [1, 0], [3, 0])
        assert res.equality and res.proportional and res.witness == 3

    def test_hypothesis_violations(self):
        pd = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(PreconditionError):
            hodge_index_check(pd, [1, 0], [0, 1])
        lorentz = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        with pytest.raises(PreconditionError):
            hodge_index_check(lorentz, [0, 1], [1, 0])  # Q(h) < 0

    def test_random_lorentzian_instances_never_fail(self):
        for trial in range(40):
            rng = rng_for(31337, trial)
            n = rng.randint(2, 6)
            # diagonal Lorentz form congruently scrambled
            diag = [
                [
                    (Fraction(rng.randint(1, 4)) if i == 0 else Fraction(-rng.randint(1, 4)))
                    if i == j
                    else Fraction(0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            p = random_invertible_matrix(rng, n)
            q = congruent(diag, p)
            # h = P^{-1} e_0, so Q(h) = D_00 > 0 by construction
            h = [row[0] for row in invert_matrix(p)]
            assert quadratic_value(q, h) == diag[0][0]
            v = random_vector(rng, n, 4)
            kappa = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for w in (v, [kappa * x for x in h], [0] * n):
                res = hodge_index_check(q, h, w)
                assert res.holds
                witness = proportionality_oracle(w, h)
                assert res.proportional == res.equality == (witness is not None)
                assert res.witness == witness


class TestBlockForm:
    def test_zero_vector_equality(self):
        inst = random_block_instance(rng_for(1, 0), 4)
        res = block_form_check(inst, [0, 0, 0, 0])
        assert res.holds and res.equality and res.v_is_zero

    def test_h_gives_strict_margin(self):
        inst = random_block_instance(rng_for(2, 0), 3)
        res = block_form_check(inst, list(inst.h))
        assert res.holds and not res.equality

    def test_kernel_restriction_negative_definite(self):
        inst = random_block_instance(rng_for(3, 0), 5)
        res = block_form_check(inst, [1, 2, 3, 4, 5])
        assert res.kernel_inertia == (0, 0, 4)

    def test_hypothesis_rejection(self):
        bad = BlockFormInstance.of(
            [[1, 0], [0, 1]], [1, 0], [1, 0]
        )  # Q_W cannot have signature (1,0,2)
        with pytest.raises(PreconditionError):
            block_form_check(bad, [1, 1])

    def test_randomized_suite(self):
        for trial in range(30):
            rng = rng_for(515, trial)
            rho = rng.randint(2, 6)
            inst = random_block_instance(rng, rho)
            v = random_vector(rng, rho)
            res = block_form_check(inst, v)
            assert res.holds
            assert res.equality == res.v_is_zero
            assert res.kernel_inertia == (0, 0, rho - 1)
            assert res.kernel_inertia == inertia_triple(restrict_to_kernel(inst.q_v, inst.phi))


class TestQuarticNonneg:
    def test_spec_examples(self):
        b = QPoly.of(0, 1)
        assert nonneg_on_reals(b * b)
        assert not nonneg_on_reals(b * b - QPoly.of(1))
        assert nonneg_on_reals(b * b * 3)

    def test_boundary_substitution(self):
        # membership margin for the pure th1*th2 class: 4b^2 - b^2 = 3b^2.
        c = Nef2Coefficients.of(0, 1, 0, 0, 0, 0)
        from schurcert.certify import _quartic_margin

        assert _quartic_margin(c) == QPoly.of(0, 0, 3)
        assert nonneg_on_reals(_quartic_margin(c))


class TestNef2:
    def test_boundary_class(self):
        v = nef2_membership(Nef2Coefficients.of(0, 8, 0, 0, 0, 3))
        assert v.member and v.boundary and v.quartic_identically_zero
        eq = dict((name, equality) for name, _, equality in v.conditions)
        assert eq["quartic"]

    def test_just_above_boundary_fails_only_quartic(self):
        v = nef2_membership(
            Nef2Coefficients.of(0, 8, 0, 0, 0, Fraction(3) + Fraction(1, 100))
        )
        assert not v.member
        assert v.failed == ("quartic",)

    def test_lower_boundary(self):
        # a6 = -a2/4 is the other extreme of the degenerate family.
        v = nef2_membership(Nef2Coefficients.of(0, 8, 0, 0, 0, -2))
        assert v.member
        v = nef2_membership(Nef2Coefficients.of(0, 8, 0, 0, 0, Fraction(-21, 10)))
        assert not v.member

    def test_interior_and_exterior(self):
        assert nef2_membership(Nef2Coefficients.of(0, 1, 0, 0, 0, 0)).member
        assert nef2_membership(Nef2Coefficients.of(1, 1, 1, 0, 0, 0)).member
        assert not nef2_membership(Nef2Coefficients.of(-1, 1, 1, 0, 0, 0)).member
        assert not nef2_membership(Nef2Coefficients.of(1, 0, 1, 0, 0, 1)).member

    def test_to_class_roundtrip(self):
        from schurcert.rings import abelian_square

        model = abelian_square()
        cls = Nef2Coefficients.of(1, 2, 3, 4, 5, 6).to_class(model)
        assert cls == GradedClass.from_monomials(
            model,
            2,
            {
                (2, 0, 0): 1,
                (1, 1, 0): 2,
                (0, 2, 0): 3,
                (1, 0, 1): 4,
                (0, 1, 1): 5,
                (0, 0, 2): 6,
            },
        )


class TestDiscreteLogconcave:
    def test_spec_examples(self):
        for vals, expected in (
            ([1, 2, 3, 2, 1], True),
            ([1, 1, 1], False),
            ([1, 4, 6, 4, 1], True),
        ):
            assert discrete_logconcave(vals) is expected
            assert chord_strict_oracle(vals) is expected

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            discrete_logconcave([1, 0, 1])
        with pytest.raises(ValidationError):
            discrete_logconcave([1, -2, 1])

    def test_midpoint_implies_chord(self):
        rng = random.Random(40)
        for _ in range(50):
            vals = [Fraction(rng.randint(1, 50), rng.randint(1, 10)) for _ in range(6)]
            mid = all(
                vals[i - 1] ** 2 > vals[i] * vals[i - 2] for i in range(2, len(vals))
            )
            assert discrete_logconcave(vals) is mid
            assert chord_strict_oracle(vals) is mid


class TestLogconcavityReport:
    def test_hand_model_on_p2(self):
        m = proj(2)
        h = GradedClass(m, 1, [1])
        e = SplitBundle(m, (h, GradedClass(m, 1, [2])))
        rep = schur_logconcavity_report(e, Partition([2]), h)
        assert rep.values == (Fraction(1), Fraction(3), Fraction(2))
        assert rep.strict and rep.positive and rep.counterexamples == ()

    def test_nonpositive_values_are_counterexamples(self):
        rep = LogConcavityReport((Fraction(1), Fraction(0), Fraction(-2)))
        assert not rep.positive and not rep.strict
        assert rep.counterexamples == ("f(1)=0 is not positive", "f(2)=-2 is not positive")

    def test_chern_number_specialization(self):
        # mu = (rank) turns the sequence into plain Chern numbers.
        rng = rng_for(606, 0)
        m = proj(2, 2)
        e = random_ample_bundle(rng, m, 5)
        h = random_ample_class(rng, m)
        rep = schur_logconcavity_report(e, Partition([5]), h)
        d = m.dimension
        for i in range(d + 1):
            expected = integrate(multiply(chern(e, i), h ** (d - i)))
            assert rep.values[i] == expected
        assert rep.strict

    def test_rank_too_small_rejected(self):
        m = proj(2, 2)
        e = SplitBundle(m, (GradedClass(m, 1, [1, 1]),))
        with pytest.raises(PreconditionError):
            schur_logconcavity_report(e, Partition([1]), GradedClass(m, 1, [1, 1]))

    def test_weight_mismatch_rejected(self):
        m = proj(2)
        e = SplitBundle(m, (GradedClass(m, 1, [1]), GradedClass(m, 1, [2])))
        with pytest.raises(ValidationError):
            schur_logconcavity_report(e, Partition([1]), GradedClass(m, 1, [1]))

    def test_non_ample_rejected(self):
        m = proj(2)
        e = SplitBundle(m, (GradedClass(m, 1, [1]), GradedClass(m, 1, [-1])))
        with pytest.raises(PreconditionError):
            schur_logconcavity_report(e, Partition([2]), GradedClass(m, 1, [1]))


class TestKhovanskiiTeissier:
    def test_random_ample_pairs(self):
        for trial in range(12):
            rng = rng_for(909, trial)
            m = proj(*rng.choice([(2, 2), (1, 3), (1, 1, 2), (2, 3)]))
            alpha = random_ample_class(rng, m)
            beta = random_ample_class(rng, m)
            if alpha.coeffs == beta.coeffs:
                continue
            seq = khovanskii_teissier_sequence(alpha, beta)
            assert all(v > 0 for v in seq)
            assert discrete_logconcave(seq)
            assert chord_strict_oracle(seq)

    def test_proportional_pair_is_borderline(self):
        m = proj(2, 2)
        alpha = GradedClass(m, 1, [1, 2])
        seq = khovanskii_teissier_sequence(alpha, alpha * 3)
        # affine in log scale: all midpoint comparisons are equalities
        assert all(
            seq[i - 1] ** 2 == seq[i] * seq[i - 2] for i in range(2, len(seq))
        )


class TestHI2:
    def test_alpha_zero_equality(self):
        rng = rng_for(11, 0)
        m = proj(2, 2)
        e = random_ample_bundle(rng, m, 4)
        h = random_ample_class(rng, m)
        res = hi2_check(e, h, m.zero(1))
        assert res.lhs == 0 and res.rhs == 0 and res.equality and res.alpha_is_zero

    def test_alpha_h_strict(self):
        for trial in range(10):
            rng = rng_for(12, trial)
            m = proj(*rng.choice([(2, 2), (1, 3), (2, 3)]))
            e = random_ample_bundle(rng, m, rng.randint(m.dimension - 1, m.dimension + 1))
            h = random_ample_class(rng, m)
            res = hi2_check(e, h, h)
            assert res.holds and not res.equality

    def test_random_alpha_holds(self):
        for trial in range(15):
            rng = rng_for(13, trial)
            m = proj(2, 2)
            e = random_ample_bundle(rng, m, rng.randint(3, 5))
            h = random_ample_class(rng, m)
            alpha = GradedClass(m, 1, random_vector(rng, 2, 4))
            res = hi2_check(e, h, alpha)
            assert res.holds
            assert res.equality == alpha.is_zero()

    def test_dim2_consistency_with_hodge_index(self):
        # With d=2 the inequality involves c_0 = 1: compare with the
        # classical Hodge-Index certificate on the same data.
        rng = rng_for(14, 0)
        m = proj(1, 1)
        e = random_ample_bundle(rng, m, 3)
        h = random_ample_class(rng, m)
        alpha = GradedClass(m, 1, [2, -1])
        res = hi2_check(e, h, alpha)
        assert res.holds
        # classical route: Q(a,b) = integral(a b), with the c_1 covector
        q = [
            [integrate(multiply(m.generator(i), m.generator(j))) for j in range(2)]
            for i in range(2)
        ]
        assert inertia_triple(q) == (1, 0, 1)
        hi = hodge_index_check(q, [h.coeffs[0], h.coeffs[1]], [2, -1])
        assert hi.holds

    def test_rank_too_small(self):
        m = proj(2, 2)
        e = SplitBundle(m, (GradedClass(m, 1, [1, 1]), GradedClass(m, 1, [1, 2])))
        with pytest.raises(PreconditionError, match="rank 2 too small"):
            hi2_check(e, GradedClass(m, 1, [1, 1]), GradedClass(m, 1, [1, 0]))

    def test_dimension_one_refused_before_any_chern_class(self):
        m = proj(1)
        e = SplitBundle(m, (GradedClass(m, 1, [1]),))
        with pytest.raises(PreconditionError, match="dimension 1 too small"):
            hi2_check(e, GradedClass(m, 1, [1]), GradedClass(m, 1, [1]))


class TestHLFailureScan:
    def test_det_signs_and_isolation(self):
        scan = hl_failure_scan(Fraction(1, 10**6))
        assert scan.det_first == -1
        assert scan.det_second > 0
        lo, hi = scan.interval
        assert 0 < lo < hi
        assert hi - lo < Fraction(1, 10**6)
        # the isolated bracket straddles a sign change of the pencil's
        # determinant, evaluated pointwise by rational elimination
        assert hl_pencil_det_oracle(lo) * hl_pencil_det_oracle(hi) <= 0

    def test_fixed_instance_grams(self):
        bundle, basis = hl_failure_instance()
        r = gram_on_basis(chern(bundle, 2), basis)
        c1 = chern(bundle, 1)
        s = gram_on_basis(multiply(c1, c1), basis)
        # frozen expected matrices in the documented basis order
        want_r = [
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 1, 0],
        ]
        want_s = [
            [0, 1, 1, 2, 0, 0],
            [1, 0, 1, 0, 2, 0],
            [1, 1, 0, 0, 0, 2],
            [2, 0, 0, 1, 2, 2],
            [0, 2, 0, 2, 1, 2],
            [0, 0, 2, 2, 2, 1],
        ]
        assert r == [[Fraction(x) for x in row] for row in want_r]
        assert s == [[Fraction(x) for x in row] for row in want_s]
        # The pencil and its determinant run on int-coefficient polynomials.
        assert all(type(x) is int for row in r + s for x in row)
