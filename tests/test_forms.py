import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    GaussianForm,
    _top_coefficient_oracle,
    gaussian_coefficients,
    positive_definite_by_minors,
    real_oneone_basis,
    wedge_word_oracle,
)
from instances import random_pd_hermitian, rng_for

from schurcert.chernpoly import elementary_symmetric
from schurcert.errors import PreconditionError, ValidationError
from schurcert.forms import (
    PQForm,
    diagonal_form,
    hermitian_form,
    hodge_riemann_verdict,
    hr_gram,
    integrate_top,
    kahler_check,
    schur_form,
    wedge,
    wedge_top_coefficient,
)
from schurcert.gaussian import GaussianRational
from schurcert.inertia import inertia_triple
from schurcert.partitions import Partition


def basis_forms(dim):
    """All basis (p,q)-forms of every bidegree for a small dimension."""
    subsets = list(range(1 << dim))
    out = []
    for i_mask in subsets:
        for j_mask in subsets:
            out.append(
                PQForm(
                    dim,
                    bin(i_mask).count("1"),
                    bin(j_mask).count("1"),
                    {(i_mask, j_mask): GaussianRational(1)},
                )
            )
    return out


def random_form(rng, dim, p, q, terms=3):
    coeffs = {}
    idx = list(itertools.combinations(range(dim), p))
    jdx = list(itertools.combinations(range(dim), q))
    for _ in range(terms):
        i_mask = sum(1 << b for b in rng.choice(idx)) if idx else 0
        j_mask = sum(1 << b for b in rng.choice(jdx)) if jdx else 0
        coeffs[(i_mask, j_mask)] = GaussianRational(
            Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        )
    return PQForm(dim, p, q, coeffs)


class TestWedgeSigns:
    def test_fixed_sign_oracle_example(self):
        # (i dz1 dzbar1) ^ (i dz2 dzbar2) has coefficient +1 on ({1,2},{1,2}).
        a = PQForm.dz_dzbar(2, 1, 1, GaussianRational.i())
        b = PQForm.dz_dzbar(2, 2, 2, GaussianRational.i())
        prod = wedge(a, b)
        assert gaussian_coefficients(prod) == {(0b11, 0b11): GaussianRational(1)}

    def test_sign_rule_matches_word_oracle(self):
        for dim in (1, 2, 3):
            singles = basis_forms(dim)
            for a in singles:
                for b in singles:
                    prod = wedge(a, b)
                    (i1, j1), (i2, j2) = (
                        next(iter(a.coeffs)),
                        next(iter(b.coeffs)),
                    )
                    sign, key = wedge_word_oracle(i1, j1, i2, j2, dim)
                    if sign == 0:
                        assert prod.is_zero()
                    else:
                        assert gaussian_coefficients(prod) == {key: GaussianRational(sign)}

    def test_graded_commutativity_exhaustive_small(self):
        for dim in (1, 2, 3):
            singles = basis_forms(dim)
            for a in singles:
                for b in singles:
                    lhs = wedge(a, b)
                    sign = (-1) ** ((a.p + a.q) * (b.p + b.q))
                    rhs = wedge(b, a) * sign
                    assert lhs == rhs

    def test_associativity_random(self):
        rng = random.Random(42)
        for dim in (2, 3, 4, 5):
            for _ in range(8):
                p1, q1 = rng.randint(0, 1), rng.randint(0, 1)
                p2, q2 = rng.randint(0, 1), rng.randint(0, 1)
                p3, q3 = rng.randint(0, 2), rng.randint(0, 2)
                a = random_form(rng, dim, p1, q1)
                b = random_form(rng, dim, p2, q2)
                c = random_form(rng, dim, p3, q3)
                assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_wedge_with_zero(self):
        a = random_form(random.Random(1), 3, 1, 1)
        z = PQForm.zero(3, 1, 1)
        assert wedge(a, z).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            wedge(PQForm.one(2), PQForm.one(3))

    def test_top_coefficient_shortcut(self):
        rng = random.Random(9)
        for _ in range(10):
            dim = rng.randint(2, 4)
            a = random_form(rng, dim, 1, 1)
            b = random_form(rng, dim, dim - 1, dim - 1)
            expected = _top_coefficient_oracle(GaussianForm.of(a), GaussianForm.of(b))
            assert wedge_top_coefficient(a, b) == expected


class TestReality:
    def test_standard_form_is_real_d1(self):
        omega = PQForm.dz_dzbar(1, 1, 1, GaussianRational.i())
        assert omega.is_real()
        assert not PQForm.dz_dzbar(1, 1, 1, GaussianRational(1)).is_real()

    def test_hermitian_embedding_is_real(self):
        rng = random.Random(6)
        for d in (2, 3, 4):
            assert random_pd_hermitian(rng, d).is_real()

    def test_conj_is_involution(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_form(rng, 3, rng.randint(0, 2), rng.randint(0, 2))
            assert f.conj().conj() == f

    def test_products_of_real_forms_are_real(self):
        rng = random.Random(14)
        w1 = random_pd_hermitian(rng, 4)
        w2 = random_pd_hermitian(rng, 4)
        assert wedge(w1, w2).is_real()
        assert wedge(wedge(w1, w1), wedge(w2, w2)).is_real()


class TestIntegrateTop:
    def test_standard_form_squared(self):
        omega = diagonal_form([1, 1])
        assert integrate_top(wedge(omega, omega)) == 2

    def test_diagonal_power(self):
        vals = [Fraction(2), Fraction(1, 3), Fraction(5)]
        omega = diagonal_form(vals)
        power = wedge(wedge(omega, omega), omega)
        assert integrate_top(power) == 6 * Fraction(2) * Fraction(1, 3) * 5

    def test_zero(self):
        assert integrate_top(PQForm.zero(2, 2, 2)) == 0

    def test_wrong_bidegree_rejected(self):
        with pytest.raises(PreconditionError):
            integrate_top(PQForm.one(2))

    def test_non_real_rejected(self):
        bad = PQForm(
            2, 2, 2, {(0b11, 0b11): GaussianRational(0, 1)}
        )
        vol_like = PQForm(2, 2, 2, {(0b11, 0b11): GaussianRational(1)})
        assert not bad.is_real()
        with pytest.raises(PreconditionError):
            integrate_top(bad)
        # dz_{12} dzbar_{12} is exactly the volume form when d = 2.
        assert integrate_top(vol_like) == Fraction(1)


class TestKahlerCheck:
    def test_identity(self):
        assert kahler_check(diagonal_form([1, 1, 1]))

    def test_paper_diagonal(self):
        assert kahler_check(diagonal_form([Fraction(1, 7), Fraction(1, 7), 2, 2]))

    def test_indefinite(self):
        assert not kahler_check(diagonal_form([1, -1]))
        assert not kahler_check(diagonal_form([0, 1]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match=r"at \(0,0\)"):
            hermitian_form([[GaussianRational(0, 1)]])
        with pytest.raises(ValidationError, match=r"at \(0,1\)"):
            hermitian_form([[1, 2], [3, 1]])
        with pytest.raises(ValidationError, match=r"at \(1,2\)"):
            i = GaussianRational.i()
            hermitian_form([[1, 0, 0], [0, 1, i], [0, i, 1]])
        with pytest.raises(ValidationError, match="square"):
            hermitian_form([[1, 0], [0]])

    def test_hermitian_form_coefficients(self):
        # i H_jk dz_j dzbar_k, coefficient by coefficient.
        h = [[Fraction(1, 3), GaussianRational(1, 2)], [GaussianRational(1, -2), 5]]
        form = hermitian_form(h)
        for j in range(2):
            for k in range(2):
                assert form.coefficient((1 << j, 1 << k)) == GaussianRational.i() * h[j][k]

    @pytest.mark.parametrize(
        "form",
        [PQForm.one(2), PQForm.dz_dzbar(2, 1, 1, 1), PQForm.zero(2, 2, 2)],
        ids=["bidegree-0-0", "not-real", "bidegree-2-2"],
    )
    def test_refuses_a_form_that_is_not_real_oneone(self, form):
        with pytest.raises(ValidationError, match="real \\(1,1\\)-form"):
            kahler_check(form)

    def test_pd_with_complex_entries(self):
        rng = random.Random(77)
        for d in (2, 3, 4):
            assert kahler_check(random_pd_hermitian(rng, d))

    @pytest.mark.parametrize(
        "diagonal, definite",
        [((3, 1, 2, 5), True), ((1, -1, 2, 1), False), ((2, 0, 1, 3), False)],
        ids=["definite", "indefinite", "singular"],
    )
    def test_matches_leading_minors(self, diagonal, definite):
        # H = B* D B with B unit upper triangular and complex, so H is
        # congruent to D: definite, indefinite or singular by construction.
        rng = random.Random(2024)
        for d in (2, 3, 4):
            for _ in range(8):
                b = [
                    [
                        GaussianRational(
                            1 if i == j else rng.randint(-2, 2),
                            rng.choice((-2, -1, 1, 2)) if i < j else 0,
                        )
                        if i <= j
                        else GaussianRational(0)
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
                entries = [
                    [
                        sum(
                            (b[k][i].conj() * b[k][j] * diagonal[k] for k in range(d)),
                            GaussianRational(0),
                        )
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
                assert any(not x.is_real() for row in entries for x in row)
                h = hermitian_form(entries)
                assert kahler_check(h) == positive_definite_by_minors(entries)
                assert kahler_check(h) == definite


class TestSchurForm:
    def test_single_box_is_sum(self):
        rng = random.Random(10)
        ws = [random_pd_hermitian(rng, 3) for _ in range(3)]
        total = ws[0] + ws[1] + ws[2]
        assert schur_form(Partition([1]), ws) == total

    def test_segre_chain_shape(self):
        # (1)^(d-2) of a pair is the alternating power sum.
        d = 4
        rng = random.Random(11)
        w1 = random_pd_hermitian(rng, d)
        w2 = random_pd_hermitian(rng, d)
        got = schur_form(Partition([1] * (d - 2)), [w1, w2])
        expected = wedge(w1, w1) + wedge(w1, w2) + wedge(w2, w2)
        assert got == expected

    def test_two_row_of_diagonal_pair(self):
        # c_2 = w1 ^ w2 for two diagonal forms; cross-check by expansion.
        d = 3
        w1 = diagonal_form([1, 2, 3])
        w2 = diagonal_form([5, 1, 1])
        got = schur_form(Partition([2]), [w1, w2])
        assert got == wedge(w1, w2)

    def test_equal_tuple_reduces_to_binomials(self):
        # With all forms equal, e_k = binom(e, k) w^k.
        d = 4
        w = diagonal_form([1, 2, 1, 1])
        es = elementary_symmetric([w, w, w], PQForm.one(d))
        assert es[1] == w * 3
        assert es[2] == wedge(w, w) * 3
        assert es[3] == wedge(wedge(w, w), w)

    def test_validation(self):
        w = diagonal_form([1, 1, 1])
        with pytest.raises(ValidationError):
            schur_form(Partition([2]), [w])  # part exceeds number of forms
        with pytest.raises(ValidationError):
            schur_form(Partition([2, 2]), [w, w])  # weight exceeds dimension


class TestHrGram:
    def test_dim2_scalar_pairing(self):
        gram = hr_gram(PQForm.one(2))
        assert inertia_triple(gram) == (1, 0, 3)

    def test_dim4_standard_square(self):
        omega = diagonal_form([1, 1, 1, 1])
        gram = hr_gram(wedge(omega, omega))
        assert inertia_triple(gram) == (1, 0, 15)

    def test_zero_form(self):
        gram = hr_gram(PQForm.zero(3, 1, 1))
        assert all(all(x == 0 for x in row) for row in gram)

    def test_basis_size(self):
        assert len(real_oneone_basis(4)) == 16
        for b in real_oneone_basis(3):
            assert b.is_real()

    def test_wrong_bidegree(self):
        with pytest.raises(PreconditionError):
            hr_gram(PQForm.one(3))  # (0,0) but needs (1,1)


class TestVerdicts:
    def test_signature_family_endpoints(self):
        w1 = diagonal_form([1, 1, 1, 1])
        w2 = diagonal_form([Fraction(1, 7), Fraction(1, 7), 2, 2])
        sq1 = wedge(w1, w1)
        sq2 = wedge(w2, w2)
        rep = hodge_riemann_verdict(sq1 + sq2 * Fraction(7, 2), w1)
        assert rep.triple == (2, 0, 14) and not rep.hr_flag and rep.hl_flag
        rep = hodge_riemann_verdict(sq1 + sq2 * 3, w1)
        assert rep.triple[1] >= 1 and not rep.hl_flag and not rep.hr_flag
        rep = hodge_riemann_verdict(sq1, w1)
        assert rep.triple == (1, 0, 15) and rep.hr_flag and rep.hl_flag
        assert rep.positivity_scalar == 24

    def test_non_kahler_reference_rejected(self):
        omega = PQForm.one(2)
        with pytest.raises(PreconditionError):
            hodge_riemann_verdict(omega, diagonal_form([1, -1]))

    def test_reference_dimension_checked_before_kahler_test(self):
        # A wrong-sized reference is malformed input (exit 2), even when
        # it is not Kaehler either.
        with pytest.raises(ValidationError, match="wrong dimension"):
            hodge_riemann_verdict(PQForm.one(2), diagonal_form([1, -1, 1]))

    def test_pair_chain_property(self):
        # The alternating chain of a Kaehler pair passes the full verdict.
        for d in (3, 4):
            rng = rng_for(2718, d)
            w1 = random_pd_hermitian(rng, d)
            w2 = random_pd_hermitian(rng, d)
            omega = schur_form(Partition([1] * (d - 2)), [w1, w2])
            rep = hodge_riemann_verdict(omega, w1)
            assert rep.hr_flag

    def test_factorization_identity(self):
        # w1^(d-1) - w2^(d-1) == (w1 - w2) ^ sum_j w1^(d-2-j) w2^j, exactly.
        for d in (3, 4, 5):
            rng = rng_for(314, d)
            w1 = random_pd_hermitian(rng, d)
            w2 = random_pd_hermitian(rng, d)
            chain = schur_form(Partition([1] * (d - 2)), [w1, w2])
            lhs = w1 ** (d - 1) - w2 ** (d - 1)
            rhs = wedge(w1 - w2, chain)
            assert lhs == rhs
