"""The Hodge-Riemann pairing by coefficient lookup against wedge routes.

``forms.hr_gram`` and ``forms.hodge_riemann_verdict`` read every Gram
entry off the coefficients of omega, by a plan built once per dimension
from the sign rule in the ``forms`` module docstring (``_top_term``), and
the positivity integral off that Gram as r^T G r.  These tests compare
them with routes that wedge: the ``GaussianForm`` oracle of ``conftest``,
whose scalar ``GaussianField`` has the field arithmetic of Q(i), for the
Gram (up to d = 8, ``MAX_DIM``, the largest plan) and for the per-term
rule, and ``integrate_top`` of the full triple product for the
positivity.  That top integral is itself checked against the oracle's
``integrate_top_oracle``.  On diagonal tuples the Gram's inertia is also
read off the ring side (``conftest.diagonal_hr_triple``), a route that
shares no code with the forms layer, up to d = 8; so is the exact
Hodge-Riemann region of the ``paper-repro`` signature family.
"""

import itertools
import random
from fractions import Fraction

from conftest import (
    GaussianForm,
    _top_coefficient_oracle,
    diagonal_hr_triple,
    hr_gram_oracle,
    integrate_top_oracle,
    partitions_of,
    real_oneone_basis,
)
from instances import random_pd_hermitian

from schurcert.chernpoly import det_in_ring
from schurcert.forms import (
    MAX_DIM,
    PQForm,
    _halves,
    _top_term,
    diagonal_form,
    hodge_riemann_verdict,
    hr_gram,
    integrate_top,
    schur_form,
    wedge,
)
from schurcert.gaussian import GaussianRational
from schurcert.inertia import inertia_triple
from schurcert.qpoly import QPoly, count_real_roots
from schurcert.rings import GradedClass, gram_on_h11, proj


def _signed_form(rng: random.Random, d: int) -> PQForm:
    """A real (d-2,d-2)-form: a signed rational sum of wedge monomials of
    Kaehler forms and one indefinite diagonal form."""
    ws = [random_pd_hermitian(rng, d) for _ in range(3)]
    ws.append(diagonal_form([rng.randint(-3, 3) for _ in range(d)]))
    omega = PQForm.zero(d, d - 2, d - 2)
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 6))
        term = PQForm.one(d) * coeff
        for _ in range(d - 2):
            term = wedge(term, rng.choice(ws))
        omega = omega + term
    return omega


def _cases():
    rng = random.Random(1905_13636)
    yield PQForm.one(2) * Fraction(-7, 3)
    for d in (2, 3, 4, 5, 6, 7, MAX_DIM):
        for _ in range(4 if d < 6 else 2 if d == 6 else 1):
            yield _signed_form(rng, d)


def test_gram_matches_the_oracle_on_signed_real_forms():
    for omega in _cases():
        basis = [GaussianForm.of(b) for b in real_oneone_basis(omega.dim)]
        assert hr_gram(omega) == hr_gram_oracle(GaussianForm.of(omega), basis), omega


def test_positivity_and_inertia_match_the_wedge_route():
    rng = random.Random(1905)
    for omega in _cases():
        d = omega.dim
        ref = random_pd_hermitian(rng, d) * Fraction(rng.randint(1, 4), rng.randint(1, 5))
        rep = hodge_riemann_verdict(omega, ref)
        top = wedge(wedge(omega, ref), ref)
        assert rep.positivity_scalar == integrate_top(top)
        assert integrate_top(top) == integrate_top_oracle(GaussianForm.of(top))
        assert rep.triple == inertia_triple(hr_gram(omega))


def test_elementary_pairing_matches_the_oracle_wedge():
    # Non-real omega and coefficients: the per-term rule the Gram plan is
    # built from must hold on both the real and the imaginary part of every
    # lookup, for every j, k, l, m.
    rng = random.Random(1336)
    for d in (2, 3, 4, 5):
        keys = [
            (sum(1 << b for b in i), sum(1 << b for b in j))
            for i in itertools.combinations(range(d), d - 2)
            for j in itertools.combinations(range(d), d - 2)
        ]
        coeffs = {
            key: GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            for key in keys
        }
        omega = PQForm(d, d - 2, d - 2, coeffs)
        oracle = GaussianForm.of(omega)
        halves = _halves(d)
        for j, k, l, m in itertools.product(range(d), repeat=4):
            re = im = 0
            top = _top_term(halves, j, k, l, m)
            if top is not None:
                key, sign = top
                # (2 + i)(1 - 3i) = 5 - 5i, times omega's numerator at key.
                cr, ci = omega.coeffs.get(key, (0, 0))
                re, im = sign * (5 * cr + 5 * ci), sign * (5 * ci - 5 * cr)
            left = GaussianForm(d, 1, 1, {(1 << j, 1 << k): GaussianRational(2, 1)})
            right = GaussianForm(d, 1, 1, {(1 << l, 1 << m): GaussianRational(1, -3)})
            expected = _top_coefficient_oracle(left * oracle, right)
            got = GaussianRational(Fraction(re, omega.den), Fraction(im, omega.den))
            assert got == expected, (d, j, k, l, m)


def test_diagonal_schur_forms_match_the_ring_side():
    # Every lam |- d - 2 on lam_1 and lam_1 + 1 diagonal forms at d = 3..6:
    # Kaehler tuples (entries 1..3), and signed ones (entries -2..3), whose
    # pair blocks come out negative, positive and zero.  The Gram entry of
    # i dz_j dzbar_j and i dz_k dzbar_k has the sign of integral(s_lam x_j x_k).
    rng = random.Random(0xD1A6)
    signs = set()
    for d in range(3, 7):
        for lam in partitions_of(d - 2):
            for e in (lam.max_part, lam.max_part + 1):
                for low in (1, -2):
                    rows = [[rng.randint(low, 3) for _ in range(d)] for _ in range(e)]
                    gram = hr_gram(schur_form(lam, [diagonal_form(row) for row in rows]))
                    assert inertia_triple(gram) == diagonal_hr_triple(lam, rows), (d, lam, rows)
                    signs.update(
                        (x > 0) - (x < 0)
                        for x in (gram[j][k] for j, k in itertools.combinations(range(d), 2))
                    )
    assert signs == {-1, 0, 1}


def test_diagonal_schur_forms_match_the_ring_side_up_to_max_dim():
    # d = 7 and 8 (MAX_DIM) through hodge_riemann_verdict: one Kaehler and
    # one signed tuple of lam_1 diagonal forms per lam |- d - 2.
    rng = random.Random(0xD1A78)
    for d in range(7, MAX_DIM + 1):
        reference = diagonal_form([1] * d)
        for lam in partitions_of(d - 2):
            for low in (1, -2):
                rows = [[rng.randint(low, 3) for _ in range(d)] for _ in range(lam.max_part)]
                omega = schur_form(lam, [diagonal_form(row) for row in rows])
                got = hodge_riemann_verdict(omega, reference).triple
                assert got == diagonal_hr_triple(lam, rows), (d, lam, rows)


def test_signature_family_region_is_read_off_the_ring_side():
    # repro._signature_family: omega_1^2 + a omega_2^2 on C^4, with omega_1
    # the sum and omega_2 = (x1 + x2)/7 + 2(x3 + x4) diagonal.  On
    # proj(1,1,1,1) its 4 x 4 ring Gram G(a) has the determinant below, and
    # every off-diagonal entry, the integral of the class against x_j x_k,
    # is 2 + c a with c > 0, so each of the six pair blocks of the 16 x 16
    # forms Gram is negative definite for a >= 0.  HR holds exactly on
    # [0, 3) and (49/12, oo).
    model = proj(1, 1, 1, 1)
    w1 = GradedClass(model, 1, [1, 1, 1, 1])
    w2 = GradedClass(model, 1, [Fraction(1, 7), Fraction(1, 7), 2, 2])
    g1, g2 = gram_on_h11(w1 * w1), gram_on_h11(w2 * w2)
    pencil = [[QPoly.of(g1[j][k], g2[j][k]) for k in range(4)] for j in range(4)]
    det = det_in_ring(pencil, QPoly.of(1))
    want = QPoly.of(-3, 1) * QPoly.of(-49, 12) * QPoly.of(49, 197, 4) * Fraction(-16, 2401)
    assert det == want
    assert count_real_roots(det, Fraction(0)) == 2
    assert count_real_roots(det, Fraction(0), Fraction(3)) == 1
    assert det(Fraction(3)) == det(Fraction(49, 12)) == 0
    for j, k in itertools.combinations(range(4), 2):
        assert g1[j][k] == 2 and g2[j][k] > 0
    forms1 = diagonal_form([1, 1, 1, 1])
    forms2 = diagonal_form([Fraction(1, 7), Fraction(1, 7), 2, 2])
    sq1, sq2 = wedge(forms1, forms1), wedge(forms2, forms2)
    for a, ring in [
        (Fraction(1), (1, 0, 3)),
        (Fraction(7, 2), (2, 0, 2)),
        (Fraction(5), (1, 0, 3)),
        (Fraction(3), (1, 1, 2)),
        (Fraction(49, 12), (1, 1, 2)),
    ]:
        gram = [[g1[j][k] + a * g2[j][k] for k in range(4)] for j in range(4)]
        assert inertia_triple(gram) == ring, a
        got = hodge_riemann_verdict(sq1 + sq2 * a, forms1).triple
        assert got == (ring[0], ring[1], ring[2] + 12), a
