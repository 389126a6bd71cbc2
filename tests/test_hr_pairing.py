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
shares no code with the forms layer.
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
