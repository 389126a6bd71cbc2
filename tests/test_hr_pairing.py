"""The Hodge-Riemann pairing by coefficient lookup against wedge routes.

``forms.hr_gram`` and ``forms.hodge_riemann_verdict`` read every Gram
entry and the positivity integral off the coefficients of omega, by the
sign rule in the ``forms`` module docstring.  These tests compare them with
routes that wedge: the ``GaussianRational`` oracle of ``conftest`` for the
Gram, and ``integrate_top`` of the full triple product for the positivity.
"""

import itertools
import random
from fractions import Fraction

from conftest import GaussianForm, _top_coefficient_oracle, hr_gram_oracle, real_oneone_basis
from instances import random_pd_hermitian

from schurcert.forms import (
    PQForm,
    _pairing,
    diagonal_form,
    hodge_riemann_verdict,
    hr_gram,
    integrate_top,
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
    for d in (2, 3, 4, 5, 6, 7):
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
        assert rep.positivity_scalar == integrate_top(wedge(wedge(omega, ref), ref))
        assert rep.triple == inertia_triple(hr_gram(omega))


def test_elementary_pairing_matches_the_oracle_wedge():
    # Non-real omega and coefficients: the sign rule must hold on both the
    # real and the imaginary part of every lookup, for every j, k, l, m.
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
        for j, k, l, m in itertools.product(range(d), repeat=4):
            re, im = _pairing(omega, [(j, k, 2, 1)], [(l, m, 1, -3)])
            left = GaussianForm(d, 1, 1, {(1 << j, 1 << k): GaussianRational(2, 1)})
            right = GaussianForm(d, 1, 1, {(1 << l, 1 << m): GaussianRational(1, -3)})
            expected = _top_coefficient_oracle(left * oracle, right)
            got = GaussianRational(Fraction(re, omega.den), Fraction(im, omega.den))
            assert got == expected, (d, j, k, l, m)
