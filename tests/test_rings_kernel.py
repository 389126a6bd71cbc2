"""The integer-numerator ring kernel against the ``Fraction`` oracle.

``conftest.multiply_oracle`` is the tuple-sum product over ``Fraction``
coefficients that ``rings.multiply`` replaced.  Products, sums,
differences, negations, scalar multiples and top integrals of seeded
classes with mixed denominators, zero and negative coefficients must be
the ones the ``Fraction`` route gives, and every result must be in lowest
terms over a positive denominator.  ``proj`` hands out one shared model
per exponent tuple; a model fetched again, its tables already filled, must
give the same results, and the checks on the exponents must still run.
"""

import math
from fractions import Fraction

import pytest
from conftest import integrate_oracle, multiply_oracle
from instances import random_fraction, rng_for

from schurcert.errors import ValidationError
from schurcert.rings import (
    MAX_MONOMIALS,
    GradedClass,
    RingModel,
    abelian_square,
    integrate,
    multiply,
    proj,
)

SEED = 0x5EED12
MODELS = [
    proj(1),
    proj(5),
    proj(1, 1),
    proj(2, 3),
    proj(4, 1),
    proj(1, 1, 1, 1),
    proj(5, 2, 1),
    proj(3, 1, 2),
    abelian_square(),
    # Top integrals with denominators, so integrate sums over two fractions.
    RingModel("thirds", ("a", "b"), (2, 2), 3, {(2, 1): Fraction(1, 2), (1, 2): Fraction(-2, 3)}),
]


def canonical(cls: GradedClass) -> bool:
    """Lowest terms over a positive denominator; the zero class has den 1."""
    return (
        cls.den > 0
        and math.gcd(cls.den, *cls.nums) == 1
        and (any(cls.nums) or cls.den == 1)
    )


def random_class(rng, model, grade: int) -> GradedClass:
    """About a third of the coefficients zero, the rest a/b with |a| <= 6, b <= 4."""
    n = len(model.basis(grade))
    return GradedClass(
        model, grade, [0 if rng.random() < 0.3 else random_fraction(rng) for _ in range(n)]
    )


def check_against_the_oracle(model):
    """Seeded products, sums, scalar multiples and integrals on the model."""
    d = model.dimension
    for i in range(40):
        rng = rng_for(SEED, i)
        ga, gb = rng.randint(0, d), rng.randint(0, d)
        a, b, c = (random_class(rng, model, g) for g in (ga, gb, ga))
        q = random_fraction(rng)
        results = {
            "a*b": (multiply(a, b), multiply_oracle(a, b).coeffs),
            "a+c": (a + c, tuple(x + y for x, y in zip(a.coeffs, c.coeffs))),
            "a-c": (a - c, tuple(x - y for x, y in zip(a.coeffs, c.coeffs))),
            "-a": (-a, tuple(-x for x in a.coeffs)),
            "a*q": (a * q, tuple(x * q for x in a.coeffs)),
            "q*a": (q * a, tuple(x * q for x in a.coeffs)),
        }
        for name, (got, want) in results.items():
            assert got.coeffs == want, (i, name)
            assert canonical(got), (i, name)
        assert multiply(a, b) == multiply_oracle(a, b), i
        top = multiply(a, random_class(rng, model, d - ga))
        assert integrate(top) == integrate_oracle(top), i


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_kernel_matches_the_fraction_oracle(model):
    check_against_the_oracle(model)


def test_a_model_fetched_twice_is_shared_and_still_checked():
    first = proj(2, 3)
    check_against_the_oracle(first)
    for bad in [(2.0, 3), (0, 3), (2, -1), ()]:
        with pytest.raises(ValidationError):
            proj(*bad)
    again = proj(2, 3)
    assert again is first
    check_against_the_oracle(again)


def test_models_beyond_the_monomial_bound_are_refused():
    # prod(n_i + 1) is the number of monomials within the caps.
    for exps in [(1,) * 10, (1023,), (31, 31), (3, 3, 3, 3, 3)]:
        assert math.prod(n + 1 for n in exps) == MAX_MONOMIALS
        assert proj(*exps).caps == exps
    for exps in [(1,) * 11, (1024,), (31, 32), (2,) * 7]:
        with pytest.raises(ValidationError, match=f"more than {MAX_MONOMIALS} monomials"):
            proj(*exps)


def test_cancellation_and_zero_products():
    m = proj(2, 3)
    x = GradedClass(m, 1, [Fraction(1, 2), Fraction(-5, 3)])
    assert (x - x).nums == (0, 0) and (x - x).den == 1
    assert (x * 0).den == 1 and (x * 0).is_zero()
    assert multiply(m.zero(2), x) == m.zero(3)
    assert multiply(x, m.zero(5)) == m.zero(6)
    assert canonical(multiply(x ** 3, x ** 3))
    assert (x ** 6).nums == () and (x ** 6).den == 1


def test_canonical_form():
    m = proj(2, 3)
    half_third = GradedClass(m, 1, [Fraction(1, 2), Fraction(1, 3)])
    assert (half_third.nums, half_third.den) == ((3, 2), 6)
    assert half_third * 6 == GradedClass(m, 1, [3, 2])
    assert (half_third * 6).den == 1
    scaled = GradedClass(m, 1, [2, 4]) * Fraction(-3, 4)
    assert (scaled.nums, scaled.den) == ((-3, -6), 2)
    assert scaled.coeffs == (Fraction(-3, 2), Fraction(-3))
    x1 = m.generator(0) * Fraction(1, 6)
    x2 = m.generator(1) * Fraction(1, 3)
    total = x1 + x2 + x1
    assert (total.nums, total.den) == ((1, 1), 3)
    assert total == GradedClass.from_monomials(
        m, 1, {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)}
    )


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_codes_add_without_carry(model):
    # Distinct basis monomials get distinct codes, and the code of a product
    # monomial within the caps is the sum of the factors' codes.
    for grade in range(model.dimension + 1):
        codes, where = model.codes(grade)
        assert len(where) == len(codes) == len(model.basis(grade))
        assert [where[c] for c in codes] == list(range(len(codes)))
    code_of = {}
    for grade in range(model.dimension + 1):
        for mono, code in zip(model.basis(grade), model.codes(grade)[0]):
            code_of[mono] = code
    for ma, ca in code_of.items():
        for mb, cb in code_of.items():
            prod = tuple(x + y for x, y in zip(ma, mb))
            if prod in code_of:
                assert code_of[prod] == ca + cb
            else:
                assert all(ca + cb != c for c in code_of.values())
