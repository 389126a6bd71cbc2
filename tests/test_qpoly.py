import math
import random
from fractions import Fraction

import pytest

from conftest import odd_multiplicity_part, poly_gcd, primitive, squarefree_part
from schurcert.errors import ValidationError
from schurcert.qpoly import (
    QPoly,
    cauchy_root_bound,
    count_real_roots,
    isolate_real_root,
    nonneg_on_reals,
    sturm_chain,
)


def power(p: QPoly, n: int) -> QPoly:
    """p^n as a product of n factors."""
    return math.prod([p] * n, start=QPoly.of(1))


def test_arithmetic_basics():
    x = QPoly.of(0, 1)
    p = x * x - QPoly.of(1)
    assert p == QPoly.of(-1, 0, 1)
    assert p(2) == 3
    assert p(Fraction(1, 2)) == Fraction(-3, 4)
    assert (p * p).degree() == 4
    assert p.derivative() == QPoly.of(0, 2)
    assert (x * x * x).coeffs == (0, 0, 0, 1)
    assert QPoly.of(0, 0).is_zero()


def test_divmod_reconstructs():
    rng = random.Random(1)
    for _ in range(40):
        a = QPoly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))])
        b = QPoly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()


def test_gcd_and_squarefree():
    x = QPoly.of(0, 1)
    p = power(x - QPoly.of(1), 2) * (x + QPoly.of(2))
    g = poly_gcd(p, p.derivative())
    assert g == QPoly.of(-1, 1)  # x - 1
    assert squarefree_part(p) == primitive((x - QPoly.of(1)) * (x + QPoly.of(2)))


def test_odd_multiplicity_part():
    x = QPoly.of(0, 1)
    p = power(x - QPoly.of(1), 2) * power(x + QPoly.of(3), 3) * x
    odd = odd_multiplicity_part(p)
    assert odd == primitive((x + QPoly.of(3)) * x)


def test_sturm_root_counts():
    x = QPoly.of(0, 1)
    p = x * x - QPoly.of(1)  # roots -1, 1
    assert count_real_roots(p) == 2
    assert count_real_roots(p, Fraction(0), Fraction(2)) == 1
    assert count_real_roots(p, Fraction(-2), Fraction(2)) == 2
    assert count_real_roots(p, Fraction(1), Fraction(5)) == 0  # (1, 5] excludes 1
    assert count_real_roots(p, Fraction(0), Fraction(1)) == 1  # (0, 1] includes 1
    q = x * x + QPoly.of(1)
    assert count_real_roots(q) == 0
    cubic = x * x * x - x * 7 + QPoly.of(6)  # roots 1, 2, -3
    assert count_real_roots(cubic) == 3
    assert count_real_roots(cubic, Fraction(0), None) == 2


def test_constant_polynomials_take_the_general_rule():
    assert count_real_roots(QPoly.of(7)) == 0
    assert count_real_roots(QPoly.of(7), Fraction(-3), Fraction(5)) == 0
    assert count_real_roots(QPoly.of(7), None, Fraction(0)) == 0
    assert odd_multiplicity_part(QPoly.of(-5)) == QPoly.of(1)
    assert sturm_chain(QPoly.of(3)) == [QPoly.of(1)]


def test_sturm_chain_on_multiple_roots_uses_squarefree_part():
    x = QPoly.of(0, 1)
    p = power(x - QPoly.of(2), 3)
    assert count_real_roots(p) == 1
    chain = sturm_chain(p)
    assert chain[0].degree() == 1


def test_isolation_width_and_membership():
    x = QPoly.of(0, 1)
    p = x * x - QPoly.of(2)  # sqrt(2) above 0
    lo, hi = isolate_real_root(p, Fraction(1, 10**6))
    assert hi - lo < Fraction(1, 10**6)
    assert lo * lo < 2 < hi * hi
    # smallest root above 0 of (x-1)(x-3)
    q = (x - QPoly.of(1)) * (x - QPoly.of(3))
    lo, hi = isolate_real_root(q, Fraction(1, 100))
    assert lo < 1 <= hi
    with pytest.raises(ValidationError):
        isolate_real_root(x * x + QPoly.of(1), Fraction(1, 10))


def test_isolation_width_has_a_floor():
    # Each halving costs a Sturm evaluation on longer rationals, so widths
    # below 10^-300 are refused before the chain is built.
    p = QPoly.of(-2, 0, 1)
    lo, hi = isolate_real_root(p, Fraction(1, 10**300))
    assert hi - lo < Fraction(1, 10**300) and lo * lo < 2 < hi * hi
    with pytest.raises(ValidationError, match="at least 1/10\\^300"):
        isolate_real_root(p, Fraction(1, 10**301))


def test_nonneg_decisions():
    x = QPoly.of(0, 1)
    assert nonneg_on_reals(x * x)
    assert not nonneg_on_reals(x * x - QPoly.of(1))
    assert nonneg_on_reals(x * x * 3)
    assert nonneg_on_reals(power(x * x - QPoly.of(1), 2))
    assert not nonneg_on_reals(-(x * x))
    assert not nonneg_on_reals(x * x * x)
    assert nonneg_on_reals(QPoly())
    assert nonneg_on_reals(QPoly.of(5))
    assert not nonneg_on_reals(QPoly.of(-5))
    assert not nonneg_on_reals(power(x, 4) - QPoly.of(1))
    assert nonneg_on_reals(power(x, 4) + x * x)
    # touches zero at x=0 but never crosses
    assert nonneg_on_reals(x * x * (x * x + QPoly.of(1)))


def _built_polynomial(rng):
    """A nonzero multiple of distinct rational linear factors and
    irreducible quadratics (t - a)^2 + b, b > 0, each to a power 1..4;
    returns the polynomial and its real roots with their multiplicities."""
    x = QPoly.of(0, 1)
    p = QPoly.of(rng.choice((1, -1, 2, Fraction(-1, 3))))
    roots, count = {}, rng.randint(0, 3)
    while len(roots) < count:
        roots[Fraction(rng.randint(-6, 6), rng.randint(1, 3))] = rng.randint(1, 4)
    for r, m in roots.items():
        p = p * power(x - QPoly.of(r), m)
    for _ in range(rng.randint(0, 1)):
        a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 4), rng.randint(1, 3))
        p = p * power(power(x - QPoly.of(a), 2) + QPoly.of(b), rng.randint(1, 4))
    return p, roots


def test_decisions_on_built_polynomials():
    """Nonnegativity against Yun's decomposition, and root counts and
    isolation against the roots the polynomial was built from, with
    interval ends taken at those roots, multiple ones included."""
    rng = random.Random(23)
    for _ in range(80):
        p, roots = _built_polynomial(rng)
        by_yun = (
            p.degree() % 2 == 0
            and p.leading() > 0
            and count_real_roots(odd_multiplicity_part(p)) == 0
        )
        assert nonneg_on_reals(p) == by_yun
        assert by_yun == (p.leading() > 0 and all(m % 2 == 0 for m in roots.values()))
        ends = [None, *roots, Fraction(rng.randint(-13, 13), 2)]
        for lo in ends:
            for hi in ends:
                inside = sum(1 for r in roots if (lo is None or lo < r) and (hi is None or r <= hi))
                if lo is None or hi is None or lo <= hi:
                    assert count_real_roots(p, lo, hi) == inside, (p, lo, hi)
        positive = [r for r in roots if r > 0]
        width = Fraction(1, 10**rng.randint(1, 6))
        if positive:
            lo, hi = isolate_real_root(p, width)
            assert lo < min(positive) <= hi and hi - lo < width
        else:
            with pytest.raises(ValidationError, match="no real root above 0"):
                isolate_real_root(p, width)


def test_cauchy_bound_contains_roots():
    x = QPoly.of(0, 1)
    p = (x - QPoly.of(5)) * (x + QPoly.of(11)) * (x - QPoly.of(2))
    b = cauchy_root_bound(p)
    assert count_real_roots(p, -b, b) == 3


def _numbers(*values):
    """Every coefficient or number in ``values`` (QPolys, tuples, numbers)."""
    for v in values:
        if isinstance(v, QPoly):
            yield from v.coeffs
        elif isinstance(v, tuple):
            yield from _numbers(*v)
        else:
            yield v


def test_integer_coefficients_stay_exact():
    # Coefficients are stored as made, so ints reach every division; each
    # division has a Fraction operand and no result is a float.
    x = QPoly.of(0, 1)
    p = (x * x - QPoly.of(2)) * power(x - QPoly.of(3), 2) * (QPoly.of(1, 2) * 3)
    assert all(type(c) is int for c in p.coeffs)
    quo, rem = divmod(p, QPoly.of(5, 0, 3))
    assert quo.coeffs and all(type(c) is Fraction for c in quo.coeffs)
    assert type(cauchy_root_bound(p)) is Fraction
    assert type(cauchy_root_bound(QPoly.of(3, 2))) is Fraction
    chain = sturm_chain(p)
    assert len(chain) > 2 and all(type(c) is int for q in chain for c in q.coeffs)
    built = QPoly.of(Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))
    assert all(type(c) is int for q in sturm_chain(built) for c in q.coeffs)
    interval = isolate_real_root(p, Fraction(1, 10**6))
    results = (quo, rem, p(2), p(Fraction(1, 3)), p.derivative(), p * p, -p, interval)
    assert not any(isinstance(v, float) for v in _numbers(*results))
    assert type(count_real_roots(p)) is int and nonneg_on_reals(p * p)


@pytest.fixture
def chains_built(monkeypatch):
    """The polynomials ``qpoly.sturm_chain`` is called on, in call order."""
    import schurcert.qpoly as qpoly

    built = []
    real_chain = qpoly.sturm_chain

    def counted(p):
        built.append(p)
        return real_chain(p)

    monkeypatch.setattr(qpoly, "sturm_chain", counted)
    return built


def test_isolation_builds_one_sturm_chain(chains_built):
    x = QPoly.of(0, 1)
    p = (x * x - QPoly.of(2)) * power(x - QPoly.of(5), 2)
    for width in (Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 10**10)):
        chains_built.clear()
        lo, hi = isolate_real_root(p, width)
        assert len(chains_built) == 1
        assert hi - lo < width and lo * lo < 2 < hi * hi


def test_hl_scan_intervals_unchanged(chains_built):
    # The intervals hl-scan printed when every bisection step built its own
    # Sturm chains; one chain per isolation must give the same bisection.
    from schurcert.certify import hl_failure_scan

    expected = {
        Fraction(1, 100): (Fraction(5, 32), Fraction(21, 128)),
        Fraction(1, 10**6): (Fraction(171811, 1048576), Fraction(42953, 262144)),
        Fraction(1, 10**10): (
            Fraction(1407483309, 8589934592),
            Fraction(2814966619, 17179869184),
        ),
    }
    for width, interval in expected.items():
        chains_built.clear()
        assert hl_failure_scan(width).interval == interval
        assert len(chains_built) == 1
