"""Finite-dimensional graded ring models with exact intersection numbers.

A model is data: generator names, the largest exponent each generator may
carry (its cap), the top grade ``dimension`` and a table of top-grade
monomial integrals.  The basis of a grade is every monomial of that grade
within the caps, and a product monomial outside that basis vanishes.  Two
models are built from data:

* ``proj(n_1, ..., n_k)`` — a product of projective spaces: the quotient of
  a polynomial ring by ``x_i^(n_i + 1)``, with the unique top monomial
  integrating to 1;
* ``abelian_square()`` — the abelian fourfold model: three degree-1
  generators ``th1, th2, lam`` whose only nonzero quadruple integrals are
  hard-coded below.  No attempt is made to model an actual abelian surface;
  products are formal and everything follows from the three constants.

A split bundle keeps its twisted roots r + twist and owns its Chern
classes: the elementary-symmetric recurrence runs once, when the bundle is
built, and its Chern, Schur and derived Schur classes are all evaluated at
that one Chern vector.  Ampleness has one owner, ``RingModel.is_ample``:
on ``proj`` models a degree-1 class with strictly positive coefficients is
ample, and no other model has a criterion.

Classes are homogeneous by construction; mixed grades are unrepresentable
and cross-grade addition is rejected.  All coefficients are exact
rationals, stored as integer numerators ``nums`` (one per basis monomial)
over one denominator ``den > 0`` in lowest terms: ``gcd(den, *nums) == 1``,
and the zero class has ``den == 1``.  Equal classes therefore have equal
``(nums, den)``.  ``coeffs`` gives the same coefficients as ``Fraction``s.

Products add monomial codes.  Generator i gets the digit base
``2 * cap_i + 1`` and a monomial the mixed-radix code
``sum_i e_i * w_i`` with ``w_i`` the product of the earlier bases.  Two
monomials within the caps have digit sums ``e_i + e'_i <= 2 * cap_i``,
below the base, so adding their codes never carries: ``code(m) + code(m')``
is the code of the digit-wise sum, which is ``code(m * m')``, and it is the
code of a basis monomial exactly when ``m * m'`` survives.  ``multiply``
looks each sum up in the target grade's ``code -> position`` table.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .chernpoly import ChernPoly, elementary_symmetric, evaluate, format_terms
from .chernpoly import derived_schur as derived_poly, schur as schur_poly
from .errors import PreconditionError, ValidationError, exact_rational
from .partitions import Partition

Monomial = tuple[int, ...]

# The structure constants of the abelian fourfold model: integrals of the
# degree-4 monomials th1^a th2^b lam^c, keyed by (a, b, c).  Everything not
# listed integrates to zero.  Kept as a module-level table so tests can
# exercise corruption of a single entry.
ABELIAN_QUAD_INTEGRALS: dict[Monomial, Fraction] = {
    (2, 2, 0): Fraction(4),
    (1, 1, 2): Fraction(-4),
    (0, 0, 4): Fraction(24),
}


@dataclass(frozen=True, repr=False)
class RingModel:
    """Graded ring given by its generators, their caps and top integrals.

    Equality is structural (name, generators, caps, dimension) so that
    classes can check "same model"; the per-grade caches are not compared.
    """

    name: str
    gen_names: tuple[str, ...]
    caps: Monomial
    dimension: int
    top_integrals: Mapping[Monomial, Fraction] = field(compare=False)
    _bases: dict = field(default_factory=dict, init=False, compare=False)
    _indices: dict = field(default_factory=dict, init=False, compare=False)
    _codes: dict = field(default_factory=dict, init=False, compare=False)

    def __repr__(self):
        if self.name == "proj":
            return f"proj({','.join(str(n) for n in self.caps)})"
        return self.name

    def basis(self, grade: int) -> tuple[Monomial, ...]:
        """Monomials of the grade within the caps, in descending order."""
        if grade < 0:
            raise ValidationError(f"negative grade {grade}")
        if grade > self.dimension:
            return ()
        if grade not in self._bases:
            ranges = [range(min(n, grade) + 1) for n in self.caps]
            monos = (e for e in itertools.product(*ranges) if sum(e) == grade)
            self._bases[grade] = tuple(sorted(monos, reverse=True))
        return self._bases[grade]

    def index(self, grade: int) -> dict[Monomial, int]:
        """Position of each basis monomial of the grade."""
        if grade not in self._indices:
            self._indices[grade] = {m: i for i, m in enumerate(self.basis(grade))}
        return self._indices[grade]

    def codes(self, grade: int) -> tuple[tuple[int, ...], dict[int, int]]:
        """Code of each basis monomial of the grade, and the position of
        each code (see the module docstring for the code-sum rule)."""
        if grade not in self._codes:
            bases = (2 * n + 1 for n in self.caps[:-1])
            weights = tuple(itertools.accumulate(bases, operator.mul, initial=1))
            codes = tuple(
                sum(e * w for e, w in zip(mono, weights)) for mono in self.basis(grade)
            )
            self._codes[grade] = (codes, {c: i for i, c in enumerate(codes)})
        return self._codes[grade]

    def is_ample(self, cls: "GradedClass") -> bool:
        """Sufficient ampleness criterion, on projective-product models only:
        a degree-1 class with strictly positive basis coefficients."""
        if self.name != "proj":
            raise PreconditionError("ampleness criterion needs a projective-product model")
        return cls.grade == 1 and all(n > 0 for n in cls.nums)

    # -- class constructors -------------------------------------------

    def zero(self, grade: int) -> "GradedClass":
        return _raw(self, grade, (0,) * len(self.basis(grade)), 1)

    def one(self) -> "GradedClass":
        return _raw(self, 0, (1,), 1)

    def degree_one(self, coeffs: Sequence) -> "GradedClass":
        """Degree-1 class from coefficients in the documented basis order."""
        if len(coeffs) != len(self.gen_names):
            raise ValidationError(
                f"expected {len(self.gen_names)} coefficients, got {len(coeffs)}"
            )
        return GradedClass(self, 1, coeffs)

    def generator(self, index: int) -> "GradedClass":
        coeffs = [0] * len(self.gen_names)
        coeffs[index] = 1
        return self.degree_one(coeffs)


def proj(*exponents: int) -> RingModel:
    """Cohomology-model ring of a product of projective spaces."""
    exps = tuple(exponents)
    if not all(isinstance(n, int) for n in exps):
        raise ValidationError(f"factor dimensions must be integers: {exps}")
    if not exps or any(n < 1 for n in exps):
        raise ValidationError(f"factor dimensions must be positive: {exps}")
    names = tuple(f"x{i + 1}" for i in range(len(exps)))
    return RingModel("proj", names, exps, sum(exps), {exps: Fraction(1)})


def abelian_square() -> RingModel:
    """Structure-constant model of the abelian-surface self-product."""
    return RingModel(
        "abelian_square", ("th1", "th2", "lam"), (4, 4, 4), 4, ABELIAN_QUAD_INTEGRALS
    )


_set = object.__setattr__


class GradedClass:
    """Element of a single grade of a ring model: ``nums / den``."""

    __slots__ = ("model", "grade", "nums", "den")

    def __init__(self, model: RingModel, grade: int, coeffs: Sequence[Fraction]):
        basis = model.basis(grade)
        cs = tuple(map(exact_rational, coeffs))
        if len(cs) != len(basis):
            raise ValidationError(
                f"grade-{grade} class needs {len(basis)} coefficients, got {len(cs)}"
            )
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so this is already in lowest terms.
        den = math.lcm(*(c.denominator for c in cs))
        nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        _set(self, "model", model)
        _set(self, "grade", grade)
        _set(self, "nums", nums)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    @classmethod
    def from_monomials(
        cls, model: RingModel, grade: int, entries: dict[Monomial, Fraction]
    ) -> "GradedClass":
        index = model.index(grade)
        coeffs = [Fraction(0)] * len(index)
        for mono, c in entries.items():
            if mono not in index:
                raise ValidationError(f"monomial {mono} not in the grade-{grade} basis")
            coeffs[index[mono]] += exact_rational(c)
        return cls(model, grade, coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in basis order, as ``Fraction``s."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def _check_model(self, other: "GradedClass") -> None:
        if self.model is not other.model and self.model != other.model:
            raise ValidationError("classes live on different models")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if not isinstance(other, GradedClass):
            return NotImplemented
        self._check_model(other)
        if self.grade != other.grade:
            raise ValidationError(
                f"cannot add classes of grades {self.grade} and {other.grade}"
            )
        if self.den == other.den:
            nums = [x + y for x, y in zip(self.nums, other.nums)]
            return _raw(self.model, self.grade, nums, self.den)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums = [x * sa + y * sb for x, y in zip(self.nums, other.nums)]
        return _raw(self.model, self.grade, nums, den)

    def __neg__(self):
        return _raw(self.model, self.grade, [-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GradedClass):
            return multiply(self, other)
        q = exact_rational(other)
        p = q.numerator
        return _raw(
            self.model, self.grade, [n * p for n in self.nums], self.den * q.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedClass":
        if n < 0:
            raise ValidationError("negative power of a graded class")
        result = self.model.one()
        for _ in range(n):
            result = multiply(result, self)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, GradedClass)
            and self.model == other.model
            and self.grade == other.grade
            and self.nums == other.nums
            and self.den == other.den
        )

    __hash__ = None

    def __str__(self):
        return format_class(self)

    def __repr__(self):
        return f"GradedClass(grade={self.grade}, {format_class(self)!r})"


def _raw(model: RingModel, grade: int, nums: Sequence[int], den: int) -> GradedClass:
    """The class ``nums / den`` (``den > 0``), reduced to lowest terms."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    cls = object.__new__(GradedClass)
    _set(cls, "model", model)
    _set(cls, "grade", grade)
    _set(cls, "nums", tuple(nums))
    _set(cls, "den", den)
    return cls


def format_class(cls: GradedClass) -> str:
    """Deterministic rendering in basis order, e.g. ``2*x1 + x2``."""
    names = cls.model.gen_names

    def monomial(mono: tuple[int, ...]) -> str:
        return "*".join(
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(names, mono)
            if power
        )

    return format_terms(
        (monomial(mono), coeff)
        for mono, coeff in zip(cls.model.basis(cls.grade), cls.coeffs)
        if coeff != 0
    )


def multiply(a: GradedClass, b: GradedClass) -> GradedClass:
    """Product in the quotient ring; grades add, and a product monomial
    survives iff it lies in the target grade's basis (none above the top).

    The code of a product monomial is the sum of the factors' codes, so each
    pair of nonzero numerators costs one integer product and one lookup.
    """
    a._check_model(b)
    model = a.model
    grade = a.grade + b.grade
    where = model.codes(grade)[1]
    acc = [0] * len(where)
    if where:
        get = where.get
        right = [(cb, nb) for cb, nb in zip(model.codes(b.grade)[0], b.nums) if nb]
        for ca, na in zip(model.codes(a.grade)[0], a.nums):
            if not na:
                continue
            for cb, nb in right:
                pos = get(ca + cb)
                if pos is not None:
                    acc[pos] += na * nb
    return _raw(model, grade, acc, a.den * b.den)


def integrate(a: GradedClass) -> Fraction:
    """Top-degree integral from the model's table; grade must equal dim."""
    model = a.model
    if a.grade != model.dimension:
        raise ValidationError(
            f"can only integrate grade-{model.dimension} classes, got {a.grade}"
        )
    index = model.index(a.grade)
    num, den = 0, 1  # the sum so far, as num / den
    for mono, value in model.top_integrals.items():
        pos = index.get(mono)
        if pos is not None:
            num = num * value.denominator + a.nums[pos] * value.numerator * den
            den *= value.denominator
    return Fraction(num, den * a.den)


class SplitBundle:
    """Direct sum of degree-1 classes ("roots"), with an optional twist.

    The bundle keeps the twisted roots r + twist as ``roots`` and owns its
    Chern classes: ``cherns[p]`` is c_p, the p-th elementary symmetric
    class of the roots, for p = 0..rank, all computed once when the bundle
    is built.
    """

    __slots__ = ("model", "roots", "cherns")

    def __init__(
        self,
        model: RingModel,
        roots: Sequence[GradedClass],
        twist: GradedClass | None = None,
    ):
        roots = tuple(roots)
        if not roots:
            raise ValidationError("a split bundle needs at least one root")
        for r in roots:
            if r.model != model:
                raise ValidationError("root lives on a different model")
            if r.grade != 1:
                raise ValidationError("roots must have grade 1")
        if twist is not None:
            if twist.model != model or twist.grade != 1:
                raise ValidationError("twist must be a grade-1 class on the same model")
            roots = tuple(r + twist for r in roots)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "roots", roots)
        cherns = elementary_symmetric(roots, model.one())
        object.__setattr__(self, "cherns", tuple(cherns))

    def __setattr__(self, name, value):
        raise AttributeError("SplitBundle is immutable")

    @property
    def rank(self) -> int:
        return len(self.roots)

    def is_ample(self) -> bool:
        """Whether every root passes ``RingModel.is_ample``."""
        return all(self.model.is_ample(root) for root in self.roots)


def chern(bundle: SplitBundle, p: int) -> GradedClass:
    """p-th elementary symmetric class of the twisted roots."""
    if p < 0 or p > bundle.rank:
        raise ValidationError(f"Chern degree {p} out of range 0..{bundle.rank}")
    return bundle.cherns[p]


def evaluate_chern_poly(poly: ChernPoly, bundle: SplitBundle) -> GradedClass:
    """Evaluate a twist-free Chern polynomial at the bundle's Chern classes."""
    return evaluate(poly, bundle.cherns, bundle.model.one())


def schur_class(bundle: SplitBundle, lam: Partition) -> GradedClass:
    """Schur class of the bundle: the Chern-determinant evaluated in the ring.

    ``schur_poly`` checks that no part exceeds the rank, so the determinant
    is a nonzero polynomial of grade ``|lam|``.
    """
    return evaluate_chern_poly(schur_poly(lam, bundle.rank), bundle)


def derived_schur_class(bundle: SplitBundle, mu: Partition, order: int) -> GradedClass:
    """Derived Schur class of the bundle, of grade ``|mu| - order``."""
    poly = derived_poly(mu, bundle.rank, order)
    if poly.is_zero():
        return bundle.model.zero(mu.weight - order)
    return evaluate_chern_poly(poly, bundle)


def gram_on_basis(
    omega: GradedClass, basis: Sequence[GradedClass]
) -> list[list[Fraction]]:
    """Matrix of (a, b) -> integral(a * omega * b) over the given classes."""
    model = omega.model
    for cls in basis:
        if cls.model != model:
            raise ValidationError("basis class lives on a different model")
    n = len(basis)
    mids = [multiply(cls, omega) for cls in basis]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = integrate(multiply(mids[i], basis[j]))
            gram[i][j] = val
            gram[j][i] = val
    return gram


def gram_on_h11(omega: GradedClass) -> list[list[Fraction]]:
    """Gram matrix of the degree-1 pairing defined by a grade-(d-2) class.

    Basis order is the model's documented degree-1 order, so the output is
    bit-reproducible.
    """
    model = omega.model
    if omega.grade != model.dimension - 2:
        raise ValidationError(
            f"expected grade {model.dimension - 2}, got {omega.grade}"
        )
    basis = [model.generator(i) for i in range(len(model.gen_names))]
    return gram_on_basis(omega, basis)
