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

A split bundle owns its Chern classes: the elementary-symmetric recurrence
runs once, when the bundle is built, and its Chern, Schur and derived Schur
classes are all evaluated at that one Chern vector.

Classes are homogeneous by construction; mixed grades are unrepresentable
and cross-grade addition is rejected.  All coefficients are exact
rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .chernpoly import ChernPoly, elementary_symmetric, evaluate
from .chernpoly import derived_schur as derived_poly, schur as schur_poly
from .errors import ValidationError
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

    def integral_of_monomial(self, expo: Monomial) -> Fraction:
        return self.top_integrals.get(expo, 0)

    # -- class constructors -------------------------------------------

    def zero(self, grade: int) -> "GradedClass":
        return GradedClass(self, grade, (Fraction(0),) * len(self.basis(grade)))

    def one(self) -> "GradedClass":
        return GradedClass(self, 0, (Fraction(1),))

    def degree_one(self, coeffs: Sequence) -> "GradedClass":
        """Degree-1 class from coefficients in the documented basis order."""
        if len(coeffs) != len(self.gen_names):
            raise ValidationError(
                f"expected {len(self.gen_names)} coefficients, got {len(coeffs)}"
            )
        return GradedClass(self, 1, tuple(Fraction(c) for c in coeffs))

    def generator(self, index: int) -> "GradedClass":
        coeffs = [Fraction(0)] * len(self.gen_names)
        coeffs[index] = Fraction(1)
        return self.degree_one(coeffs)


def proj(*exponents: int) -> RingModel:
    """Cohomology-model ring of a product of projective spaces."""
    exps = tuple(int(n) for n in exponents)
    if not exps or any(n < 1 for n in exps):
        raise ValidationError(f"factor dimensions must be positive: {exps}")
    names = tuple(f"x{i + 1}" for i in range(len(exps)))
    return RingModel("proj", names, exps, sum(exps), {exps: Fraction(1)})


def abelian_square() -> RingModel:
    """Structure-constant model of the abelian-surface self-product."""
    return RingModel(
        "abelian_square", ("th1", "th2", "lam"), (4, 4, 4), 4, ABELIAN_QUAD_INTEGRALS
    )


class GradedClass:
    """Element of a single grade of a ring model."""

    __slots__ = ("model", "grade", "coeffs")

    def __init__(self, model: RingModel, grade: int, coeffs: Sequence[Fraction]):
        basis = model.basis(grade)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != len(basis):
            raise ValidationError(
                f"grade-{grade} class needs {len(basis)} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", cs)

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
            coeffs[index[mono]] += Fraction(c)
        return cls(model, grade, coeffs)

    def monomials(self) -> dict[Monomial, Fraction]:
        return {
            mono: c
            for mono, c in zip(self.model.basis(self.grade), self.coeffs)
            if c != 0
        }

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _check_model(self, other: "GradedClass") -> None:
        if self.model != other.model:
            raise ValidationError("classes live on different models")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        if not isinstance(other, GradedClass):
            return NotImplemented
        self._check_model(other)
        if self.grade != other.grade:
            raise ValidationError(
                f"cannot add classes of grades {self.grade} and {other.grade}"
            )
        return GradedClass(
            self.model,
            self.grade,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return GradedClass(self.model, self.grade, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return GradedClass(
                self.model, self.grade, tuple(c * q for c in self.coeffs)
            )
        if not isinstance(other, GradedClass):
            return NotImplemented
        return multiply(self, other)

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
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __str__(self):
        return format_class(self)

    def __repr__(self):
        return f"GradedClass(grade={self.grade}, {format_class(self)!r})"


def format_class(cls: GradedClass) -> str:
    """Deterministic rendering in basis order, e.g. ``2*x1 + x2``."""
    names = cls.model.gen_names
    pieces: list[str] = []
    for mono, coeff in zip(cls.model.basis(cls.grade), cls.coeffs):
        if coeff == 0:
            continue
        factors = []
        for name, power in zip(names, mono):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces) if pieces else "0"


def multiply(a: GradedClass, b: GradedClass) -> GradedClass:
    """Product in the quotient ring; grades add, and a product monomial
    survives iff it lies in the target grade's basis (none above the top)."""
    if a.model != b.model:
        raise ValidationError("classes live on different models")
    model = a.model
    grade = a.grade + b.grade
    index = model.index(grade)
    out = [Fraction(0)] * len(index)
    if not index:
        return GradedClass(model, grade, out)
    basis_a = model.basis(a.grade)
    basis_b = model.basis(b.grade)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        ma = basis_a[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            pos = index.get(tuple(x + y for x, y in zip(ma, basis_b[j])))
            if pos is not None:
                out[pos] += ca * cb
    return GradedClass(model, grade, out)


def integrate(a: GradedClass) -> Fraction:
    """Top-degree integral from the model's table; grade must equal dim."""
    if a.grade != a.model.dimension:
        raise ValidationError(
            f"can only integrate grade-{a.model.dimension} classes, got {a.grade}"
        )
    total = Fraction(0)
    for mono, coeff in zip(a.model.basis(a.grade), a.coeffs):
        if coeff != 0:
            total += coeff * a.model.integral_of_monomial(mono)
    return total


class SplitBundle:
    """Direct sum of degree-1 classes ("roots"), with an optional twist.

    The bundle owns its Chern classes: ``cherns[p]`` is c_p, the p-th
    elementary symmetric class of the shifted roots, for p = 0..rank, all
    computed once when the bundle is built.
    """

    __slots__ = ("model", "roots", "twist", "cherns")

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
        if twist is None:
            twist = model.zero(1)
        if twist.model != model or twist.grade != 1:
            raise ValidationError("twist must be a grade-1 class on the same model")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "twist", twist)
        cherns = elementary_symmetric(self.shifted_roots(), model.one())
        object.__setattr__(self, "cherns", tuple(cherns))

    def __setattr__(self, name, value):
        raise AttributeError("SplitBundle is immutable")

    @property
    def rank(self) -> int:
        return len(self.roots)

    def shifted_roots(self) -> tuple[GradedClass, ...]:
        return tuple(r + self.twist for r in self.roots)

    def twisted(self, delta: GradedClass) -> "SplitBundle":
        """The same bundle with the twist increased by ``delta``."""
        return SplitBundle(self.model, self.roots, self.twist + delta)

    def is_ample(self) -> bool:
        """Sufficient criterion on projective-product models only:
        every shifted root has strictly positive basis coefficients."""
        if self.model.name != "proj":
            raise ValidationError(
                "the ampleness criterion is defined on projective-product models"
            )
        return all(
            all(c > 0 for c in root.coeffs) for root in self.shifted_roots()
        )


def chern(bundle: SplitBundle, p: int) -> GradedClass:
    """p-th elementary symmetric class of the shifted roots."""
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
