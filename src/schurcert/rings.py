"""Finite-dimensional graded ring models with exact intersection numbers.

Two model families:

* products of projective spaces — the quotient of a polynomial ring by
  ``x_i^(n_i + 1)``, with the unique top monomial integrating to 1;
* the abelian fourfold model — a structure-constant ring on three degree-1
  generators ``th1, th2, lam`` whose only nonzero quadruple integrals are
  hard-coded below.  No attempt is made to model an actual abelian surface;
  products are formal and everything follows from the three constants.

Classes are homogeneous by construction; mixed grades are unrepresentable
and cross-grade addition is rejected.  All coefficients are exact
rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .chernpoly import ChernPoly, elementary_symmetric, evaluate
from .errors import ValidationError
from .partitions import Partition

# The structure constants of the abelian fourfold model: integrals of the
# degree-4 monomials th1^a th2^b lam^c, keyed by (a, b, c).  Everything not
# listed integrates to zero.  Kept as a module-level table so tests can
# exercise corruption of a single entry.
ABELIAN_QUAD_INTEGRALS: dict[tuple[int, int, int], Fraction] = {
    (2, 2, 0): Fraction(4),
    (1, 1, 2): Fraction(-4),
    (0, 0, 4): Fraction(24),
}


class RingModel:
    """Shared interface of the graded ring models."""

    dimension: int
    gen_names: tuple[str, ...]

    def basis(self, grade: int) -> tuple[tuple[int, ...], ...]:
        raise NotImplementedError

    def monomial_survives(self, expo: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def integral_of_monomial(self, expo: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    # Equality is structural so that classes can check "same model".
    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, RingModel) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


class ProjProduct(RingModel):
    """Cohomology-model ring of a product of projective spaces."""

    def __init__(self, exponents: Sequence[int]):
        exps = tuple(int(n) for n in exponents)
        if not exps or any(n < 1 for n in exps):
            raise ValidationError(f"factor dimensions must be positive: {exps}")
        self.exponents = exps
        self.dimension = sum(exps)
        self.gen_names = tuple(f"x{i + 1}" for i in range(len(exps)))
        self._basis_cache: dict[int, tuple[tuple[int, ...], ...]] = {}

    def _key(self):
        return ("proj", self.exponents)

    def basis(self, grade: int) -> tuple[tuple[int, ...], ...]:
        if grade < 0:
            raise ValidationError(f"negative grade {grade}")
        if grade not in self._basis_cache:
            ranges = [range(min(n, grade) + 1) for n in self.exponents]
            monos = [
                expo
                for expo in itertools.product(*ranges)
                if sum(expo) == grade
            ]
            monos.sort(reverse=True)
            self._basis_cache[grade] = tuple(monos)
        return self._basis_cache[grade]

    def monomial_survives(self, expo: tuple[int, ...]) -> bool:
        return all(a <= n for a, n in zip(expo, self.exponents))

    def integral_of_monomial(self, expo: tuple[int, ...]) -> Fraction:
        # At top grade the only monomial within the caps is (n_1, ..., n_k).
        return Fraction(1) if expo == self.exponents else Fraction(0)

    def __repr__(self):
        return f"proj({','.join(str(n) for n in self.exponents)})"


class AbelianSquare(RingModel):
    """Structure-constant model of the abelian-surface self-product."""

    def __init__(self):
        self.dimension = 4
        self.gen_names = ("th1", "th2", "lam")
        self._basis_cache: dict[int, tuple[tuple[int, ...], ...]] = {}

    def _key(self):
        return ("abelian_square",)

    def basis(self, grade: int) -> tuple[tuple[int, ...], ...]:
        if grade < 0:
            raise ValidationError(f"negative grade {grade}")
        if grade > self.dimension:
            return ()
        if grade not in self._basis_cache:
            monos = [
                expo
                for expo in itertools.product(range(grade + 1), repeat=3)
                if sum(expo) == grade
            ]
            monos.sort(reverse=True)
            self._basis_cache[grade] = tuple(monos)
        return self._basis_cache[grade]

    def monomial_survives(self, expo: tuple[int, ...]) -> bool:
        return sum(expo) <= self.dimension

    def integral_of_monomial(self, expo: tuple[int, ...]) -> Fraction:
        return ABELIAN_QUAD_INTEGRALS.get(expo, Fraction(0))

    def __repr__(self):
        return "abelian_square"


def proj(*exponents: int) -> ProjProduct:
    return ProjProduct(exponents)


def abelian_square() -> AbelianSquare:
    return AbelianSquare()


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
        cls, model: RingModel, grade: int, entries: dict[tuple[int, ...], Fraction]
    ) -> "GradedClass":
        basis = model.basis(grade)
        index = {mono: i for i, mono in enumerate(basis)}
        coeffs = [Fraction(0)] * len(basis)
        for mono, c in entries.items():
            if mono not in index:
                raise ValidationError(f"monomial {mono} not in the grade-{grade} basis")
            coeffs[index[mono]] += Fraction(c)
        return cls(model, grade, coeffs)

    def monomials(self) -> dict[tuple[int, ...], Fraction]:
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
    """Product in the quotient ring; grades add, above-top vanishes."""
    if a.model != b.model:
        raise ValidationError("classes live on different models")
    model = a.model
    grade = a.grade + b.grade
    basis = model.basis(grade) if grade <= model.dimension else ()
    if not basis:
        # Identically zero above the top grade (empty basis).
        return GradedClass(model, grade, ())
    index = {mono: i for i, mono in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    basis_a = model.basis(a.grade)
    basis_b = model.basis(b.grade)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        ma = basis_a[i]
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            mono = tuple(x + y for x, y in zip(ma, basis_b[j]))
            if not model.monomial_survives(mono):
                continue
            out[index[mono]] += ca * cb
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
    """Direct sum of degree-1 classes ("roots"), with an optional twist."""

    __slots__ = ("model", "roots", "twist")

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
        if not isinstance(self.model, ProjProduct):
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
    return elementary_symmetric(bundle.shifted_roots(), bundle.model.one(), p)[p]


def chern_classes(bundle: SplitBundle) -> list[GradedClass]:
    """All Chern classes c_0 .. c_rank of the bundle."""
    return elementary_symmetric(bundle.shifted_roots(), bundle.model.one())


def evaluate_chern_poly(
    poly: ChernPoly, cherns: Sequence[GradedClass], model: RingModel
) -> GradedClass:
    """Evaluate a twist-free Chern polynomial at ring-valued Chern classes."""
    return evaluate(poly, cherns, model.one())


def schur_class(bundle: SplitBundle, lam: Partition) -> GradedClass:
    """Schur class of the bundle: the Chern-determinant evaluated in the ring."""
    from .chernpoly import schur as schur_poly

    lam.require_rank(bundle.rank)
    poly = schur_poly(lam, bundle.rank)
    if poly.grade is None:
        return bundle.model.one() * 0
    return evaluate_chern_poly(poly, chern_classes(bundle), bundle.model)


def derived_schur_class(bundle: SplitBundle, mu: Partition, order: int) -> GradedClass:
    """Derived Schur class of the bundle, of grade ``|mu| - order``."""
    from .chernpoly import derived_schur as derived_poly

    poly = derived_poly(mu, bundle.rank, order)
    if poly.is_zero():
        return bundle.model.zero(mu.weight - order)
    return evaluate_chern_poly(poly, chern_classes(bundle), bundle.model)


def schur_class_ssyt_oracle(bundle: SplitBundle, lam: Partition) -> GradedClass:
    """Independent route to the Schur class by tableau enumeration.

    Sums the monomial expansion over semistandard tableaux evaluated at the
    shifted roots; compares against :func:`schur_class` in tests.
    """
    from .chernpoly import ssyt_contents

    model = bundle.model
    shifted = bundle.shifted_roots()
    total = model.zero(lam.weight)
    for content in ssyt_contents(lam, bundle.rank):
        term = model.one()
        for root, power in zip(shifted, content):
            for _ in range(power):
                term = multiply(term, root)
        total = total + term
    return total


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
