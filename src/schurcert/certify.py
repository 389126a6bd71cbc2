"""Inequality and cone certification in exact arithmetic.

Every check verifies its own hypotheses before certifying anything; callers
are never trusted.  Equality detection is exact rational comparison, so no
tolerance parameter exists anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chernpoly import det_in_ring
from .errors import PreconditionError, ValidationError, exact_rational
from .inertia import inertia_triple, quadratic_value, rational_det
from .partitions import Partition
from .qpoly import QPoly, count_real_roots, isolate_real_root, nonneg_on_reals
from .rings import (
    GradedClass,
    RingModel,
    SplitBundle,
    chern,
    derived_schur_class,
    gram_on_basis,
    integrate,
    multiply,
    proj,
)

Matrix = Sequence[Sequence[Fraction]]


@dataclass(frozen=True)
class Inequality:
    """An exact inequality lhs <= rhs; its flags are read off the pair."""

    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def equality(self) -> bool:
        return self.lhs == self.rhs


# -- Hodge-Index inequality on a verified (1, 0, n-1) form ---------------


@dataclass(frozen=True)
class HodgeIndexResult(Inequality):
    """lhs = Q(v) Q(h), rhs = Q(v, h)^2."""

    witness: Fraction | None  # v = witness * h when proportional

    @property
    def proportional(self) -> bool:
        """Always ``equality``; the benchmark prints both."""
        return self.equality


def hodge_index_check(q: Matrix, h: Sequence[Fraction], v: Sequence[Fraction]) -> HodgeIndexResult:
    """Certify Q(v) Q(h) <= Q(v,h)^2 under verified hypotheses.

    Requires (and checks) that Q has inertia (1, 0, n-1) and Q(h) > 0.
    Then equality holds iff v is proportional to h, with witness
    Q(v,h) / Q(h): write v = kappa h + w with kappa = Q(v,h) / Q(h), so
    Q(h,w) = 0 and Q(v) Q(h) - Q(v,h)^2 = Q(w) Q(h).  Q is positive on h
    and has one positive direction, so it is negative definite on h^perp,
    hence Q(w) <= 0 with equality iff w = 0, that is iff v = kappa h.
    """
    n = len(q)
    triple = inertia_triple(q)
    if triple != (1, 0, n - 1):
        raise PreconditionError(
            f"form does not have the required (1, 0, n-1) signature (inertia={triple})"
        )
    qh = quadratic_value(q, h)
    if qh <= 0:
        raise PreconditionError(f"Q(h) = {qh} is not positive")
    qv = quadratic_value(q, v)
    qvh = quadratic_value(q, v, h)
    lhs = qv * qh
    rhs = qvh * qvh
    return HodgeIndexResult(lhs, rhs, qvh / qh if lhs == rhs else None)


# -- block-form inequality ----------------------------------------------


@dataclass(frozen=True)
class BlockFormInstance:
    """Data of a pairing on V + R in block form [[Q_V, phi^t], [phi, 0]]."""

    q_v: tuple[tuple[Fraction, ...], ...]
    phi: tuple[Fraction, ...]
    h: tuple[Fraction, ...]

    @classmethod
    def of(cls, q_v: Matrix, phi: Sequence, h: Sequence) -> "BlockFormInstance":
        return cls(
            tuple(tuple(exact_rational(x) for x in row) for row in q_v),
            tuple(exact_rational(x) for x in phi),
            tuple(exact_rational(x) for x in h),
        )

    @property
    def rho(self) -> int:
        return len(self.phi)

    def q_w(self) -> list[list[Fraction]]:
        rho = self.rho
        out = [
            [self.q_v[i][j] for j in range(rho)] + [self.phi[i]]
            for i in range(rho)
        ]
        out.append(list(self.phi) + [Fraction(0)])
        return out

    def phi_of(self, v: Sequence[Fraction]) -> Fraction:
        return sum(a * exact_rational(b) for a, b in zip(self.phi, v))


@dataclass(frozen=True)
class BlockFormResult(Inequality):
    """lhs = Q_V(v) phi(h), rhs = 2 Q_V(v, h) phi(v)."""

    v_is_zero: bool
    kernel_inertia: tuple[int, int, int]


def block_form_check(inst: BlockFormInstance, v: Sequence[Fraction]) -> BlockFormResult:
    """Certify Q_V(v) phi(h) <= 2 Q_V(v,h) phi(v) and the kernel conclusion.

    Hypotheses verified first: the extended pairing has inertia (1, 0, rho),
    Q_V(h) > 0 and phi(h) > 0.  The inertia of Q_V on ker(phi) is read off
    that triple: for phi != 0 the bordered matrix [[Q_V, phi], [phi^t, 0]]
    has the inertia of Q_V on ker(phi) plus (1, 0, 1) (Chabrillac-Crouzeix
    1984), and phi = 0 would give it a zero row.  So Q_V is negative
    definite on ker(phi), with inertia (0, 0, rho - 1).
    """
    rho = inst.rho
    triple = inertia_triple(inst.q_w())
    if triple != (1, 0, rho):
        raise PreconditionError(
            f"extended block form does not have signature (1, 0, rho) (inertia={triple})"
        )
    qvh_h = quadratic_value(inst.q_v, inst.h)
    if qvh_h <= 0:
        raise PreconditionError(f"Q_V(h) = {qvh_h} is not positive")
    phi_h = inst.phi_of(inst.h)
    if phi_h <= 0:
        raise PreconditionError(f"phi(h) = {phi_h} is not positive")
    return BlockFormResult(
        lhs=quadratic_value(inst.q_v, v) * phi_h,
        rhs=2 * quadratic_value(inst.q_v, v, inst.h) * inst.phi_of(v),
        v_is_zero=all(x == 0 for x in v),
        kernel_inertia=(triple[0] - 1, triple[1], triple[2] - 1),
    )


# -- nef cone of the abelian fourfold model ------------------------------


@dataclass(frozen=True)
class Nef2Coefficients:
    """Coefficients of a1 th1^2 + a2 th1 th2 + a3 th2^2 + a4 th1 lam
    + a5 th2 lam + a6 lam^2."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a5: Fraction
    a6: Fraction

    @classmethod
    def of(cls, *values) -> "Nef2Coefficients":
        if len(values) != 6:
            raise ValidationError(f"expected 6 coefficients, got {len(values)}")
        return cls(*(exact_rational(v) for v in values))

    def to_class(self, model: RingModel) -> GradedClass:
        return GradedClass.from_monomials(
            model,
            2,
            {
                (2, 0, 0): self.a1,
                (1, 1, 0): self.a2,
                (0, 2, 0): self.a3,
                (1, 0, 1): self.a4,
                (0, 1, 1): self.a5,
                (0, 0, 2): self.a6,
            },
        )


@dataclass(frozen=True)
class Nef2Verdict:
    conditions: tuple[tuple[str, bool, bool], ...]  # (name, holds, equality)
    quartic_identically_zero: bool

    @property
    def member(self) -> bool:
        return all(holds for _, holds, _ in self.conditions)

    @property
    def boundary(self) -> bool:
        """A member on which some condition holds with equality."""
        return self.member and any(eq for _, _, eq in self.conditions)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, holds, _ in self.conditions if not holds)


def _quartic_margin(c: Nef2Coefficients) -> QPoly:
    """4 (a3 b^2 - a5 b + a2 - a6)((a2 - a6) b^2 - a4 b + a1)
    minus (a5 b^2 + (a2 - 6 a6) b + a4)^2, as a polynomial in b."""
    g = c.a2 - c.a6
    left = QPoly.of(c.a4, c.a2 - 6 * c.a6, c.a5)
    right = 4 * (QPoly.of(g, -c.a5, c.a3) * QPoly.of(c.a1, -c.a4, g))
    return right - left * left


def nef2_membership(c: Nef2Coefficients) -> Nef2Verdict:
    """Membership in the closed cone cut out by the five explicit conditions.

    The first four are polynomial inequalities in the coefficients; the
    fifth demands a quartic in the auxiliary variable be nonnegative on the
    whole real line, decided exactly by Sturm root counting.
    """
    g = c.a2 - c.a6
    disc1 = 4 * c.a1 * g - c.a4 * c.a4
    disc2 = 4 * c.a3 * g - c.a5 * c.a5
    margin = _quartic_margin(c)
    quartic_holds = nonneg_on_reals(margin)
    quartic_identically_zero = margin.is_zero()
    # Equality for the quartic condition: the margin touches zero somewhere.
    quartic_equality = quartic_identically_zero or (
        quartic_holds and count_real_roots(margin) > 0
    )
    conditions = (
        ("nonneg_a1_a3", c.a1 >= 0 and c.a3 >= 0, c.a1 == 0 or c.a3 == 0),
        ("a2_ge_a6", c.a2 >= c.a6, c.a2 == c.a6),
        ("disc_th1", disc1 >= 0, disc1 == 0),
        ("disc_th2", disc2 >= 0, disc2 == 0),
        ("quartic", quartic_holds, quartic_equality),
    )
    return Nef2Verdict(conditions, quartic_identically_zero)


# -- discrete log-concavity ----------------------------------------------


def discrete_logconcave(values: Sequence[Fraction]) -> bool:
    """Strict log-concavity of a positive sequence, without logarithms.

    Checks every midpoint inequality f(i-1)^2 > f(i) f(i-2) by exact
    cross-multiplication.  For positive values that is the full chord
    condition f(i)^(k-j) f(k)^(j-i) < f(j)^(k-i) for all i < j < k: the
    midpoint inequalities say log f has negative second differences, so
    log f is strictly concave, which is the chord condition; conversely
    the chord condition at k = i + 2 is the midpoint inequality.
    """
    vals = [exact_rational(v) for v in values]
    if any(v <= 0 for v in vals):
        raise ValidationError("log-concavity needs strictly positive values")
    return _midpoint_strict(vals)


def _midpoint_strict(vals: Sequence[Fraction]) -> bool:
    return all(
        vals[i - 1] * vals[i - 1] > vals[i] * vals[i - 2]
        for i in range(2, len(vals))
    )


@dataclass(frozen=True)
class LogConcavityReport:
    values: tuple[Fraction, ...]

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.values)

    @property
    def strict(self) -> bool:
        return self.positive and _midpoint_strict(self.values)

    @property
    def counterexamples(self) -> tuple[str, ...]:
        return tuple(
            f"f({i})={v} is not positive" for i, v in enumerate(self.values) if v <= 0
        )


def _powers(x: GradedClass, n: int) -> list[GradedClass]:
    """``[x^0, ..., x^n]`` by a running product."""
    powers = [x.model.one()]
    for _ in range(n):
        powers.append(multiply(powers[-1], x))
    return powers


def _require_ample(bundle: SplitBundle, h: GradedClass) -> None:
    if not bundle.is_ample():
        raise PreconditionError("bundle fails the positivity (ampleness) criterion")
    if not bundle.model.is_ample(h):
        raise PreconditionError("reference class is not ample (positive degree-1)")


def schur_logconcavity_report(
    bundle: SplitBundle, mu: Partition, h: GradedClass
) -> LogConcavityReport:
    """Strict log-concavity of i -> integral(derived Schur class * h^(d-i)).

    Needs rank >= dimension and |mu| = rank; a nonpositive value is
    reported as a counterexample candidate rather than raised, since it
    would already contradict the positivity theory.
    """
    model = bundle.model
    d = model.dimension
    e = bundle.rank
    if e < d:
        raise PreconditionError(f"rank {e} must be at least the dimension {d}")
    if mu.weight != e:
        raise ValidationError(f"partition weight {mu.weight} must equal the rank {e}")
    _require_ample(bundle, h)
    h_powers = _powers(h, d)
    values = []
    for i in range(d + 1):
        cls = derived_schur_class(bundle, mu, e - i)
        values.append(integrate(multiply(cls, h_powers[d - i])))
    return LogConcavityReport(tuple(values))


def khovanskii_teissier_sequence(
    alpha: GradedClass, beta: GradedClass
) -> list[Fraction]:
    """The intersection numbers integral(alpha^i beta^(d-i)), i = 0..d."""
    if alpha.model != beta.model:
        raise ValidationError("classes live on different models")
    if alpha.grade != 1 or beta.grade != 1:
        raise ValidationError("need degree-1 classes")
    d = alpha.model.dimension
    a_powers, b_powers = _powers(alpha, d), _powers(beta, d)
    return [integrate(multiply(a_powers[i], b_powers[d - i])) for i in range(d + 1)]


# -- the two-Chern-class Hodge-Index inequality ---------------------------


@dataclass(frozen=True)
class HI2Result(Inequality):
    """lhs = integral(a^2 c_{d-2}) integral(h c_{d-1}),
    rhs = 2 integral(a h c_{d-2}) integral(a c_{d-1})."""

    alpha_is_zero: bool


def hi2_check(
    bundle: SplitBundle, h: GradedClass, alpha: GradedClass
) -> HI2Result:
    """Certify the mixed Chern-class inequality for an ample split bundle.

    Requires d >= 2 and rank >= d - 1; equality is expected exactly at
    alpha = 0.
    """
    model = bundle.model
    d = model.dimension
    if d < 2:
        raise PreconditionError(f"dimension {d} too small: the inequality needs d >= 2")
    if bundle.rank < d - 1:
        raise PreconditionError(
            f"rank {bundle.rank} too small: the inequality needs rank >= {d - 1}"
        )
    _require_ample(bundle, h)
    if alpha.grade != 1 or alpha.model != model:
        raise ValidationError("alpha must be a degree-1 class on the same model")
    c_dm2 = chern(bundle, d - 2)
    c_dm1 = chern(bundle, d - 1)
    lhs = integrate(multiply(multiply(alpha, alpha), c_dm2)) * integrate(
        multiply(h, c_dm1)
    )
    rhs = 2 * integrate(multiply(multiply(alpha, h), c_dm2)) * integrate(
        multiply(alpha, c_dm1)
    )
    return HI2Result(lhs, rhs, alpha.is_zero())


# -- one-parameter Gram families and the fixed failure instance ----------


@dataclass(frozen=True)
class PencilScanResult:
    det_first: Fraction
    det_second: Fraction
    det_poly: QPoly
    interval: tuple[Fraction, Fraction]


def gram_pencil_scan(
    first: Matrix, second: Matrix, reparam: QPoly, width: Fraction
) -> PencilScanResult:
    """Scan det(first + u(t) * second) for a positive root, isolated by Sturm.

    ``first`` and ``second`` are symmetric Grams; ``reparam`` is the
    polynomial u(t); the returned interval has rational endpoints and length
    below ``width``.
    """
    n = len(first)
    if len(second) != n or any(len(r) != n for r in first) or any(
        len(r) != n for r in second
    ):
        raise ValidationError("pencil matrices must be square of equal size")
    entries = [
        [
            QPoly.constant(first[i][j]) + reparam * exact_rational(second[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    det_poly = det_in_ring(entries, QPoly.of(1))
    interval = isolate_real_root(det_poly, width)
    return PencilScanResult(
        det_first=rational_det(first),
        det_second=rational_det(second),
        det_poly=det_poly,
        interval=interval,
    )


def hl_failure_instance() -> tuple[SplitBundle, list[GradedClass]]:
    """The fixed triple-projective-plane bundle exhibiting the failure.

    Returns the rank-3 sum of the three hyperplane pullbacks on the triple
    product of projective planes, together with the documented grade-2
    basis (x1^2, x2^2, x3^2, x2 x3, x1 x3, x1 x2).
    """
    model = proj(2, 2, 2)
    x1, x2, x3 = (model.generator(i) for i in range(3))
    bundle = SplitBundle(model, (x1, x2, x3))
    basis = [
        multiply(x1, x1),
        multiply(x2, x2),
        multiply(x3, x3),
        multiply(x2, x3),
        multiply(x1, x3),
        multiply(x1, x2),
    ]
    return bundle, basis


def hl_failure_scan(width: Fraction = Fraction(1, 10**6)) -> PencilScanResult:
    """Scan the grade-2 pairing family of the fixed failure instance.

    The family is Gram(c2) + (2t + 3t^2) Gram(c1^2) on the documented
    grade-2 basis; the first determinant is negative, the second positive,
    so the determinant of the family has a sign change on t > 0 which is
    isolated exactly.
    """
    bundle, basis = hl_failure_instance()
    c2 = chern(bundle, 2)
    c1 = chern(bundle, 1)
    r = gram_on_basis(c2, basis)
    s = gram_on_basis(multiply(c1, c1), basis)
    return gram_pencil_scan(r, s, QPoly.of(0, 2, 3), width)

