"""The fixed-example suite behind the ``paper-repro`` subcommand.

Each example is a named, self-contained exact computation with a frozen
expected outcome.  ``EXAMPLES`` lists them as (id, summary, check) triples;
a check returns the list of its failures, and the suite passes only when
every list is empty.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .certify import Nef2Coefficients, hl_failure_scan, nef2_membership
from .chernpoly import ChernPoly, derived_schur, schur
from .forms import diagonal_form, hodge_riemann_verdict, wedge
from .inertia import inertia_triple, rational_det
from .partitions import Partition
from .rings import (
    SplitBundle,
    abelian_square,
    chern,
    gram_on_h11,
    integrate,
    multiply,
    proj,
    schur_class,
)


def _check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def _signature_family() -> list[str]:
    """Inertia of the two-square pencil on the 16-dim real (1,1) space."""
    w1 = diagonal_form([1, 1, 1, 1])
    w2 = diagonal_form([Fraction(1, 7), Fraction(1, 7), 2, 2])
    sq1, sq2 = wedge(w1, w1), wedge(w2, w2)
    expected = {
        Fraction(0): (1, 0, 15),
        Fraction(1): (1, 0, 15),
        Fraction(2): (1, 0, 15),
        Fraction(9, 2): (1, 0, 15),
        Fraction(100): (1, 0, 15),
        Fraction(13, 4): (2, 0, 14),
        Fraction(7, 2): (2, 0, 14),
        Fraction(4): (2, 0, 14),
    }
    failures: list[str] = []
    for a, triple in expected.items():
        rep = hodge_riemann_verdict(sq1 + sq2 * a, w1)
        _check(failures, rep.triple == triple, f"a={a}: got {rep.triple}, want {triple}")
    for a in (Fraction(3), Fraction(49, 12)):
        rep = hodge_riemann_verdict(sq1 + sq2 * a, w1)
        _check(failures, rep.triple[1] >= 1, f"a={a}: expected a degenerate pairing")
        _check(failures, not rep.hl_flag, f"a={a}: HL should fail")
    return failures


def _boundary_class_gram() -> list[str]:
    """Gram matrix, inertia and cone membership of the boundary class."""
    model = abelian_square()
    coeffs = Nef2Coefficients.of(0, 8, 0, 0, 0, 3)
    gram = gram_on_h11(coeffs.to_class(model))
    want = [
        [Fraction(0), Fraction(20), Fraction(0)],
        [Fraction(20), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(40)],
    ]
    failures: list[str] = []
    _check(failures, gram == want, f"gram is {gram}")
    triple = inertia_triple(gram)
    _check(failures, triple == (2, 0, 1), f"inertia {triple} != (2,0,1)")
    _check(failures, rational_det(gram) < 0, "determinant should be negative")
    verdict = nef2_membership(coeffs)
    _check(failures, verdict.member, "boundary class should be a member")
    _check(
        failures,
        verdict.quartic_identically_zero,
        "quartic margin should vanish identically on the boundary class",
    )
    return failures


def _hl_failure() -> list[str]:
    """Determinant signs and root isolation for the grade-2 pencil."""
    scan = hl_failure_scan(Fraction(1, 10**6))
    failures: list[str] = []
    _check(failures, scan.det_first < 0, f"det of the first Gram is {scan.det_first}")
    _check(failures, scan.det_second > 0, f"det of the second Gram is {scan.det_second}")
    lo, hi = scan.interval
    _check(failures, lo > 0, f"isolated root should be positive, interval starts at {lo}")
    _check(failures, hi - lo < Fraction(1, 10**6), f"interval width {hi - lo} too large")
    return failures


def _pencil_gram_p2p3() -> list[str]:
    """The two-generator pencil Gram matrix, coefficient-wise in t."""
    model = proj(2, 3)
    a_cls, b_cls = model.generator(0), model.generator(1)
    bundle = SplitBundle(model, (a_cls, a_cls, b_cls))
    g0 = gram_on_h11(chern(bundle, 3))
    g1 = gram_on_h11(schur_class(bundle, Partition([1, 1, 1])))
    failures: list[str] = []
    _check(
        failures,
        g0 == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]],
        f"constant term is {g0}",
    )
    slope = [[g1[i][j] - g0[i][j] for j in range(2)] for i in range(2)]
    _check(
        failures,
        slope == [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(2)]],
        f"linear term is {slope}",
    )
    t = Fraction(1, 4)
    gt = [[g0[i][j] + t * slope[i][j] for j in range(2)] for i in range(2)]
    triple = inertia_triple(gt)
    _check(failures, triple == (2, 0, 0), f"inertia at t=1/4 is {triple}")
    return failures


def _low_degree_identity_table(e: int) -> list[tuple[str, ChernPoly, ChernPoly]]:
    """All identities of the low-degree derived-Schur table at a given rank."""
    c = lambda k: ChernPoly.generator(e, k)  # noqa: E731
    const = lambda v: ChernPoly.const(e, v)  # noqa: E731
    binom = lambda n, k: Fraction(math.comb(n, k))  # noqa: E731
    p = Partition
    table = [
        ("s(1)", schur(p([1]), e), c(1)),
        ("s(1)^1", derived_schur(p([1]), e, 1), const(e)),
        ("s(2)", schur(p([2]), e), c(2)),
        ("s(2)^1", derived_schur(p([2]), e, 1), c(1) * (e - 1)),
        ("s(2)^2", derived_schur(p([2]), e, 2), const(binom(e, 2))),
        ("s(1,1)", schur(p([1, 1]), e), c(1) * c(1) - c(2)),
        ("s(1,1)^1", derived_schur(p([1, 1]), e, 1), c(1) * (e + 1)),
        ("s(1,1)^2", derived_schur(p([1, 1]), e, 2), const(binom(e + 1, 2))),
        ("s(3)", schur(p([3]), e), c(3)),
        ("s(3)^1", derived_schur(p([3]), e, 1), c(2) * (e - 2)),
        ("s(3)^2", derived_schur(p([3]), e, 2), c(1) * binom(e - 1, 2)),
        ("s(3)^3", derived_schur(p([3]), e, 3), const(binom(e, 3))),
        ("s(2,1)", schur(p([2, 1]), e), c(1) * c(2) - c(3)),
        (
            "s(2,1)^1",
            derived_schur(p([2, 1]), e, 1),
            c(2) * 2 + c(1) * c(1) * (e - 1),
        ),
        ("s(2,1)^2", derived_schur(p([2, 1]), e, 2), c(1) * (e * e - 1)),
        ("s(2,1)^3", derived_schur(p([2, 1]), e, 3), const(2 * binom(e + 1, 3))),
        (
            "s(1,1,1)",
            schur(p([1, 1, 1]), e),
            c(1) * c(1) * c(1) - c(1) * c(2) * 2 + c(3),
        ),
        (
            "s(1,1,1)^1",
            derived_schur(p([1, 1, 1]), e, 1),
            (c(1) * c(1) - c(2)) * (e + 2),
        ),
        ("s(1,1,1)^2", derived_schur(p([1, 1, 1]), e, 2), c(1) * binom(e + 2, 2)),
        ("s(1,1,1)^3", derived_schur(p([1, 1, 1]), e, 3), const(binom(e + 2, 3))),
    ]
    return table


def _derived_schur_table() -> list[str]:
    failures: list[str] = []
    for e in (3, 4, 5):
        for label, got, want in _low_degree_identity_table(e):
            _check(failures, got == want, f"e={e}: {label}: {got} != {want}")
    return failures


def _quad_integral_table() -> list[str]:
    """The three nonzero quadruple integrals, and a vanishing one."""
    model = abelian_square()
    th1, th2, lam = (model.generator(i) for i in range(3))
    failures: list[str] = []
    cases = [
        ("th1^2 th2^2", multiply(th1**2, th2**2), Fraction(4)),
        ("th1 th2 lam^2", multiply(multiply(th1, th2), lam**2), Fraction(-4)),
        ("lam^4", lam**4, Fraction(24)),
        ("th1^3 th2", multiply(th1**3, th2), Fraction(0)),
    ]
    for label, cls, want in cases:
        got = integrate(cls)
        _check(failures, got == want, f"{label}: {got} != {want}")
    return failures


EXAMPLES: tuple[tuple[str, str, Callable[[], list[str]]], ...] = (
    (
        "signature-family",
        "inertia of the dim-4 two-square pencil over the real (1,1) space",
        _signature_family,
    ),
    (
        "boundary-class-gram",
        "Gram matrix, signature and cone membership of the boundary class "
        "8*th1*th2 + 3*lam^2",
        _boundary_class_gram,
    ),
    (
        "hl-failure-scan",
        "grade-2 pencil on the triple projective plane: determinant signs "
        "and an isolated singular parameter",
        _hl_failure,
    ),
    (
        "pencil-gram-p2p3",
        "two-generator pencil Gram matrix [[t,2t],[2t,1+2t]] and its "
        "signature at t=1/4",
        _pencil_gram_p2p3,
    ),
    (
        "derived-schur-table",
        "all 20 low-degree derived-Schur identities at ranks 3, 4, 5",
        _derived_schur_table,
    ),
    (
        "quad-integral-table",
        "the hard-coded quadruple integrals of the abelian fourfold model",
        _quad_integral_table,
    ),
)
