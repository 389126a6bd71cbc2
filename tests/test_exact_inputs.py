"""Every entry point that takes a caller's number takes only int or Fraction.

A float or a string would be read through ``Fraction(x)`` from its binary
expansion or its text, so each entry refuses both with ValidationError.
The check is made once, at the entry: a kernel stores what its own
arithmetic builds and does not check it again.
"""

import sys
from fractions import Fraction

import pytest

import schurcert.errors
from schurcert.certify import (
    BlockFormInstance,
    Nef2Coefficients,
    block_form_check,
    discrete_logconcave,
    hodge_index_check,
)
from schurcert.chernpoly import ChernPoly
from schurcert.errors import ValidationError
from schurcert.forms import diagonal_form, hermitian_form
from schurcert.gaussian import GaussianRational
from schurcert.inertia import congruent, inertia_triple, kernel_basis, quadratic_value
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly, isolate_real_root, nonneg_on_reals, sturm_chain
from schurcert.rings import GradedClass, proj

HALF = Fraction(1, 2)
LORENTZ = [[1, 0], [0, -1]]
P11 = proj(1, 1)
BLOCK = BlockFormInstance.of([[1]], [1], [1])

ENTRIES = {
    "inertia_triple": lambda x: inertia_triple([[x, HALF], [HALF, 2]]),
    "quadratic_value": lambda x: quadratic_value(LORENTZ, [1, x]),
    "quadratic_value-w": lambda x: quadratic_value(LORENTZ, [1, 0], [1, x]),
    "congruent": lambda x: congruent(LORENTZ, [[1, x], [0, 1]]),
    "kernel_basis": lambda x: kernel_basis([1, x]),
    "hodge_index_check-h": lambda x: hodge_index_check(LORENTZ, [1, x], [1, 0]),
    "hodge_index_check-v": lambda x: hodge_index_check(LORENTZ, [1, 0], [x, 0]),
    "isolate_real_root": lambda x: isolate_real_root(QPoly.of(-1, 1), x),
    "GradedClass": lambda x: GradedClass(P11, 1, [x, 2]),
    "from_monomials": lambda x: GradedClass.from_monomials(P11, 1, {(1, 0): x}),
    "GradedClass-scalar": lambda x: P11.generator(0) * x,
    "GaussianRational": lambda x: GaussianRational(x),
    "hermitian_form": lambda x: hermitian_form([[x, 0], [0, 3]]),
    "diagonal_form": lambda x: diagonal_form([x, 3]),
    "BlockFormInstance.of": lambda x: BlockFormInstance.of([[1]], [x], [1]),
    "block_form_check": lambda x: block_form_check(BLOCK, [x]),
    "Nef2Coefficients.of": lambda x: Nef2Coefficients.of(0, x, 0, 0, 0, 3),
    "discrete_logconcave": lambda x: discrete_logconcave([x, 1, HALF]),
    "Partition": lambda x: Partition([x, 0]),
    "ChernPoly.const": lambda x: ChernPoly.const(3, x),
    "proj": lambda x: proj(x, 1),
}


@pytest.mark.parametrize("value", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_inexact_number_is_refused(entry, value):
    with pytest.raises(ValidationError):
        ENTRIES[entry](value)


@pytest.fixture
def gate_calls(monkeypatch):
    """A counter of ``exact_rational`` calls, patched onto every module's binding."""
    calls = []

    def counted(x, check=schurcert.errors.exact_rational):
        calls.append(x)
        return check(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("schurcert") and hasattr(module, "exact_rational"):
            monkeypatch.setattr(module, "exact_rational", counted)
    return calls


def test_kernels_do_not_check_what_they_built(gate_calls):
    # QPoly arithmetic, division, Sturm chains and the nonnegativity decision
    # on polynomials the caller built, and an int multiple of a ring class.
    x = QPoly.of(0, 1)
    p = QPoly.of(Fraction(-1, 2), 3, 0, 2) * (x - QPoly.of(1)) * (x - QPoly.of(1)) * 3
    q = -p.derivative() + QPoly.of(Fraction(5, 3), 1) * Fraction(1, 7)
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert p(1) == 0 and p(Fraction(1, 2)) == Fraction(15, 16)
    assert len(sturm_chain(p)) == 5
    assert nonneg_on_reals(p * p) and not nonneg_on_reals(p * x)
    assert (P11.generator(0) * 3).nums == (3, 0)
    assert gate_calls == []


def test_isolation_checks_only_its_width(gate_calls):
    isolate_real_root(QPoly.of(-2, 0, 1), Fraction(1, 1000))
    assert gate_calls == [Fraction(1, 1000)]


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_quadratic_value_checks_each_entry_at_most_once(gate_calls, n):
    matrix = [[Fraction(i + j, 3) for j in range(n)] for i in range(n)]
    v, w = list(range(1, n + 1)), [Fraction(1, k + 2) for k in range(n)]
    quadratic_value(matrix, v, w)
    assert 0 < len(gate_calls) <= n * n + 2 * n
