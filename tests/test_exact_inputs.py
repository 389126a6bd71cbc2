"""Every entry point that takes a caller's number takes only int or Fraction.

A float or a string would be read through ``Fraction(x)`` from its binary
expansion or its text, so each entry refuses both with ValidationError.
"""

from fractions import Fraction

import pytest

from schurcert.certify import (
    BlockFormInstance,
    Nef2Coefficients,
    discrete_logconcave,
    hodge_index_check,
)
from schurcert.chernpoly import ChernPoly
from schurcert.errors import ValidationError
from schurcert.forms import diagonal_form, hermitian_form
from schurcert.gaussian import GaussianRational
from schurcert.inertia import congruent, inertia_triple, kernel_basis, quadratic_value
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly, isolate_real_root
from schurcert.rings import GradedClass, proj

HALF = Fraction(1, 2)
LORENTZ = [[1, 0], [0, -1]]
P11 = proj(1, 1)

ENTRIES = {
    "inertia_triple": lambda x: inertia_triple([[x, HALF], [HALF, 2]]),
    "quadratic_value": lambda x: quadratic_value(LORENTZ, [1, x]),
    "congruent": lambda x: congruent(LORENTZ, [[1, x], [0, 1]]),
    "kernel_basis": lambda x: kernel_basis([1, x]),
    "hodge_index_check-h": lambda x: hodge_index_check(LORENTZ, [1, x], [1, 0]),
    "hodge_index_check-v": lambda x: hodge_index_check(LORENTZ, [1, 0], [x, 0]),
    "isolate_real_root": lambda x: isolate_real_root(QPoly.of(-1, 1), x),
    "degree_one": lambda x: P11.degree_one([x, 2]),
    "GradedClass": lambda x: GradedClass(P11, 1, [x, 2]),
    "from_monomials": lambda x: GradedClass.from_monomials(P11, 1, {(1, 0): x}),
    "GradedClass-scalar": lambda x: P11.generator(0) * x,
    "GaussianRational": lambda x: GaussianRational(x),
    "hermitian_form": lambda x: hermitian_form([[x, 0], [0, 3]]),
    "diagonal_form": lambda x: diagonal_form([x, 3]),
    "BlockFormInstance.of": lambda x: BlockFormInstance.of([[1]], [x], [1]),
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
