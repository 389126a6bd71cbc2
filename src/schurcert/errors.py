"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation failures (malformed input)
exit with 2, precondition failures (a hypothesis checked exactly and found
false) with 3.  A failed hypothesis is a plain ``PreconditionError`` whose
message names what failed, such as the inertia triple found; no subclass
carries it as a field.  Any other exception but a result too long to
print (see ``cli``), such as a ``ZeroDivisionError``, is an internal
fault: the CLI lets it propagate instead of giving it an exit code.

A caller's number is checked once, where it enters: by ``exact_rational``
at each entry point that takes one (``tests/test_exact_inputs.py`` lists
them), or by the scenario grammar.  Kernels (``QPoly``, ring classes,
Chern polynomials, the quadratic-form helpers) store the ints and
``Fraction``s their own arithmetic builds and do not check them again.
"""

from __future__ import annotations

from fractions import Fraction


class SchurCertError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SchurCertError):
    """Malformed input: bad partition, wrong grade, dimension mismatch, ..."""


class ScenarioError(ValidationError):
    """Scenario file rejected; carries a line/column diagnostic."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PreconditionError(SchurCertError):
    """A mathematically required hypothesis failed its (exact) check."""


def exact_rational(x) -> Fraction:
    """``x`` as a Fraction if it is an int or a Fraction; anything else,
    floats and strings included, raises ValidationError.

    The one check of a caller's number, made at the entry that receives it;
    values a kernel builds from checked ones do not come here again."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ValidationError(f"expected an exact rational, got {type(x).__name__}")
