"""The package holds only what the program runs.

Importing the CLI must load every module of ``src/schurcert``: a module
that it leaves unloaded serves only the tests and belongs in ``tests/``.

Every public top-level function or class needs a consumer as well: code in
``src/schurcert`` that references it (AST names and attributes, so neither
comments nor its own definition count), or a mention in ``bench/*.py``,
which covers the tracer's ``TARGETS`` and the worker's API calls.  So does
every public method and property of a top-level class: an attribute
reference ``.name`` in ``src/schurcert``, or ``.name`` in ``bench/*.py``,
where a bare word in a comment does not count.  A public name that only the
tests call is listed in ``TEST_ONLY`` with its reason, a method as
``Class.name``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LOADED = (
    "import sys, schurcert.cli\n"
    "print(*sorted(m for m in sys.modules if m.startswith('schurcert')))"
)

TEST_ONLY = {
    "discrete_logconcave": "acceptance criterion 11 decides the log-concavity of "
    "Khovanskii-Teissier sequences with it",
    "khovanskii_teissier_sequence": "acceptance criterion 11 recovers the "
    "Khovanskii-Teissier inequalities from it",
    "Partition.conjugate": "the tableau and dual Jacobi-Trudi oracles of the "
    "Schur tests read the transposed diagram",
    "GaussianRational.i": "the form tests build imaginary coefficients from it",
    "PQForm.dz_dzbar": "the form tests and oracles build single (1,1)-forms "
    "and real bases of H^{1,1} from it",
    "PQForm.conj": "the form tests check reality and build real forms as "
    "f + conj(f) with it",
}


def test_cli_import_loads_every_package_module():
    package = sorted(
        "schurcert" if p.stem == "__init__" else f"schurcert.{p.stem}"
        for p in (SRC / "schurcert").glob("*.py")
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert [m for m in package if m not in loaded] == []


def test_every_public_name_has_a_consumer():
    trees = {p: ast.parse(p.read_text()) for p in (SRC / "schurcert").glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    bench = "\n".join(p.read_text() for p in (ROOT / "bench").glob("*.py"))
    unconsumed = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and not re.search(rf"\b{node.name}\b", bench)
    }
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unconsumed |= {
        f"{cls.name}.{fn.name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in attributes
        and not re.search(rf"\.{fn.name}\b", bench)
    }
    assert unconsumed == set(TEST_ONLY)


# math functions whose result is exact on exact arguments.  Every other name
# of ``math`` is refused: most of them (sqrt, log, pi, ...) give or are floats.
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}

# (module, function) of every true division in the package.
TRUE_DIVISIONS = {
    ("certify", "hodge_index_check"),
    ("inertia", "kernel_basis"),
    ("qpoly", "__divmod__"),
    ("qpoly", "cauchy_root_bound"),
    ("qpoly", "isolate_real_root"),
}


def test_no_float_reaches_the_package():
    """No float literal, no ``float`` or ``complex``, no inexact ``math``.

    Kernels store the ints and Fractions their arithmetic makes, so ints
    reach QPoly, whose coefficients are not converted on the way in.
    An int divided by an int is a float, so each true division needs a
    Fraction operand: the leading coefficient in ``QPoly.__divmod__`` and
    in ``cauchy_root_bound``, the bracket ``lo`` in ``isolate_real_root``,
    the checked values of ``hodge_index_check`` and ``kernel_basis``.  A
    new division is listed in ``TRUE_DIVISIONS`` once it is seen to have one.
    """
    found, divisions = [], set()
    for path in sorted((SRC / "schurcert").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
                found.append(f"{where} name {node.id}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in EXACT_MATH
            ):
                found.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} math.{a.name}" for a in node.names if a.name not in EXACT_MATH]
            elif isinstance(node, ast.Import):
                found += [f"{where} import math as {a.asname}" for a in node.names
                          if a.name == "math" and a.asname]
            elif isinstance(node, ast.FunctionDef):
                if any(
                    isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
                    for n in ast.walk(node)
                ):
                    divisions.add((path.stem, node.name))
    assert found == []
    assert divisions == TRUE_DIVISIONS
