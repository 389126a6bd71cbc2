"""The package holds only what the program runs.

Importing the CLI must load every module of ``src/schurcert``: a module
that it leaves unloaded serves only the tests and belongs in ``tests/``.

Every public top-level function or class needs a consumer as well: code in
``src/schurcert`` that references it (AST names and attributes, so neither
comments nor its own definition count), or a mention in ``bench/*.py``,
which covers the tracer's ``TARGETS`` and the worker's API calls.  A public
name that only the tests call is listed in ``TEST_ONLY`` with its reason.
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
    assert unconsumed == set(TEST_ONLY)
