"""The package holds only what the program runs.

Importing the CLI must load every module of ``src/schurcert``: a module
that it leaves unloaded serves only the tests and belongs in ``tests/``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = (
    "import sys, schurcert.cli\n"
    "print(*sorted(m for m in sys.modules if m.startswith('schurcert')))"
)


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
