"""The benchmark tracer names program functions; renaming one breaks ``--trace 1``.

``bench/tracer.py`` is loaded by path and only read: every entry of its
``TARGETS`` table must still name a callable in ``schurcert.<layer>``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"schurcert.{layer}.{func}"
        for layer, funcs in tracer.TARGETS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"schurcert.{layer}"), func, None))
    ]
    assert sum(len(funcs) for funcs in tracer.TARGETS.values()) > 0
    assert missing == []
