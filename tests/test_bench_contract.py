"""The benchmark runs program code; these tests keep the two in step.

``bench/*.py`` is loaded by path and only read.  Every entry of the
tracer's ``TARGETS`` table must still name a callable in
``schurcert.<layer>``, the sizes it reads off arguments and results must
still be there, and every verdict of seeds 1 and 2 must still match the
committed reference (``--trace 1`` and the pass ratio depend on these).
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_bench("tracer")
    missing = [
        f"schurcert.{layer}.{func}"
        for layer, funcs in tracer.TARGETS.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"schurcert.{layer}"), func, None))
    ]
    assert sum(len(funcs) for funcs in tracer.TARGETS.values()) > 0
    assert missing == []


HR_CHECK_D4 = """
[hermitian w1]
row = 2, 0+1i, 0, 0
row = 0-1i, 2, 0, 0
row = 0, 0, 1, 1/2
row = 0, 0, 1/2, 1

[hermitian w2]
row = 1, 0, 0, 0
row = 0, 1/3, 0, 0
row = 0, 0, 2, 0-1i
row = 0, 0, 0+1i, 3

[task hr-check]
dimension = 4
reference = w1
schur = 1,1
forms = w1, w2
"""

TRACED_RUN = r"""
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
bench_tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_tracer)
import schurcert.cli

tracer = bench_tracer.Tracer()
tracer.install()
code = tracer.verdict_span(0, lambda: schurcert.cli.main(["--machine", "hr-check", sys.argv[2]]))
metrics = bench_tracer.per_layer_metrics(tracer, 1)
keys = ("forms.wedge.pairs", "inertia.inertia_triple.entry_bits", "gaussian.new")
print(json.dumps({"code": code, **{key: metrics[key] for key in keys}}))
"""


def test_traced_hr_check_reads_form_sizes_gram_bits_and_gaussian_count(tmp_path):
    # --trace 1 reads len(form.coeffs), .numerator on Gram entries and counts
    # GaussianRational constructions; one traced d=4 hr-check must feed all three.
    scenario = tmp_path / "hr.txt"
    scenario.write_text(HR_CHECK_D4)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER), str(scenario)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "hr=true" in lines
    result = json.loads(lines[-1])
    assert result["code"] == 0
    assert result["forms.wedge.pairs"] > 0
    assert result["inertia.inertia_triple.entry_bits"] > 0
    assert result["gaussian.new"] >= 0


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_references_hold(tmp_path, seed):
    # Every verdict of the seed, API ones included, run the way the
    # benchmark's worker runs it, passes the benchmark's own check against
    # the committed reference: exit code and every stdout line.  Seed 2 is
    # the held-out seed.
    gen, checks, worker = (_load_bench(name) for name in ("gen", "checks", "worker"))
    runner = worker.Runner()
    failures, ran = [], 0
    for workload in gen.WORKLOADS:
        workdir = tmp_path / workload
        data = json.loads(json.dumps(gen.generate(workload, seed, workdir)))
        reference = checks.load_reference(workload, seed)
        for verdict in data["warmup"] + data["pool"]:
            code, lines = runner.run(worker._prepare(verdict, workdir))
            expected = reference.get(verdict["id"], checks.MISSING)
            reason = checks.check(verdict, code, lines, expected)
            ran += 1
            if reason is not None:
                failures.append((workload, verdict["id"], reason))
    assert ran > 0
    assert failures == []
