"""One fresh, single-threaded benchmark process.

    python3 bench/worker.py --spec SPEC --out OUT --mode MODE [--seconds S] [--count N]

Modes:

* ``setup``  -- import ``schurcert`` and run the warm-up verdicts; report
                the time this took (the set-up time);
* ``timed``  -- set up, then run pool verdicts in a closed loop (one caller,
                the next verdict starts when the last returns) for S seconds
                and at least one whole pass over the pool, timing the
                calibration kernel between verdicts;
* ``traced`` -- as ``timed``, with spans around every layer call
                (``tracer.py``); spans go to ``--spans``;
* ``replay`` -- set up, then run exactly the first N pool verdicts untraced
                (the baseline of the tracing overhead).

The spec is the JSON written by ``run.py`` from ``gen.py``.  Input
preparation (reading the spec, converting rationals, building the
calibration table) happens before the set-up clock starts, since it is the
benchmark's own cost.

The calibration kernel is fixed pure-Python ``Fraction`` arithmetic over a
working set of a few MB, about 5.5 ms on an idle host.  ``setup`` and
``timed`` time it right after set-up, and ``timed`` again at most every
``CAL_EVERY_S`` between verdicts; ``run.py`` divides every time by the host
speed these samples show.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CAL_TABLE_SIZE = 60000
CAL_STRIDE = 40
CAL_AFTER_SETUP = 5
CAL_EVERY_S = 0.25


def _cal_table() -> list[Fraction]:
    return [Fraction(i * 7919 % 1000 + 1, i % 97 + 1) for i in range(CAL_TABLE_SIZE)]


def _cal_kernel(table: list[Fraction]) -> float:
    """Seconds one pass of the calibration kernel takes now."""
    start = perf_counter()
    n = len(table)
    total = Fraction(0)
    for i in range(0, n, CAL_STRIDE):
        total += table[i] * table[i * 31 % n]
    return perf_counter() - start


def _prepare(verdict: dict, workdir: Path) -> dict:
    """Resolve scenario paths and decode rationals: input work, not timed."""
    prepared = dict(verdict)
    if verdict["kind"] == "cli":
        prepared["argv"] = [
            str(workdir / a["file"]) if isinstance(a, dict) else a for a in verdict["argv"]
        ]
    else:
        args = {}
        for key, value in verdict["args"].items():
            if value and isinstance(value[0], list):
                args[key] = [[Fraction(x) for x in row] for row in value]
            else:
                args[key] = [Fraction(x) for x in value]
        prepared["args"] = args
    return prepared


def _b(flag: bool) -> str:
    return "true" if flag else "false"


class Runner:
    """Executes verdicts in this process; holds the imported package."""

    def __init__(self):
        import schurcert.certify
        import schurcert.cli

        self.cli = schurcert.cli
        self.certify = schurcert.certify

    def _api(self, verdict: dict) -> list[str]:
        a = verdict["args"]
        certify = self.certify
        if verdict["fn"] == "block":
            inst = certify.BlockFormInstance.of(a["q_v"], a["phi"], a["h"])
            r = certify.block_form_check(inst, a["v"])
            k = r.kernel_inertia
            return [
                f"lhs={r.lhs}", f"rhs={r.rhs}", f"holds={_b(r.holds)}",
                f"equality={_b(r.equality)}", f"v_is_zero={_b(r.v_is_zero)}",
                f"kernel_inertia=({k[0]},{k[1]},{k[2]})",
            ]
        r = certify.hodge_index_check(a["q"], a["h"], a["v"])
        return [
            f"lhs={r.lhs}", f"rhs={r.rhs}", f"holds={_b(r.holds)}",
            f"equality={_b(r.equality)}", f"proportional={_b(r.proportional)}",
            f"witness={r.witness}",
        ]

    def run(self, verdict: dict):
        """(exit code, stdout lines); a crash becomes a code naming the exception."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if verdict["kind"] == "cli":
                    try:
                        code = self.cli.main(verdict["argv"])
                    except SystemExit as exc:  # argparse refusals
                        code = exc.code
                    return code, out.getvalue().splitlines()
                return 0, self._api(verdict)
        except Exception as exc:  # a crash is a failed verdict, not a benchmark error
            return f"crash:{type(exc).__name__}: {exc}", []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced", "replay"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    input_start = perf_counter()
    spec = json.loads(Path(args.spec).read_text())
    workdir = Path(args.spec).parent
    warmup = [_prepare(v, workdir) for v in spec["warmup"]]
    pool = [_prepare(v, workdir) for v in spec["pool"]]
    cal_table = _cal_table()
    input_s = perf_counter() - input_start

    sys.path.insert(0, str(ROOT / "src"))
    runner = Runner()
    outputs: dict[str, list] = {}
    for verdict in warmup:
        code, lines = runner.run(verdict)
        outputs[verdict["id"]] = [code, lines]
    setup_s = perf_counter() - PROCESS_START - input_s
    result = {"setup_s": setup_s, "warmup_ids": [v["id"] for v in warmup]}
    if args.mode in ("setup", "timed"):
        result["setup_cal"] = [_cal_kernel(cal_table) for _ in range(CAL_AFTER_SETUP)]

    if args.mode != "setup":
        tracer = None
        call = runner.run
        if args.mode == "traced":
            sys.path.insert(0, str(HERE))
            from tracer import Tracer, per_layer_metrics

            tracer = Tracer()
            tracer.install()
        order, starts, latencies, repeat_mismatch, cal = [], [], [], [], []
        loop_start = last_cal = perf_counter()
        deadline = loop_start + args.seconds
        i = 0
        # At least one whole pass, so that every input has a latency even
        # when a slow program cannot finish the pool within S seconds.
        while (perf_counter() < deadline or i < len(pool)) if args.mode != "replay" else (i < args.count):
            verdict = pool[i % len(pool)]
            t = perf_counter()
            if tracer is None:
                code, lines = call(verdict)
            else:
                code, lines = tracer.verdict_span(i, lambda v=verdict: call(v))
            latencies.append(perf_counter() - t)
            starts.append(t - loop_start)
            if args.mode == "timed" and perf_counter() - last_cal >= CAL_EVERY_S:
                last_cal = perf_counter()
                cal.append([last_cal - loop_start, _cal_kernel(cal_table)])
            vid = verdict["id"]
            if vid in outputs:
                if outputs[vid] != [code, lines]:
                    repeat_mismatch.append(i)
            else:
                outputs[vid] = [code, lines]
            order.append(i % len(pool))
            i += 1
        wall = perf_counter() - loop_start
        result.update(
            order=order,
            starts=starts,
            latencies=latencies,
            cal=cal,
            wall_s=wall,
            repeat_mismatch=repeat_mismatch,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["per_layer"] = per_layer_metrics(tracer, len(order))
            result["layer_share"] = tracer.layer_shares()
            if args.spans:
                tracer.dump(Path(args.spans))
    result["outputs"] = outputs
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
