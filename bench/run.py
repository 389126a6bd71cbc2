"""Verdict-level benchmark for schurcert.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's inputs from the
seed, starts fresh single-threaded worker processes (``worker.py``) one
after another, checks every verdict's exit code and output, and prints one
JSON object as the last line of stdout:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``.  Extra
  processes only set up, so ``setup_s`` is the median of several set-ups.
  Every time is calibrated: divided by the host speed that the worker's
  calibration kernel showed at that moment (see ``_host_factor``).
* ``--trace 1``: the per-layer metrics.  One process runs the loop with
  spans for S/2 seconds; a second, untraced process replays the same
  verdicts, which gives ``trace.overhead_ratio``.  The spans and a summary
  are written under ``bench/.out/`` (see ``trace_diff.py``).

Exits non-zero without a result if the package or an input is missing or a
worker fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

SETUP_PROBES = 4
WORKER_GRACE_S = 150
# The calibration kernel's time at the reference speed (about its fastest on
# an idle 2-vCPU Xeon VM), and the half-width of the window of kernel
# samples that gives the host speed of a verdict.
CAL_NOMINAL_S = 0.0055
CAL_WINDOW_S = 2.0


def _worker(spec: Path, out: Path, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec), "--out", str(out), "--mode", mode, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    seconds = float(extra[extra.index("--seconds") + 1]) if "--seconds" in extra else 0.0
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(out.read_text())


def _check_outputs(spec: dict, runs: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the timed verdicts of every run.

    A warm-up verdict that fails counts as a failed attempt too.
    """
    by_id = {v["id"]: v for v in spec["warmup"] + spec["pool"]}
    warm_reference = reference or checks.load_reference(spec["workload"], checks.DEFAULT_SEED)
    warm_ids = {v["id"] for v in spec["warmup"]}
    verdict_reason: dict[str, str | None] = {}
    attempted = failed = 0
    notes = []
    for run in runs:
        for vid, (code, lines) in run["outputs"].items():
            ref = warm_reference if vid in warm_ids else reference
            expected = None if ref is None else ref.get(vid, checks.MISSING)
            reason = checks.check(by_id[vid], code, lines, expected)
            if reason and verdict_reason.get(vid) is None:
                notes.append(f"{vid} [{by_id[vid]['cls']}]: {reason}")
            verdict_reason[vid] = verdict_reason.get(vid) or reason
        for wid in run["warmup_ids"]:
            if verdict_reason[wid]:
                attempted += 1
                failed += 1
        mismatched = set(run.get("repeat_mismatch", ()))
        for n, idx in enumerate(run.get("order", ())):
            attempted += 1
            if verdict_reason[spec["pool"][idx]["id"]] or n in mismatched:
                failed += 1
        if mismatched:
            notes.append(f"{len(mismatched)} repeated verdicts gave a different output")
    return attempted, failed, notes


def _host_factor(cal: list[list[float]], t: float) -> float:
    """How much slower than the reference speed the host ran at time t.

    The fastest kernel time among the samples within CAL_WINDOW_S of t (the
    nearest sample if none is), over the kernel's reference time.  A shared
    host runs the same code up to 2x slower for minutes at a time.  The
    fastest sample tracks those phases; the median overshoots them, since
    the kernel suffers more from brief contention than the verdicts do.
    """
    times = [c[0] for c in cal]
    lo = bisect.bisect_left(times, t - CAL_WINDOW_S)
    hi = bisect.bisect_right(times, t + CAL_WINDOW_S)
    window = [c[1] for c in cal[lo:hi]]
    if not window:
        window = [min(cal, key=lambda c: abs(c[0] - t))[1]]
    return min(window) / CAL_NOMINAL_S


def _best_latencies(run: dict) -> list[float]:
    """Each pool input's fastest calibrated latency in the timed loop.

    The loop visits every input several times, seconds apart; the fastest
    visit is the one least disturbed by other work on the host.
    """
    best: dict[int, float] = {}
    for idx, start, lat in zip(run["order"], run["starts"], run["latencies"]):
        lat /= _host_factor(run["cal"], start + lat / 2)
        best[idx] = min(lat, best.get(idx, lat))
    return list(best.values())


def _setup_s(run: dict) -> float:
    """Calibrated set-up time, by the kernel samples taken right after it."""
    return run["setup_s"] / (min(run["setup_cal"]) / CAL_NOMINAL_S)


def _metric(bench: dict, section: str, values: dict[str, float]) -> dict:
    # A per-layer counter that never fired reads 0.
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in bench[section]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "schurcert" / "__init__.py").is_file():
        print("error: src/schurcert not found; run from the repository root", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = gen.generate(args.workload, args.seed, work)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        reference = checks.load_reference(args.workload, args.seed)

        if args.trace == 0:
            setups = [
                _setup_s(_worker(spec_path, work / f"setup{k}.json", "setup"))
                for k in range(SETUP_PROBES)
            ]
            run = _worker(spec_path, work / "timed.json", "timed", "--seconds", str(args.seconds))
            if not run["cal"]:
                raise RuntimeError("the timed loop took no calibration sample")
            setups.append(_setup_s(run))
            runs = [run]
            best = _best_latencies(run)
            values = {
                "verdicts_per_s": len(best) / sum(best),
                "verdict_p50_ms": statistics.median(best) * 1e3,
                "verdict_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": run["peak_rss_mb"],
            }
        else:
            out_dir = HERE / ".out"
            out_dir.mkdir(exist_ok=True)
            stem = f"{args.workload}-{args.seed}"
            traced = _worker(
                spec_path, work / "traced.json", "traced",
                "--seconds", str(args.seconds / 2), "--spans", str(out_dir / f"spans-{stem}.bin"),
            )
            replay = _worker(spec_path, work / "replay.json", "replay", "--count", str(len(traced["order"])))
            runs = [traced, replay]
            values = dict(traced["per_layer"])
            values["trace.overhead_ratio"] = traced["wall_s"] / replay["wall_s"]
            shares = traced["layer_share"]
            summary = {
                "workload": args.workload, "seed": args.seed, "verdicts": len(traced["order"]),
                "per_layer": values, "layer_share": shares,
            }
            (out_dir / f"trace-{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))

        attempted, failed, notes = _check_outputs(spec, runs, reference)
        values["pass_ratio"] = (attempted - failed) / attempted
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        print("self-time share by layer: " + " ".join(f"{k}={v:.1%}" for k, v in top))
    for note in notes[:20]:
        print(f"FAIL {note}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(
        f"workload={args.workload} seed={args.seed} verdicts={attempted} failed={failed} "
        f"reference={'yes' if reference is not None else 'no'}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric(bench, section, values),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
