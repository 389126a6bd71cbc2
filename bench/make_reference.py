"""Write the reference outputs of one workload and seed.

    python3 bench/make_reference.py --workload NAME --seed N

Runs every warm-up and pool verdict once, applies the theory checks of
``checks.py``, and writes ``bench/reference/<workload>-<seed>.json``.  Refuses to write a reference
when a theory check fails.  Reference outputs exist for the default seed
(1) and one held-out seed (2); regenerate them only when ``gen.py`` changes
on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from worker import Runner, _prepare  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    work = HERE / ".work" / f"reference-{args.workload}-{args.seed}"
    try:
        spec = gen.generate(args.workload, args.seed, work)
        runner = Runner()
        verdicts, failures = {}, 0
        for verdict in spec["warmup"] + spec["pool"]:
            code, lines = runner.run(_prepare(verdict, work))
            reason = checks.check(verdict, code, lines, None)
            if reason:
                failures += 1
                print(f"FAIL {verdict['id']} [{verdict['cls']}]: {reason}", file=sys.stderr)
            verdicts[verdict["id"]] = {"code": code, "lines": lines}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {len(verdicts)} verdicts, {failures} failed theory checks")
    if failures:
        return 1
    path = checks.reference_path(args.workload, args.seed)
    path.parent.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed, "verdicts": verdicts}
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
