"""Per-layer deltas between two traced runs.

    python3 bench/trace_diff.py BEFORE AFTER

BEFORE and AFTER are trace summaries written by ``run.py --trace 1``
(``bench/.out/trace-<workload>-<seed>.json``), typically of the parent
commit and of a change, same workload and seed.  Prints, per layer, every
metric that moved: its value before and after, the difference, and the
ratio after/before.  Self times and counts are per traced verdict, so runs
of different lengths compare directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def diff(before: dict, after: dict) -> list[str]:
    a, b = before["per_layer"], after["per_layer"]
    lines = [
        f"before: {before['workload']} seed {before['seed']}, {before['verdicts']} traced verdicts",
        f"after:  {after['workload']} seed {after['seed']}, {after['verdicts']} traced verdicts",
    ]
    if before["workload"] != after["workload"]:
        lines.append("warning: the two runs are of different workloads")
    layers: dict[str, list[str]] = {}
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name, 0.0), b.get(name, 0.0)
        if x == y:
            continue
        ratio = f"{y / x:.3f}x" if x else "new"
        layer = name.split(".", 1)[0]
        layers.setdefault(layer, []).append(
            f"  {name:44s} {_fmt(x):>11s} -> {_fmt(y):>11s}  {y - x:>+11.4g}  {ratio}"
        )
    for layer, rows in layers.items():
        lines.append(f"[{layer}]")
        lines.extend(rows)
    self_a = sum(v for k, v in a.items() if k.endswith(".self_s"))
    self_b = sum(v for k, v in b.items() if k.endswith(".self_s"))
    lines.append(f"sum of listed self times per verdict: {_fmt(self_a)} s -> {_fmt(self_b)} s")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args()
    print("\n".join(diff(_load(args.before), _load(args.after))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
