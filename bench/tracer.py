"""Spans around the calls into each layer, recorded from benchmark code.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` on
every loaded ``schurcert.*`` module that binds the same function object,
and wraps ``GaussianRational.__init__`` to count constructions.  Nothing
is wrapped unless a traced run asks for it.

Spans are kept in memory as parallel arrays (name, start, end, parent,
verdict id) and written out by ``dump``.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layer -> public functions whose calls are timed
TARGETS = {
    "forms": ("wedge", "wedge_top_coefficient", "schur_form", "hr_gram", "kahler_check", "integrate_top"),
    "inertia": ("inertia_triple", "rational_det", "restrict_to_kernel", "quadratic_value"),
    "rings": ("multiply", "chern", "schur_class", "derived_schur_class", "evaluate_chern_poly", "integrate", "gram_on_basis"),
    "chernpoly": ("schur", "derived_schur", "jacobi_trudi", "det_in_ring"),
    "qpoly": ("sturm_chain", "count_real_roots", "isolate_real_root", "nonneg_on_reals"),
    "scenario": ("parse",),
    "cli": ("main",),
    "certify": (
        "schur_logconcavity_report", "hi2_check", "nef2_membership",
        "hl_failure_scan", "block_form_check", "hodge_index_check",
    ),
}
ISOLATIONS = ("qpoly.isolate_real_root", "qpoly.nonneg_on_reals")
ROOT = "verdict"


def _entry_bits(matrix) -> int:
    best = 0
    for row in matrix:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _nonzero(cls) -> int:
    return sum(1 for c in cls.coeffs if c != 0)


# Size counters taken from arguments and results, outside the span's time.
def _wedge_sizes(args, result, add):
    add("forms.wedge.pairs", len(args[0].coeffs) * len(args[1].coeffs))
    add("forms.wedge.terms_out", len(result.coeffs))


def _multiply_sizes(args, result, add):
    add("rings.multiply.pairs", _nonzero(args[0]) * _nonzero(args[1]))


def _inertia_sizes(args, result, add):
    add("inertia.inertia_triple.dim", len(args[0]), peak=True)
    add("inertia.inertia_triple.entry_bits", _entry_bits(args[0]), peak=True)


def _gram_sizes(args, result, add):
    add("forms.hr_gram.dim", len(result), peak=True)


SIZES = {
    "forms.wedge": _wedge_sizes,
    "rings.multiply": _multiply_sizes,
    "inertia.inertia_triple": _inertia_sizes,
    "forms.hr_gram": _gram_sizes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.verdict = array("i")
        self.stack = [-1]
        self.current_verdict = -1
        self.totals: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.verdict.append(self.current_verdict)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def add(self, key: str, value: int, peak: bool = False) -> None:
        if peak:
            self.peaks[key] = max(self.peaks[key], value)
        else:
            self.totals[key] += value

    def verdict_span(self, verdict_index: int, call):
        """Run ``call()`` as the root span of one verdict."""
        self.current_verdict = verdict_index
        idx = self._open(0)
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        sizes = SIZES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if sizes is not None:
                sizes(args, result, tracer.add)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "schurcert" or n.startswith("schurcert.")]
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"schurcert.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(original, f"{layer}.{func}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        gaussian = sys.modules["schurcert.gaussian"].GaussianRational
        init = gaussian.__init__
        totals = self.totals

        def counted_init(self, *args, **kwargs):
            totals["gaussian.new"] += 1
            init(self, *args, **kwargs)

        gaussian.__init__ = counted_init

    # -- aggregation -----------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of the traced verdict time spent in each layer's own code.

        The root span's self time ("verdict") is the time outside every
        wrapped call: the benchmark's loop and unwrapped program code.
        """
        rows = self.per_name()
        total = rows.get(ROOT, {}).get("s", 0.0)
        shares: dict[str, float] = defaultdict(float)
        for name, row in rows.items():
            shares[name.split(".", 1)[0]] += row["self_s"]
        return {layer: t / total for layer, t in shares.items()} if total else {}

    def chains_per_isolation(self) -> float:
        """Sturm chains built per isolation or nonnegativity decision."""
        iso_ids = {self.names.index(n) for n in ISOLATIONS if n in self.names}
        if "qpoly.sturm_chain" not in self.names or not iso_ids:
            return 0.0
        sturm = self.names.index("qpoly.sturm_chain")
        isolations = sum(1 for x in self.name_id if x in iso_ids)
        inside = 0
        for i, x in enumerate(self.name_id):
            if x != sturm:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in iso_ids:
                p = self.parent[p]
            inside += p >= 0
        return inside / isolations if isolations else 0.0

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then packed records."""
        header = {"names": self.names, "record": "<iddii name,start,end,parent,verdict>"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            pack = struct.Struct("<iddii").pack
            for i in range(len(self.start)):
                fh.write(pack(self.name_id[i], self.start[i], self.end[i], self.parent[i], self.verdict[i]))


def per_layer_metrics(tracer: Tracer, verdicts: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per traced verdict.

    Counts and seconds are divided by the number of traced verdicts; the
    ``dim`` and ``entry_bits`` sizes are the largest seen.
    """
    rows = tracer.per_name()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    per = max(verdicts, 1)
    out: dict[str, float] = {"gaussian.new": tracer.totals["gaussian.new"] / per}
    for layer, funcs in TARGETS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            row = rows.get(name, zero)
            for field in ("calls", "s", "self_s"):
                out[f"{name}.{field}"] = row[field] / per
    for key, value in tracer.totals.items():
        if key != "gaussian.new":
            out[key] = value / per
    out.update(tracer.peaks)
    out["qpoly.sturm_chain.per_isolation"] = tracer.chains_per_isolation()
    return out
