"""Correctness checks for single verdicts.

Two kinds, both feeding the pass ratio:

* against the committed reference (``reference/<workload>-<seed>.json``):
  the exit code and every output line must be identical.  Seeds 1 and 2
  have a reference; the warm-up verdicts, the same on every seed, are
  compared with seed 1's on every seed;
* on any seed, what theory or the construction of the input guarantees
  (the ``expect`` entry of each generated verdict).

``check(verdict, code, lines, expected)`` returns ``None`` when the verdict
is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Warm-up inputs do not depend on the seed, so this seed's reference
# covers them on every seed.
DEFAULT_SEED = 1
MISSING = {"code": None, "lines": None}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["verdicts"]


def _kv(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _triple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("()").split(","))


def _bool(value: bool) -> str:
    return "true" if value else "false"


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:c\d+(?:\^\d+)?\*?)*)$")


def _poly_weights(text: str) -> set[int]:
    """Weights (sum of index times power) of the monomials of a Chern polynomial."""
    weights = set()
    for term in re.split(r" [+-] ", text.lstrip("-")):
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"unparsed term {term!r}")
        weight = 0
        for factor in filter(None, m.group(2).split("*")):
            index, _, power = factor[1:].partition("^")
            weight += int(index) * int(power or 1)
        weights.add(weight)
    return weights


def _nef2_expected(coeffs: list[Fraction]) -> dict[str, tuple[bool, bool]]:
    """The four polynomial conditions, recomputed from the coefficients."""
    a1, a2, a3, a4, a5, a6 = coeffs
    g = a2 - a6
    d1 = 4 * a1 * g - a4 * a4
    d2 = 4 * a3 * g - a5 * a5
    return {
        "nonneg_a1_a3": (a1 >= 0 and a3 >= 0, a1 == 0 or a3 == 0),
        "a2_ge_a6": (a2 >= a6, a2 == a6),
        "disc_th1": (d1 >= 0, d1 == 0),
        "disc_th2": (d2 >= 0, d2 == 0),
    }


def _check_nef2(verdict: dict, kv: dict[str, str], expect: dict) -> str | None:
    coeffs = [Fraction(x) for x in verdict["argv"][-6:]]
    holds = {}
    for name, (ok, eq) in _nef2_expected(coeffs).items():
        if kv.get(f"condition.{name}") != _bool(ok):
            return f"condition {name} should be {_bool(ok)}"
        if kv.get(f"condition.{name}.equality") != _bool(eq):
            return f"condition {name} equality should be {_bool(eq)}"
    for name in ("nonneg_a1_a3", "a2_ge_a6", "disc_th1", "disc_th2", "quartic"):
        holds[name] = kv.get(f"condition.{name}") == "true"
    member = all(holds.values())
    if kv.get("member") != _bool(member):
        return "member disagrees with the conditions"
    failed = "[" + ",".join(n for n, ok in holds.items() if not ok) + "]"
    if kv.get("failed") != failed:
        return "failed list disagrees with the conditions"
    equality = any(kv.get(f"condition.{n}.equality") == "true" for n in holds)
    if kv.get("boundary") != _bool(member and equality):
        return "boundary disagrees with the conditions"
    for key in ("member", "boundary"):
        if key in expect and kv.get(key) != _bool(expect[key]):
            return f"{key} should be {_bool(expect[key])} by construction"
    return None


def _check_theory(verdict: dict, code, lines: list[str]) -> str | None:
    expect = verdict["expect"]
    if code != expect["code"]:
        return f"exit code {code!r}, expected {expect['code']}"
    if expect.get("refusal"):
        return "refusal printed to stdout" if lines else None
    kv = _kv(lines)

    if "hr_dimension" in expect:
        d = expect["hr_dimension"]
        p, z, m = _triple(kv["inertia"])
        if p + z + m != d * d:
            return "inertia does not add up to d^2"
        if kv["hl"] != _bool(z == 0):
            return "hl disagrees with the inertia"
        hr = (p, z, m) == (1, 0, d * d - 1) and Fraction(kv["positivity"]) > 0
        if kv["hr"] != _bool(hr):
            return "hr disagrees with the inertia and positivity"
        if "inertia" in expect and [p, z, m] != expect["inertia"]:
            return f"inertia {(p, z, m)}, theory says {tuple(expect['inertia'])}"
        for key in ("hr", "hl"):
            if key in expect and kv[key] != _bool(expect[key]):
                return f"{key} should be {_bool(expect[key])}"

    if "model" in kv:  # ring-eval listing
        for key in ("dimension", "rank", "c1"):
            if key in expect and kv.get(key) != str(expect[key]):
                return f"{key}={kv.get(key)}, expected {expect[key]}"
    if "strict" in expect:
        if sum(1 for line in lines if line.startswith("f(")) != expect["dimension"] + 1:
            return "wrong number of log-concavity values"
        for key in ("positive", "midpoint", "chord", "strict"):
            if kv.get(key) != "true":
                return f"{key} should be true for an ample bundle"
    if "holds" in expect and kv.get("holds") != _bool(expect["holds"]):
        return f"holds should be {_bool(expect['holds'])}"
    if "kernel_inertia" in expect and _triple(kv["kernel_inertia"]) != tuple(expect["kernel_inertia"]):
        return "kernel inertia should be negative definite"

    if expect.get("nef2"):
        return _check_nef2(verdict, kv, expect)

    if "poly_weight" in expect:
        poly = kv["polynomial"]
        if "poly_value" in expect:
            if poly != expect["poly_value"]:
                return f"top derived class {poly}, hook-content formula gives {expect['poly_value']}"
        elif poly != "0" and _poly_weights(poly) != {expect["poly_weight"]}:
            return "derived class has the wrong grade"

    if "hl_width" in expect:
        if kv.get("det_first_sign") != "-" or kv.get("det_second_sign") != "+":
            return "determinant signs of the failure instance are wrong"
        lo, hi = (Fraction(x) for x in kv["interval"].strip("()").split(","))
        if not 0 <= lo < hi or hi - lo >= Fraction(expect["hl_width"]):
            return "isolating interval too wide or misplaced"
    return None


def check(verdict: dict, code, lines: list[str], expected: dict | None) -> str | None:
    """``expected`` is the verdict's reference entry, ``MISSING``, or None
    when no reference covers this seed."""
    try:
        reason = _check_theory(verdict, code, lines)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        reason = f"malformed output ({type(exc).__name__}: {exc})"
    if reason is not None:
        return reason
    if expected is MISSING:
        return "verdict missing from the reference"
    if expected is not None and (expected["code"] != code or expected["lines"] != lines):
        return "output differs from the reference"
    return None
