"""Command-line front end.

Subcommands: ``schur``, ``ring-eval``, ``hr-check``, ``nef2``, ``hi2``,
``logconcave``, ``hl-scan``, ``paper-repro``.  Exit codes: 0 success,
1 repro-suite failure, 2 malformed input (bad arguments, a bad scenario
file or an invalid value), 3 a mathematical hypothesis that the verdict
needs was checked exactly and failed.  A result with more digits than
Python converts to text exits 2; any other exception is an internal fault
and propagates with its traceback.

Input checks live in ``scenario``, whose readers and literal grammar also
serve every number on the command line.  ``parse`` returns every section
built and every task resolved, so each subcommand only computes and renders.
The mathematical hypotheses (ampleness, rank at least the dimension, a
Kaehler reference, the bidegree the pairing needs) are checked when the
verdict is computed, and a failure exits 3.

Output is fully computed before anything is printed, so validation errors
never leave partial output behind.  Every subcommand prints one
deterministic block of ``key=value`` lines: ``schur`` prints
``polynomial=``, ``logconcave``'s ``midpoint=`` and ``chord=`` repeat its
``strict=``, and ``paper-repro`` prints ``example=ID status=pass|fail``
per example, ``detail=`` per failure and ``overall=pass|fail`` (``--list``
prints ``ID: summary`` lines).  ``--machine`` is accepted and changes
nothing.
"""

from __future__ import annotations

import argparse
import sys

from . import repro
from .certify import (
    Nef2Coefficients,
    hi2_check,
    hl_failure_scan,
    nef2_membership,
    schur_logconcavity_report,
)
from .chernpoly import derived_schur, format_poly, schur
from .errors import PreconditionError, ValidationError
from .forms import PQForm, hodge_riemann_verdict, schur_form, wedge
from .rings import chern, derived_schur_class, format_class, integrate, schur_class
from .scenario import Scenario, parse, parse_natural, parse_partition, parse_rational


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _read_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path!r}: {exc}")


def _require_task(sc: Scenario, name: str) -> dict:
    if name not in sc.tasks:
        raise ValidationError(f"scenario has no [task {name}] section")
    return sc.tasks[name]


# -- subcommand implementations ------------------------------------------


def _cmd_schur(args) -> list[str]:
    lam = parse_partition(args.partition)
    if args.derived is None:
        poly = schur(lam, args.rank)
    else:
        poly = derived_schur(lam, args.rank, args.derived)
    return [f"polynomial={format_poly(poly)}"]


def _cmd_ring_eval(args) -> list[str]:
    sc = _read_scenario(args.scenario)
    bundle = sc.bundle
    if bundle is None:
        raise ValidationError("scenario declares no [bundle] roots")
    d = bundle.model.dimension
    lines = [f"model={bundle.model!r}", f"dimension={d}", f"rank={bundle.rank}"]
    for p in range(0, min(bundle.rank, d) + 1):
        lines.append(f"c{p}={format_class(chern(bundle, p))}")
    task = sc.tasks.get("ring-eval", {})
    for lam in task.get("schur", []):
        cls = schur_class(bundle, lam)
        lines.append(f"schur({lam.format()})={format_class(cls)}")
        if cls.grade == d:
            lines.append(f"integral(schur({lam.format()}))={integrate(cls)}")
    for lam, order in task.get("derived", []):
        cls = derived_schur_class(bundle, lam, order)
        lines.append(f"derived({lam.format()};{order})={format_class(cls)}")
        if cls.grade == d:
            lines.append(f"integral(derived({lam.format()};{order}))={integrate(cls)}")
    return lines


def _hr_form(sc: Scenario, task: dict) -> PQForm:
    if "combination" in task:
        omega: PQForm | None = None
        for coeff, factors in task["combination"]:
            (name, power), *rest = factors
            term = sc.forms[name] ** power * coeff
            for name, power in rest:
                term = wedge(term, sc.forms[name] ** power)
            omega = term if omega is None else omega + term
    else:
        omegas = [sc.forms[name] for name in task["forms"]]
        omega = schur_form(task["schur"], omegas)
    return omega


def _cmd_hr_check(args) -> list[str]:
    sc = _read_scenario(args.scenario)
    task = _require_task(sc, "hr-check")
    rep = hodge_riemann_verdict(_hr_form(sc, task), sc.forms[task["reference"]])
    return [
        "inertia=({},{},{})".format(*rep.triple),
        f"positivity={rep.positivity_scalar}",
        f"hr={_bool(rep.hr_flag)}",
        f"hl={_bool(rep.hl_flag)}",
    ]


def _cmd_nef2(args) -> list[str]:
    coeffs = Nef2Coefficients.of(*(parse_rational(a) for a in args.coefficients))
    verdict = nef2_membership(coeffs)
    lines = [
        f"member={_bool(verdict.member)}",
        f"boundary={_bool(verdict.boundary)}",
        f"quartic_identically_zero={_bool(verdict.quartic_identically_zero)}",
        "failed=[" + ",".join(verdict.failed) + "]",
    ]
    for name, holds, equality in verdict.conditions:
        lines.append(f"condition.{name}={_bool(holds)}")
        lines.append(f"condition.{name}.equality={_bool(equality)}")
    return lines


def _cmd_hi2(args) -> list[str]:
    sc = _read_scenario(args.scenario)
    task = _require_task(sc, "hi2")
    res = hi2_check(sc.bundle, task["h"], task["alpha"])
    return [
        f"lhs={res.lhs}",
        f"rhs={res.rhs}",
        f"holds={_bool(res.holds)}",
        f"equality={_bool(res.equality)}",
        f"alpha_zero={_bool(res.alpha_is_zero)}",
    ]


def _cmd_logconcave(args) -> list[str]:
    sc = _read_scenario(args.scenario)
    task = _require_task(sc, "logconcave")
    rep = schur_logconcavity_report(sc.bundle, task["mu"], task["h"])
    lines = [f"f({i})={v}" for i, v in enumerate(rep.values)]
    # For positive values the midpoint and chord conditions are equivalent
    # (see ``certify.discrete_logconcave``), so both lines repeat ``strict``;
    # they stay because the benchmark references and ``bench/checks.py`` read
    # all three.
    strict = _bool(rep.strict)
    lines += [
        f"positive={_bool(rep.positive)}",
        f"midpoint={strict}",
        f"chord={strict}",
        f"strict={strict}",
    ]
    for item in rep.counterexamples:
        lines.append(f"counterexample={item}")
    return lines


def _cmd_hl_scan(args) -> list[str]:
    width = parse_rational(args.width)
    scan = hl_failure_scan(width)
    lo, hi = scan.interval
    sign = lambda v: "+" if v > 0 else ("-" if v < 0 else "0")  # noqa: E731
    return [
        f"det_first={scan.det_first}",
        f"det_first_sign={sign(scan.det_first)}",
        f"det_second={scan.det_second}",
        f"det_second_sign={sign(scan.det_second)}",
        f"interval=({lo},{hi})",
        f"width={hi - lo}",
    ]


def _cmd_paper_repro(args) -> tuple[list[str], int]:
    if args.list:
        return [f"{example_id}: {summary}" for example_id, summary, _ in repro.EXAMPLES], 0
    lines = []
    passed = True
    for example_id, _, check in repro.EXAMPLES:
        failures = check()
        passed = passed and not failures
        lines.append(f"example={example_id} status={'fail' if failures else 'pass'}")
        lines += [f"detail={detail}" for detail in failures]
    lines.append(f"overall={'pass' if passed else 'fail'}")
    return lines, 0 if passed else 1


# -- argument parsing -----------------------------------------------------


def _natural(text: str) -> int:
    try:
        return parse_natural(text, "natural number")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurcert",
        description="Exact certification of positivity properties of Schur classes.",
    )
    parser.add_argument(
        "--machine",
        action="store_true",
        help="accepted and ignored: every subcommand prints key=value lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="print a Schur or derived Schur polynomial")
    p.add_argument("partition", help="comma-separated parts, e.g. 2,1")
    p.add_argument("--rank", type=_natural, required=True)
    p.add_argument("--derived", type=_natural, default=None, metavar="I")

    p = sub.add_parser("ring-eval", help="evaluate characteristic classes on a model")
    p.add_argument("scenario")

    p = sub.add_parser("hr-check", help="Hodge-Riemann verdict for a declared form")
    p.add_argument("scenario")

    p = sub.add_parser("nef2", help="membership in the codimension-2 nef cone")
    p.add_argument("coefficients", nargs=6, metavar="A")

    p = sub.add_parser("hi2", help="mixed Chern-class Hodge-Index inequality")
    p.add_argument("scenario")

    p = sub.add_parser("logconcave", help="strict log-concavity of Schur numbers")
    p.add_argument("scenario")

    p = sub.add_parser("hl-scan", help="scan the fixed grade-2 pencil for degeneracy")
    p.add_argument("--width", default="1/1000000", help="isolation width (rational)")

    p = sub.add_parser("paper-repro", help="run the fixed-example suite")
    p.add_argument("--list", action="store_true", help="list example ids and summaries")

    return parser


_PARSER = _build_parser()

_COMMANDS = {
    "schur": _cmd_schur,
    "ring-eval": _cmd_ring_eval,
    "hr-check": _cmd_hr_check,
    "nef2": _cmd_nef2,
    "hi2": _cmd_hi2,
    "logconcave": _cmd_logconcave,
    "hl-scan": _cmd_hl_scan,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "paper-repro":
            lines, code = _cmd_paper_repro(args)
        else:
            lines = _COMMANDS[args.command](args)
            code = 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # of all ValueErrors, only int-to-text's limit is input-sized
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
