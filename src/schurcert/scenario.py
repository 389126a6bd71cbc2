"""Line-oriented scenario files: sections of ``key = value`` pairs.

Grammar (exercised in ``tests/test_scenario.py``)::

    file     := line*
    line     := blank | comment | section | pair
    comment  := '#' anything
    section  := '[' word (' ' name)? ']'
    pair     := key '=' value

Sections: ``[model]`` holds ``model = proj(n1,...,nk)`` or ``model =
abelian_square``; ``[bundle]`` one or more ``root`` vectors and at most one
``twist``; ``[hermitian NAME]`` the ``row``s of a Hermitian matrix H of
size at most 8, built into the real (1,1)-form i sum H_jk dz_j dzbar_k.  Tasks
and their required keys: ``[task hr-check]`` needs ``dimension``,
``reference`` and exactly one of ``combination`` and ``schur``, and
``schur`` needs ``forms``; ``[task logconcave]`` needs ``mu`` and ``h``;
``[task hi2]`` needs ``h`` and ``alpha``; ``[task ring-eval]`` takes any
number of ``schur`` and ``derived`` (``partition / order``) keys.  Every
task but ``hr-check`` needs a ``[bundle]``.

Every number a user types, here or on the command line, is read by this
module, by one grammar (blanks around a literal are ignored)::

    natural   := [0-9]+                  parts, orders, dimension, powers, exponents
    rational  := [+-]? natural ('/' natural)?          vectors and coefficients
    gaussian  := rational ([+-] natural ('/' natural)? 'i')?   rows, inner blanks allowed

``parse`` checks and resolves the whole file in one pass.  It builds the
model, the bundle and every ``[hermitian]`` section, whether a task refers
to it or not.  A section's name must be an identifier; each form name in
``reference``, ``forms`` or a ``combination`` must name a declared section
whose size is the task's ``dimension``; each vector (``root``, ``twist``,
``h``, ``alpha``) must have one entry per model generator.  No part of a
``ring-eval`` partition may exceed the bundle's rank, nor of an
``hr-check`` ``schur`` partition the number of ``forms``, and a derived
order lies in ``0..|partition|``.  A ``ring-eval`` ``schur`` partition has
at most ``chernpoly.MAX_PARTS`` parts, and so has every partition of a
``derived`` entry's Lascoux sum.  A ``logconcave`` ``mu`` weighs the
bundle's rank, and an ``hr-check`` ``schur`` partition at most the
``dimension``; the terms of a ``combination`` share one degree, the sum
of their powers.  Every defect raises a
``ScenarioError`` carrying the line and column of the key at fault, or of
the section header when the whole section is (a missing required key, a
matrix that is not Hermitian).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .chernpoly import _require_derived_shape, _require_schur_shape
from .errors import ScenarioError, ValidationError
from .forms import PQForm, hermitian_form
from .gaussian import GaussianRational
from .partitions import Partition
from .rings import GradedClass, RingModel, SplitBundle, abelian_square, proj


@dataclass
class Scenario:
    """A checked scenario: its sections built, its form names resolved."""

    model: RingModel | None = None
    bundle: SplitBundle | None = None
    forms: dict[str, PQForm] = field(default_factory=dict)
    tasks: dict[str, dict[str, object]] = field(default_factory=dict)


_NATURAL = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_GAUSSIAN = re.compile(_RATIONAL.pattern + r"(?:\s*([+-])\s*([0-9]+)(?:/([0-9]+))?\s*i)?")


def _fraction(num: str, den: str | None = None) -> Fraction:
    """``num/den`` from matched digits; a zero denominator or more digits
    than ``int()`` converts raises ValidationError."""
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {num}/{den}")
    except ValueError:
        raise ValidationError(f"a literal has more than {sys.get_int_max_str_digits()} digits")


def parse_natural(text: str, what: str) -> int:
    """``[0-9]+`` as an int; anything else raises ValidationError naming ``what``."""
    if _NATURAL.fullmatch(text.strip()) is None:
        raise ValidationError(f"bad {what} {text.strip()!r}")
    return _fraction(text).numerator


def parse_rational(text: str) -> Fraction:
    """A signed ``p/q`` or integer; anything else, floats included, is refused."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValidationError(f"bad rational literal {text!r} (floats are rejected)")
    return _fraction(*m.groups())


def parse_partition(text: str) -> Partition:
    """Comma-separated naturals, weakly decreasing: ``"2,1,0"``."""
    return Partition([parse_natural(tok, "partition part") for tok in text.split(",")])


# -- values: each parser takes the text and the model, and raises
# ValidationError, which the caller places at the key's line and column.


def _model(value: str, model: RingModel | None) -> RingModel:
    """The model named by ``proj(2,3)`` / ``abelian_square``."""
    if value == "abelian_square":
        return abelian_square()
    if value.startswith("proj(") and value.endswith(")"):
        try:
            exps = [parse_natural(t, "exponent") for t in value[len("proj(") : -1].split(",")]
        except ValidationError:
            exps = [0]
        if min(exps) < 1:
            raise ValidationError("proj(...) needs positive integer exponents")
        return proj(*exps)
    raise ValidationError(f"bad model literal {value!r}")


def _vector(value: str, model: RingModel | None) -> GradedClass:
    """A degree-1 class of the model, one coefficient per generator."""
    if not value:
        raise ValidationError("empty coefficient list")
    coeffs = [parse_rational(t) for t in value.split(",")]
    if model is None:
        raise ValidationError("a vector needs a [model] section")
    return model.degree_one(coeffs)


def _row(value: str, model: RingModel | None) -> tuple[GaussianRational, ...]:
    out = []
    for tok in value.split(","):
        m = _GAUSSIAN.fullmatch(tok.strip())
        if m is None:
            raise ValidationError(f"bad Gaussian-rational literal {tok.strip()!r}")
        re_num, re_den, sign, im_num, im_den = m.groups()
        im = _fraction(sign + im_num, im_den) if sign else 0
        out.append(GaussianRational(_fraction(re_num, re_den), im))
    return tuple(out)


def _dimension(value: str, model: RingModel | None) -> int:
    return parse_natural(value, "dimension")


def _name(value: str, model: RingModel | None) -> str:
    return value


def _names(value: str, model: RingModel | None) -> tuple[str, ...]:
    return tuple(t.strip() for t in value.split(","))


def _partition(value: str, model: RingModel | None) -> Partition:
    return parse_partition(value)


def _derived(value: str, model: RingModel | None) -> tuple[Partition, int]:
    if "/" not in value:
        raise ValidationError("derived entries look like 'partition / order'")
    part_text, order_text = value.split("/", 1)
    order = parse_natural(order_text, "derived order")
    mu = parse_partition(part_text)
    if order > mu.weight:
        raise ValidationError(f"derived order {order} out of range 0..{mu.weight}")
    return mu, order


_TERM_START = re.compile(r"(?<=[^*^+\s-])\s*(?=[+-])")
_SIGN_RUN = re.compile(r"[+\s-]*")


def _combination(value: str, model: RingModel | None) -> tuple:
    """Parse ``c1*name^k*... + c2*...`` into ((coeff, ((name, pow), ...)), ...).

    A term is a run of signs, blanks allowed between them, and one or more
    ``*``-separated factors; the term's sign is the product of the run.  A
    sign right after ``*`` or ``^`` (the last non-blank character before it)
    belongs to its factor instead, as in ``a^2*-3``.  A factor whose base
    (before ``^``) is an identifier is a form name; every other factor is a
    rational coefficient."""
    if not value.strip():
        raise ValidationError("empty combination")
    terms = []
    for chunk in _TERM_START.split(value):
        run = _SIGN_RUN.match(chunk).group()
        body = chunk[len(run) :]
        if not body.strip():
            raise ValidationError("empty term in combination")
        coeff = Fraction(-1 if run.count("-") & 1 else 1)
        factors: list[tuple[str, int]] = []
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValidationError("empty factor in combination")
            name, caret, power_text = factor.partition("^")
            name = name.strip()
            if not name.isidentifier():  # form names are identifiers
                try:
                    coeff *= parse_rational(factor)
                except ValidationError:
                    raise ValidationError(f"bad coefficient {factor!r}")
                continue
            factors.append((name, parse_natural(power_text, "power") if caret else 1))
        if not factors:
            raise ValidationError("combination term without a form name")
        terms.append((coeff, tuple(factors)))
    return tuple(terms)


# section -> key -> (parser, required, repeatable)
_SECTIONS = {
    "model": {"model": (_model, True, False)},
    "bundle": {"root": (_vector, True, True), "twist": (_vector, False, False)},
    "hermitian": {"row": (_row, True, True)},
    "task hr-check": {
        "dimension": (_dimension, True, False),
        "reference": (_name, True, False),
        "combination": (_combination, False, False),
        "schur": (_partition, False, False),
        "forms": (_names, False, False),
    },
    "task logconcave": {"mu": (_partition, True, False), "h": (_vector, True, False)},
    "task hi2": {"h": (_vector, True, False), "alpha": (_vector, True, False)},
    "task ring-eval": {
        "schur": (_partition, False, True),
        "derived": (_derived, False, True),
    },
}

# Vectors need the model, and tasks need the bundle and the forms.
_BUILD_ORDER = {"model": 0, "bundle": 1, "hermitian": 2}


def parse(text: str) -> Scenario:
    """Parse, check and resolve scenario text; raises ScenarioError on any defect."""
    section: str | None = None
    section_name: str | None = None
    raw: dict[tuple[str, str | None], list[tuple[str, str, int, int]]] = {}
    headers: dict[tuple[str, str | None], tuple[str, int, int]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        body = stripped.strip()
        col = indent + 1
        if body.startswith("["):
            if not body.endswith("]"):
                raise ScenarioError("unterminated section header", lineno, col)
            inner = body[1:-1].strip()
            if not inner:
                raise ScenarioError("empty section header", lineno, col)
            parts = inner.split(None, 1)
            kind = parts[0]
            name = parts[1].strip() if len(parts) > 1 else None
            canonical = kind if kind != "task" else f"task {name}"
            if kind == "hermitian":
                if name is None:
                    raise ScenarioError("[hermitian] needs a name", lineno, col)
                if not name.isidentifier():
                    raise ScenarioError(
                        f"form name {name!r} is not an identifier", lineno, col
                    )
                canonical = "hermitian"
            elif kind == "task":
                if name is None:
                    raise ScenarioError("[task] needs a task name", lineno, col)
                if canonical not in _SECTIONS:
                    raise ScenarioError(f"unknown task {name!r}", lineno, col)
            elif canonical not in _SECTIONS:
                raise ScenarioError(f"unknown section [{inner}]", lineno, col)
            elif name is not None:
                raise ScenarioError(f"section [{kind}] takes no name", lineno, col)
            section = canonical
            section_name = name
            key = (section, section_name)
            if key in raw:
                raise ScenarioError(f"duplicate section [{inner}]", lineno, col)
            raw[key] = []
            headers[key] = (f"{kind} {name}" if name else kind, lineno, col)
            continue
        if "=" not in body:
            raise ScenarioError("expected 'key = value'", lineno, col)
        if section is None:
            raise ScenarioError("key/value pair before any section header", lineno, col)
        key_part, value = body.split("=", 1)
        key = key_part.strip()
        value = value.strip()
        keys = _SECTIONS[section]
        if key not in keys:
            label = headers[(section, section_name)][0]
            raise ScenarioError(f"unknown key {key!r} in [{label}]", lineno, col)
        entries = raw[(section, section_name)]
        if not keys[key][2] and any(k == key for k, *_ in entries):
            raise ScenarioError(f"duplicate key {key!r}", lineno, col)
        entries.append((key, value, lineno, col))

    return _assemble(raw, headers)


def _assemble(raw, headers) -> Scenario:
    """Build the scenario from the raw entries; ``headers`` maps each
    section to its label and the line and column of its header, which
    errors about a whole section report."""
    sc = Scenario()
    for (section, name), entries in sorted(
        raw.items(), key=lambda item: _BUILD_ORDER.get(item[0][0], 3)
    ):
        label, *header = headers[(section, name)]
        values, where = _read_section(sc, section, label, entries, header)
        if section == "model":
            sc.model = values["model"]
        elif section == "bundle":
            sc.bundle = SplitBundle(sc.model, values["root"], values.get("twist"))
        elif section == "hermitian":
            try:
                sc.forms[name] = hermitian_form(values["row"])
            except ValidationError as exc:
                raise ScenarioError(f"[{label}]: {exc}", *header)
        else:
            if section == "task hr-check":
                _check_hr_forms(sc, values, where, header)
            elif sc.bundle is None:  # every other task reads the bundle
                raise ScenarioError(f"[{label}] needs a [bundle] section", *header)
            elif section == "task ring-eval":
                for lam, at in zip(values.get("schur", ()), where.get("schur", ())):
                    _check_at(at, _require_schur_shape, lam, sc.bundle.rank)
                for (mu, order), at in zip(values.get("derived", ()), where.get("derived", ())):
                    _check_at(at, _require_derived_shape, mu, sc.bundle.rank, order)
            elif section == "task logconcave":
                mu, rank = values["mu"], sc.bundle.rank
                if mu.weight != rank:
                    raise ScenarioError(
                        f"partition weight {mu.weight} must equal the rank {rank}",
                        *where["mu"],
                    )
            sc.tasks[name] = values
    return sc


def _read_section(sc: Scenario, section: str, label: str, entries, header):
    """Parse each entry with its key's parser; return the values and
    where each was given, both a list for a repeatable key."""
    keys = _SECTIONS[section]
    values: dict[str, object] = {}
    where: dict[str, object] = {}
    for key, value, ln, col in entries:
        parser, _, repeatable = keys[key]
        try:
            item = parser(value, sc.model)
        except ValidationError as exc:
            raise ScenarioError(str(exc), ln, col)
        if repeatable:
            values.setdefault(key, []).append(item)
            where.setdefault(key, []).append((ln, col))
        else:
            values[key] = item
            where[key] = (ln, col)
    for key, (_, required, _) in keys.items():
        if required and key not in values:
            raise ScenarioError(f"[{label}] needs {key!r}", *header)
    return values, where


def _check_hr_forms(sc: Scenario, task: dict, where: dict, header) -> None:
    """Exactly one of 'combination' and 'schur' (with 'forms'), no power
    or Schur weight above the task's dimension, one degree (sum of powers)
    for every term of a combination, and every form named is declared with
    the task's dimension."""
    d = task["dimension"]
    if ("combination" in task) == ("schur" in task):
        raise ScenarioError(
            "[task hr-check] needs exactly one of 'combination' or 'schur'", *header
        )
    if "schur" in task:
        if "forms" not in task:
            raise ScenarioError("'schur' needs a 'forms' list", *where["schur"])
        lam = task["schur"]
        _check_at(where["schur"], lam.require_rank, len(task["forms"]))
        if lam.weight > d:
            raise ScenarioError(
                f"Schur form of weight {lam.weight} vanishes beyond dimension {d}",
                *where["schur"],
            )
    combination = task.get("combination", ())
    degrees = set()
    for _, factors in combination:
        for name, power in factors:
            if power > d:  # refused before any wedge is taken
                raise ScenarioError(
                    f"power {power} of {name!r} vanishes beyond dimension {d}",
                    *where["combination"],
                )
        degrees.add(sum(power for _, power in factors))
    if len(degrees) > 1:  # terms of different bidegrees cannot be added
        low, *_, high = sorted(degrees)
        raise ScenarioError(
            f"combination mixes terms of degree {low} and {high}", *where["combination"]
        )
    named = {
        "reference": (task["reference"],),
        "combination": [name for _, factors in combination for name, _ in factors],
        "forms": task.get("forms", ()),
    }
    for key, names in named.items():
        for name in names:
            if name not in sc.forms:
                raise ScenarioError(f"no [hermitian {name}] section declared", *where[key])
            if sc.forms[name].dim != d:
                raise ScenarioError(
                    f"form {name!r} has size {sc.forms[name].dim}, not the dimension {d}",
                    *where[key],
                )


def _check_at(at: tuple[int, int], check, *args) -> None:
    """Run ``check(*args)``; a ``ValidationError`` is refused at ``at``."""
    try:
        check(*args)
    except ValidationError as exc:
        raise ScenarioError(str(exc), *at)
