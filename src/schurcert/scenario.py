"""Line-oriented scenario files: sections of ``key = value`` pairs.

Grammar (exercised in ``tests/test_scenario.py``)::

    file     := line*
    line     := blank | comment | section | pair
    comment  := '#' anything
    section  := '[' word (' ' name)? ']'
    pair     := key '=' value

The ``[model]`` section holds one key, ``model = proj(n1,...,nk)`` or
``model = abelian_square``.  Rational literals are ``p/q`` or integers;
Gaussian rationals additionally allow ``re+imi`` / ``re-imi``.  Floating
point and exponent notation are rejected in every literal, the
coefficients of a ``combination`` included.  Unknown sections or keys are
errors carrying a line/column diagnostic, not warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ScenarioError, ValidationError
from .forms import HermitianOneOne
from .gaussian import GaussianRational
from .partitions import Partition
from .rings import RingModel, SplitBundle, abelian_square, proj

# Section name -> (allowed keys, repeatable keys)
_SECTION_KEYS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "model": (frozenset({"model"}), frozenset()),
    "bundle": (frozenset({"root", "twist"}), frozenset({"root"})),
    "hermitian": (frozenset({"row"}), frozenset({"row"})),
    "task hr-check": (
        frozenset({"dimension", "reference", "combination", "schur", "forms"}),
        frozenset(),
    ),
    "task logconcave": (frozenset({"mu", "h"}), frozenset()),
    "task hi2": (frozenset({"h", "alpha"}), frozenset()),
    "task ring-eval": (frozenset({"schur", "derived"}), frozenset({"schur", "derived"})),
}


@dataclass
class Scenario:
    """Validated scenario contents."""

    model_spec: tuple | None = None  # ("proj", (2, 3)) | ("abelian_square",)
    roots: tuple[tuple[Fraction, ...], ...] = ()
    twist: tuple[Fraction, ...] | None = None
    hermitians: dict[str, tuple[tuple[GaussianRational, ...], ...]] = field(
        default_factory=dict
    )
    tasks: dict[str, dict[str, object]] = field(default_factory=dict)

    # -- materialization ------------------------------------------------

    def model(self) -> RingModel:
        if self.model_spec is None:
            raise ValidationError("scenario declares no [model] section")
        if self.model_spec[0] == "proj":
            return proj(*self.model_spec[1])
        return abelian_square()

    def bundle(self, model: RingModel | None = None) -> SplitBundle:
        if not self.roots:
            raise ValidationError("scenario declares no [bundle] roots")
        model = model or self.model()
        roots = [model.degree_one(r) for r in self.roots]
        twist = model.degree_one(self.twist) if self.twist is not None else None
        return SplitBundle(model, roots, twist)

    def hermitian(self, name: str) -> HermitianOneOne:
        if name not in self.hermitians:
            raise ValidationError(f"no [hermitian {name}] section declared")
        return HermitianOneOne(self.hermitians[name])


def parse_rational(text: str) -> Fraction:
    """``p/q`` or an integer as an exact rational; anything else, floats
    included, raises ValidationError."""
    try:
        if "." in text or "e" in text.lower():
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"bad rational literal {text!r} (floats are rejected)")


def _parse_rational_list(value: str, line: int, col: int) -> tuple[Fraction, ...]:
    items = [t for t in value.split(",")]
    if not items or all(not t.strip() for t in items):
        raise ScenarioError("empty coefficient list", line, col)
    try:
        return tuple(parse_rational(t.strip()) for t in items)
    except ValidationError as exc:
        raise ScenarioError(str(exc), line, col)


def _parse_gaussian_list(value: str, line: int, col: int) -> tuple[GaussianRational, ...]:
    out = []
    for tok in value.split(","):
        tok = tok.strip()
        try:
            out.append(GaussianRational.parse(tok))
        except ValidationError:
            raise ScenarioError(f"bad Gaussian-rational literal {tok!r}", line, col)
    return tuple(out)


def parse(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioError on any defect."""
    sc = Scenario()
    section: str | None = None
    section_name: str | None = None
    raw: dict[tuple[str, str | None], list[tuple[str, str, int, int]]] = {}
    headers: dict[tuple[str, str | None], tuple[int, int]] = {}

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
                canonical = "hermitian"
            elif kind == "task":
                if name is None:
                    raise ScenarioError("[task] needs a task name", lineno, col)
                if canonical not in _SECTION_KEYS:
                    raise ScenarioError(f"unknown task {name!r}", lineno, col)
            elif canonical not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{inner}]", lineno, col)
            elif name is not None:
                raise ScenarioError(f"section [{kind}] takes no name", lineno, col)
            section = canonical
            section_name = name
            key = (section, section_name)
            if key in raw:
                raise ScenarioError(f"duplicate section [{inner}]", lineno, col)
            raw[key] = []
            headers[key] = (lineno, col)
            continue
        if "=" not in body:
            raise ScenarioError("expected 'key = value'", lineno, col)
        if section is None:
            raise ScenarioError("key/value pair before any section header", lineno, col)
        key_part, value = body.split("=", 1)
        key = key_part.strip()
        value = value.strip()
        allowed, repeatable = _SECTION_KEYS[section]
        if key not in allowed:
            display = f"{section} {section_name}" if section == "hermitian" else section
            raise ScenarioError(f"unknown key {key!r} in [{display}]", lineno, col)
        entries = raw[(section, section_name)]
        if key not in repeatable and any(k == key for k, *_ in entries):
            raise ScenarioError(f"duplicate key {key!r}", lineno, col)
        entries.append((key, value, lineno, col))

    _assemble(sc, raw, headers)
    return sc


def _assemble(sc: Scenario, raw, headers) -> None:
    """Build ``sc`` from the raw entries; ``headers`` maps each section to
    the line and column of its header, which errors about a whole section
    report."""
    for (section, name), entries in raw.items():
        header = headers[(section, name)]
        if section == "model":
            if not entries:
                raise ScenarioError("[model] needs 'model'", *header)
            _, value, ln, col = entries[0]
            sc.model_spec = _parse_model_literal(value, ln, col)
        elif section == "bundle":
            roots = []
            twist = None
            for key, value, ln, col in entries:
                if key == "root":
                    roots.append(_parse_rational_list(value, ln, col))
                else:
                    twist = _parse_rational_list(value, ln, col)
            if not roots:
                raise ScenarioError("[bundle] needs at least one root", *header)
            widths = {len(r) for r in roots} | ({len(twist)} if twist else set())
            if len(widths) != 1:
                raise ScenarioError("bundle vectors have inconsistent lengths", entries[0][2], 1)
            sc.roots = tuple(roots)
            sc.twist = twist
        elif section == "hermitian":
            rows = [
                _parse_gaussian_list(value, ln, col)
                for key, value, ln, col in entries
                if key == "row"
            ]
            if not rows:
                raise ScenarioError(f"[hermitian {name}] has no rows", *header)
            if any(len(r) != len(rows) for r in rows):
                raise ScenarioError(
                    f"[hermitian {name}] rows do not form a square matrix",
                    entries[0][2],
                    1,
                )
            sc.hermitians[name] = tuple(rows)
        elif section.startswith("task "):
            task = section.removeprefix("task ")
            sc.tasks[task] = _assemble_task(task, entries)


def _assemble_task(task: str, entries) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value, ln, col in entries:
        if task == "hr-check":
            if key == "dimension":
                try:
                    out[key] = int(value)
                except ValueError:
                    raise ScenarioError(f"bad dimension {value!r}", ln, col)
            elif key == "reference":
                out[key] = value
            elif key == "combination":
                out[key] = _parse_combination(value, ln, col)
            elif key == "schur":
                out[key] = _parse_partition(value, ln, col)
            elif key == "forms":
                out[key] = tuple(t.strip() for t in value.split(","))
        elif task == "logconcave":
            if key == "mu":
                out[key] = _parse_partition(value, ln, col)
            else:
                out[key] = _parse_rational_list(value, ln, col)
        elif task == "hi2":
            out[key] = _parse_rational_list(value, ln, col)
        elif task == "ring-eval":
            if key == "schur":
                out.setdefault("schur", []).append(_parse_partition(value, ln, col))
            else:
                if "/" not in value:
                    raise ScenarioError(
                        "derived entries look like 'partition / order'", ln, col
                    )
                part_text, order_text = value.rsplit("/", 1)
                try:
                    order = int(order_text.strip())
                except ValueError:
                    raise ScenarioError(f"bad derived order {order_text!r}", ln, col)
                out.setdefault("derived", []).append(
                    (_parse_partition(part_text, ln, col), order)
                )
    return out


def _parse_model_literal(value: str, ln: int, col: int) -> tuple:
    """Parse the compact model literal ``proj(2,3)`` / ``abelian_square``."""
    text = value.strip()
    if text == "abelian_square":
        return ("abelian_square",)
    if text.startswith("proj(") and text.endswith(")"):
        inner = text[len("proj(") : -1]
        exps = []
        for tok in inner.split(","):
            tok = tok.strip()
            if not tok.isdigit() or int(tok) < 1:
                raise ScenarioError(
                    "proj(...) needs positive integer exponents", ln, col
                )
            exps.append(int(tok))
        if not exps:
            raise ScenarioError("proj(...) needs at least one factor", ln, col)
        return ("proj", tuple(exps))
    raise ScenarioError(f"bad model literal {text!r}", ln, col)


def _parse_partition(value: str, ln: int, col: int) -> Partition:
    try:
        return Partition.parse(value)
    except ValidationError as exc:
        raise ScenarioError(str(exc), ln, col)


def _parse_combination(value: str, ln: int, col: int) -> tuple:
    """Parse ``c1*name^k*... + c2*...`` into ((coeff, ((name, pow), ...)), ...)."""
    text = value.replace("-", "+-")
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        negative = chunk.startswith("-")
        if negative:
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        factors: list[tuple[str, int]] = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ScenarioError("empty factor in combination", ln, col)
            if factor[0].isdigit():
                try:
                    coeff *= parse_rational(factor)
                except ValidationError:
                    raise ScenarioError(f"bad coefficient {factor!r}", ln, col)
                continue
            if "^" in factor:
                name, _, power_text = factor.partition("^")
                try:
                    power = int(power_text)
                except ValueError:
                    raise ScenarioError(f"bad power {power_text!r}", ln, col)
                if power < 0:
                    raise ScenarioError("negative power in combination", ln, col)
            else:
                name, power = factor, 1
            factors.append((name.strip(), power))
        if negative:
            coeff = -coeff
        if not factors:
            raise ScenarioError("combination term without a form name", ln, col)
        terms.append((coeff, tuple(factors)))
    if not terms:
        raise ScenarioError("empty combination", ln, col)
    return tuple(terms)
