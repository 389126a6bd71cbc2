"""Seeded input generator for the benchmark workloads.

Built on ``random`` and ``Fraction`` only: it never imports ``schurcert``,
so a change to the package (``instances.py`` included) cannot change the
inputs.  ``generate(workload, seed, workdir)`` writes the scenario files a
workload needs into ``workdir`` and returns the verdict list.

Every verdict is a dict with

* ``id``     -- unique within the workload and seed;
* ``cls``    -- the size class it belongs to (for the notes and probes);
* ``kind``   -- ``"cli"`` (``argv`` for ``schurcert.cli.main``) or ``"api"``
                (``fn`` plus string-encoded ``args`` for a certifier);
* ``expect`` -- what the theory or the construction guarantees, checked on
                every seed (see ``checks.py``).

The order of size classes and instance types in the timed pool is fixed and
does not depend on the seed; the seed only chooses the numbers.  That keeps
the latency percentiles inside the same size class from seed to seed.
Warm-up verdicts come from a stream that never depends on ``--seed``, so
they are disjoint from the timed ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("hr-forms", "ring-logconcave", "small-certs")

# Pool sizes: the timed loop cycles through the pool, and a run visits every
# input several times (run.py reports each input's fastest visit).
POOL_SIZE = {"hr-forms": 20, "ring-logconcave": 120, "small-certs": 300}


def _rng(workload: str, stream: str) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``: stable across runs
    # and interpreter versions.
    return random.Random(f"schurcert-bench:{workload}:{stream}")


# -- small exact helpers -------------------------------------------------


def _gauss_text(re: Fraction, im: Fraction) -> str:
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def _hermitian_section(name: str, rows) -> str:
    body = "".join(
        "row = " + ", ".join(_gauss_text(re, im) for re, im in row) + "\n"
        for row in rows
    )
    return f"[hermitian {name}]\n{body}\n"


def _gram_plus_identity(rng: random.Random, d: int, scale: Fraction):
    """scale * (B* B + I) for a Gaussian-integer B with entries in {-1,0,1}^2."""
    b = [[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(d)] for _ in range(d)]
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            re = sum(b[k][i][0] * b[k][j][0] + b[k][i][1] * b[k][j][1] for k in range(d))
            im = sum(b[k][i][0] * b[k][j][1] - b[k][i][1] * b[k][j][0] for k in range(d))
            if i == j:
                re += 1
            row.append((Fraction(re) * scale, Fraction(im) * scale))
        rows.append(row)
    return rows


def _congruent_diagonal(p, diag):
    """P* diag P for a Gaussian-integer matrix P given as (re, im) pairs."""
    d = len(diag)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            re = im = Fraction(0)
            for k in range(d):
                a, b = p[k][i]
                c, e = p[k][j]
                re += diag[k] * (a * c + b * e)
                im += diag[k] * (a * e - b * c)
            row.append((re, im))
        rows.append(row)
    return rows


def partitions(weight: int, cap: int | None = None):
    """Partitions of ``weight`` as tuples, largest parts first."""
    cap = weight if cap is None else min(cap, weight)
    if weight == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(weight - first, first):
            yield (first,) + rest


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _mat(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _unimodular(rng: random.Random, n: int):
    """Unit lower times unit upper triangular, entries in {-1,0,1}, and its inverse."""
    lower = [[Fraction(int(i == j) or (rng.randint(-1, 1) if i > j else 0)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j) or (rng.randint(-1, 1) if i < j else 0)) for j in range(n)] for i in range(n)]
    b = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return b, _inverse(b)


def _inverse(m):
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _congruence(m, p):
    """P^T M P."""
    n, k = len(m), len(p[0])
    mp = [[sum(m[i][j] * p[j][c] for j in range(n)) for c in range(k)] for i in range(n)]
    return [[sum(p[j][r] * mp[j][c] for j in range(n)) for c in range(k)] for r in range(k)]


def _small_fraction(rng: random.Random, num: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


# -- hr-forms ------------------------------------------------------------

# One block of 20 timed slots: 7 at d=4, 10 at d=5, 3 at d=6.
HR_BLOCK = (4, 5, 4, 5, 6, 5, 4, 5, 4, 5, 6, 5, 4, 5, 4, 5, 6, 5, 4, 5)
# Instance types per dimension, visited in rotation: every partition of
# d-2 as a Schur form (the last one, 1^(d-2), is the pair chain) and a
# combination pencil at its degenerate parameter.
HR_TYPES = {
    d: [_csv(lam) for lam in partitions(d - 2)] + ["pencil"] for d in (4, 5, 6)
}


def _hr_schur_scenario(rng: random.Random, d: int, lam: str, nf: int, turn: int) -> tuple[str, dict]:
    parts = [int(x) for x in lam.split(",")]
    rank = max(parts[0], nf)
    text = ""
    for i in range(nf):
        # The denominators set the cost of the exact arithmetic, so the
        # slot, not the seed, picks them.
        scale = Fraction(1, 1 + (turn + i) % 3)
        text += _hermitian_section(f"w{i}", _gram_plus_identity(rng, d, scale))
    forms = ", ".join(f"w{i % nf}" for i in range(rank))
    text += (
        f"[task hr-check]\ndimension = {d}\nreference = w0\n"
        f"schur = {lam}\nforms = {forms}\n"
    )
    expect: dict = {"code": 0, "hr_dimension": d}
    if all(p == 1 for p in parts):
        # Pair chain: the Hodge-Riemann property holds.
        expect["inertia"] = [1, 0, d * d - 1]
        expect["hr"] = True
    return text, expect


def _hr_pencil_scenario(rng: random.Random, d: int, nf: int, turn: int) -> tuple[str, dict]:
    """w0^(d-2) - a*w1^(d-2) with w0 = P* X P, w1 = P* Y P, X, Y diagonal.

    In the coordinates of P the form is diagonal, and its coefficient on
    the complement of {j, k} is x^I - a y^I.  Choosing a = x^I / y^I kills
    that coefficient, so dz_j dzbar_k and dz_k dzbar_j pair to zero with
    everything: the pairing is degenerate (hl=false, hence hr=false).
    """
    p = [
        [(1, 0) if i == j else ((rng.randint(-1, 1), rng.randint(-1, 1)) if i < j else (0, 0)) for j in range(d)]
        for i in range(d)
    ]
    x = [Fraction(rng.randint(1, 3)) for _ in range(d)]
    y = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(d)]
    j, k = rng.sample(range(d), 2)
    a = Fraction(1)
    for i in range(d):
        if i not in (j, k):
            a *= x[i] / y[i]
    text = _hermitian_section("w0", _congruent_diagonal(p, x))
    text += _hermitian_section("w1", _congruent_diagonal(p, y))
    reference = "w0"
    if nf == 3:
        text += _hermitian_section("w2", _gram_plus_identity(rng, d, Fraction(1, 1 + turn % 3)))
        reference = "w2"
    m = d - 2
    text += (
        f"[task hr-check]\ndimension = {d}\nreference = {reference}\n"
        f"combination = w0^{m} - {a}*w1^{m}\n"
    )
    return text, {"code": 0, "hr_dimension": d, "hr": False, "hl": False}


def _gen_hr_forms(seed: int, workdir: Path):
    def make(rng, prefix, slots):
        out = []
        turn = {4: 0, 5: 0, 6: 0}
        for n, d in enumerate(slots):
            kind = HR_TYPES[d][turn[d] % len(HR_TYPES[d])]
            # A third form raises the rank of a Schur form and with it the
            # cost, which would spread the d=5 and d=6 classes; a pencil's
            # third form is only its reference.
            alternate = d == 4 or kind == "pencil"
            nf = 2 + (turn[d] // len(HR_TYPES[d])) % 2 if alternate else 2
            if kind == "pencil":
                text, expect = _hr_pencil_scenario(rng, d, nf, turn[d])
            else:
                text, expect = _hr_schur_scenario(rng, d, kind, nf, turn[d])
            turn[d] += 1
            vid = f"{prefix}{n:04d}"
            (workdir / f"{vid}.scn").write_text(text)
            out.append({
                "id": vid, "cls": f"d{d}:{kind}", "kind": "cli",
                "argv": ["--machine", "hr-check", {"file": f"{vid}.scn"}],
                "expect": expect,
            })
        return out

    pool_slots = [HR_BLOCK[i % len(HR_BLOCK)] for i in range(POOL_SIZE["hr-forms"])]
    warm = make(_rng("hr-forms", "warmup"), "w", (4, 5, 6))
    pool = make(_rng("hr-forms", f"timed:{seed}"), "t", pool_slots)
    return warm, pool


# -- ring-logconcave -----------------------------------------------------

# (exponents of the proj model, rank); the dimension is the exponent sum.
RING_SLOTS = (
    ((2, 2), 4), ((1, 2, 2), 5), ((1, 1, 1, 1, 1, 1), 6), ((4,), 6),
    ((1, 3), 5), ((2, 3), 6), ((2, 4), 6), ((1, 1, 1, 1), 4),
    ((1, 1, 2), 6), ((5,), 7), ((3, 3), 6), ((1, 1, 1, 2), 5),
    ((2, 2), 6), ((2, 2, 2), 6), ((1, 3), 4), ((1, 2, 3), 6),
    ((1, 1, 1, 1), 5), ((2, 3), 7), ((1, 1, 2), 4), ((5,), 5),
)
RING_COMMANDS = ("logconcave", "hi2", "ring-eval")
# Partition shapes per rank, for the log-concavity and derived classes.
RING_MU = {
    4: ("2,1,1", "2,2", "3,1"),
    5: ("2,1,1,1", "2,2,1", "3,1,1"),
    6: ("2,2,1,1", "3,2,1", "2,1,1,1,1"),
    7: ("3,2,1,1", "2,2,1,1,1", "3,2,2"),
}
RING_SCHUR = ("2,1", "1,1,1", "2,2")


def _format_degree_one(coeffs) -> str:
    """The renderer's text for a degree-1 class on a proj model."""
    pieces = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        body = f"x{i + 1}"
        mag = abs(c)
        text = body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces) if pieces else "0"


def _ring_scenario(rng: random.Random, exps, rank: int, mus, schurs, turn: int, *, warm_all: bool = False):
    """Scenario text for an ample split bundle, and the facts checks need.

    ``turn`` picks the shapes, the derived order and whether a twist is
    present, since these set the cost; the seed picks the numbers.
    """
    k = len(exps)
    twist = [rng.randint(-1, 1) for _ in range(k)] if turn % 3 == 2 else None
    shifted = [[rng.randint(1, 3) for _ in range(k)] for _ in range(rank)]
    roots = [[s - (twist[i] if twist else 0) for i, s in enumerate(row)] for row in shifted]
    h = [rng.randint(1, 2) for _ in range(k)]
    alpha = [rng.randint(-2, 2) for _ in range(k)]
    mu = mus[turn % len(mus)]
    text = f"[model]\nmodel = proj({_csv(exps)})\n\n[bundle]\n"
    text += "".join(f"root = {_csv(r)}\n" for r in roots)
    if twist:
        text += f"twist = {_csv(twist)}\n"
    text += f"\n[task logconcave]\nmu = {mu}\nh = {_csv(h)}\n"
    text += f"\n[task hi2]\nh = {_csv(h)}\nalpha = {_csv(alpha)}\n"
    text += "\n[task ring-eval]\n"
    if warm_all:
        # Fill the Jacobi-Trudi cache for every shape the timed pool uses.
        text += "".join(f"schur = {lam}\n" for lam in schurs)
        text += "".join(f"derived = {m} / 1\n" for m in mus)
    else:
        text += f"schur = {schurs[turn % len(schurs)]}\n"
        text += f"derived = {mu} / {1 + turn % rank}\n"
    c1 = [sum(row[i] for row in shifted) for i in range(k)]
    return text, {"dimension": sum(exps), "rank": rank, "c1": _format_degree_one(c1)}


def _ring_verdict(vid: str, stem: str, cmd: str, facts: dict, cls: str) -> dict:
    """``cmd`` on scenario file ``stem``; ample bundles give strict
    log-concavity and a holding Hodge-index inequality."""
    expect = {"code": 0, **facts}
    if cmd == "logconcave":
        expect["strict"] = True
    elif cmd == "hi2":
        expect["holds"] = True
    return {
        "id": vid, "cls": cls, "kind": "cli",
        "argv": ["--machine", cmd, {"file": f"{stem}.scn"}], "expect": expect,
    }


def _gen_ring(seed: int, workdir: Path):
    def add(out, stem, rng, exps, rank, commands, turn, **kw):
        text, facts = _ring_scenario(rng, exps, rank, RING_MU[rank], RING_SCHUR, turn, **kw)
        (workdir / f"{stem}.scn").write_text(text)
        for cmd in commands:
            cls = f"proj({_csv(exps)})/{rank}:{cmd}"
            out.append(_ring_verdict(f"{stem}.{cmd}", stem, cmd, facts, cls))

    warm: list = []
    wrng = _rng("ring-logconcave", "warmup")
    for rank in sorted(RING_MU):
        add(warm, f"w{rank}", wrng, (4,), rank, ("ring-eval",), rank, warm_all=True)
    add(warm, "w-mid", wrng, (2, 3), 6, RING_COMMANDS, 0)

    pool: list = []
    rng = _rng("ring-logconcave", f"timed:{seed}")
    n = 0
    while len(pool) < POOL_SIZE["ring-logconcave"]:
        exps, rank = RING_SLOTS[n % len(RING_SLOTS)]
        add(pool, f"t{n:04d}", rng, exps, rank, RING_COMMANDS, n)
        n += 1
    return warm, pool


# -- small-certs ---------------------------------------------------------

# One block of 100 timed slots; the order is fixed.
SMALL_COUNTS = {
    "nef2": 30, "schur": 30, "block": 12, "hodge": 12,
    "tiny-ring": 6, "refusal": 7, "hl-scan": 3,
}
HL_WIDTHS = ("1/100", None, "1/10000000000")
SCHUR_PARTITIONS = [lam for w in range(1, 9) for lam in partitions(w)]
NEF2_TYPES = ("member", "boundary-zero-quartic", "boundary-a1", "negative", "a6-over-a2", "random")


def _small_schedule() -> list[str]:
    slots = [kind for kind, count in SMALL_COUNTS.items() for _ in range(count)]
    random.Random("schurcert-bench:small-certs:schedule").shuffle(slots)
    return slots


def _nef2(rng: random.Random, kind: str) -> tuple[list[str], dict]:
    pos = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4))  # noqa: E731
    expect: dict = {"code": 0, "nef2": True}
    if kind == "member":
        coeffs = [pos(), pos(), pos(), 0, 0, 0]
        expect["member"] = True
    elif kind == "boundary-zero-quartic":
        t = pos()
        coeffs = [0, 8 * t, 0, 0, 0, 3 * t]
        expect.update(member=True, boundary=True)
    elif kind == "boundary-a1":
        coeffs = [0, pos(), pos(), 0, 0, 0]
        expect.update(member=True, boundary=True)
    elif kind == "negative":
        coeffs = [-Fraction(2 * rng.randint(0, 4) + 1, rng.choice((2, 3)))]
        coeffs += [_small_fraction(rng) for _ in range(5)]
        expect["member"] = False
    elif kind == "a6-over-a2":
        a2 = pos()
        coeffs = [pos(), a2, pos(), _small_fraction(rng), _small_fraction(rng), a2 + pos()]
        expect["member"] = False
    else:
        coeffs = [_small_fraction(rng, 6, 4) for _ in range(6)]
    # "--" keeps negative non-integers such as -1/2 from parsing as options.
    return ["--machine", "nef2", "--"] + [str(Fraction(c)) for c in coeffs], expect


def _schur(rng: random.Random, lam) -> tuple[list[str], dict]:
    rank = lam[0] + rng.randint(0, 3)
    weight = sum(lam)
    order = rng.choice((weight, rng.randint(0, weight)))
    expect: dict = {"code": 0, "poly_weight": weight - order}
    if order == weight:
        # The top derived class is the Schur polynomial of the conjugate
        # shape at rank ones: the hook-content formula.
        value = Fraction(1)
        for i, row in enumerate(lam):
            for j in range(row):
                hook = (row - j - 1) + sum(1 for r in lam[i + 1:] if r > j) + 1
                value *= Fraction(rank - (j - i), hook)
        expect["poly_value"] = str(value)
    argv = ["--machine", "schur", _csv(lam), "--rank", str(rank), "--derived", str(order)]
    return argv, expect


def _block(rng: random.Random, rho: int) -> dict:
    """Block-form data satisfying the hypotheses by construction.

    Adapted coordinates: Q_V = [[q, r], [r^T, N]] with N negative definite,
    phi = e_1^*, h = e_1.  The extended pairing is then a hyperbolic plane
    plus N, of inertia (1, 0, rho), and Q_V on ker(phi) is N.  A random
    unimodular change of basis hides the adapted coordinates.
    """
    q = Fraction(rng.randint(1, 6))
    r = [_small_fraction(rng, 3, 2) for _ in range(rho - 1)]
    a = [[_small_fraction(rng, 2, 2) for _ in range(rho - 1)] for _ in range(rho - 1)]
    nmat = [
        [-sum(a[k][i] * a[k][j] for k in range(rho - 1)) - int(i == j) for j in range(rho - 1)]
        for i in range(rho - 1)
    ]
    adapted = [[q] + r] + [[r[i]] + nmat[i] for i in range(rho - 1)]
    b, binv = _unimodular(rng, rho)
    q_v = _congruence(adapted, binv)
    phi = list(binv[0])
    h = [b[i][0] for i in range(rho)]
    v = [Fraction(rng.randint(-3, 3)) for _ in range(rho)]
    return {
        "id_cls": f"rho{rho}",
        "args": {"q_v": _mat(q_v), "phi": [str(x) for x in phi], "h": [str(x) for x in h], "v": [str(x) for x in v]},
        "expect": {"code": 0, "holds": True, "kernel_inertia": [0, 0, rho - 1]},
    }


def _hodge(rng: random.Random, n: int) -> dict:
    """Q = B^-T diag(q, -n_2, ..., -n_n) B^-1 has inertia (1, 0, n-1); h = B e_1."""
    diag = [Fraction(rng.randint(1, 5), rng.randint(1, 2))] + [
        -Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(n - 1)
    ]
    adapted = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    b, binv = _unimodular(rng, n)
    qmat = _congruence(adapted, binv)
    h = [b[i][0] for i in range(n)]
    if rng.random() < 0.2:
        kappa = _small_fraction(rng)
        v = [kappa * x for x in h]
    else:
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return {
        "id_cls": f"n{n}",
        "args": {"q": _mat(qmat), "h": [str(x) for x in h], "v": [str(x) for x in v]},
        "expect": {"code": 0, "holds": True},
    }


def _tiny_ring(rng: random.Random, turn: int, vid: str, workdir: Path) -> dict:
    exps = ((1, 1), (2,), (1, 2))[turn % 3]
    rank = sum(exps) + rng.randint(0, 1)
    mus = [_csv(p) for p in partitions(rank, 2)]
    text, facts = _ring_scenario(rng, exps, rank, mus, ("1,1",), turn)
    (workdir / f"{vid}.scn").write_text(text)
    cmd = RING_COMMANDS[(turn // 3) % 3]
    return _ring_verdict(vid, vid, cmd, facts, f"proj({_csv(exps)}):{cmd}")


def _refusal(rng: random.Random, turn: int, vid: str, workdir: Path):
    """Inputs the CLI must refuse, each with its exact exit code."""
    kind = turn % 6
    if kind == 0:
        rank = rng.randint(2, 4)
        return ["schur", f"{rank + 1},1", "--rank", str(rank)], 2, "schur-bad-rank"
    if kind == 1:
        return ["nef2", "--", "0", "8", "0", "0", "0", f"{rng.randint(1, 9)}.5"], 2, "nef2-float"
    if kind == 2:
        return ["nef2", str(rng.randint(0, 9)), "1", "2"], 2, "nef2-arity"
    if kind == 3:
        (workdir / f"{vid}.scn").write_text(
            f"[model]\nmodel = proj(2)\n\n[bundle]\nroot = 1\nroots = {rng.randint(1, 5)}\n"
        )
        return ["ring-eval", {"file": f"{vid}.scn"}], 2, "scenario-unknown-key"
    if kind == 4:
        (workdir / f"{vid}.scn").write_text(
            "[model]\nmodel = proj(2,2)\n\n[bundle]\nroot = 1,1\nroot = 1,2\nroot = 2,1\n\n"
            f"[task logconcave]\nmu = 2,1\nh = 1,{rng.randint(1, 3)}\n"
        )
        return ["logconcave", {"file": f"{vid}.scn"}], 3, "logconcave-rank-below-dim"
    (workdir / f"{vid}.scn").write_text(
        "[model]\nmodel = proj(1,1)\n\n[bundle]\nroot = 1,0\nroot = 1,1\n\n"
        f"[task hi2]\nh = 1,1\nalpha = {rng.randint(-2, 2)},1\n"
    )
    return ["hi2", {"file": f"{vid}.scn"}], 3, "hi2-not-ample"


def _gen_small(seed: int, workdir: Path):
    schedule = _small_schedule()

    def make(rng, prefix, slots):
        out = []
        turn = dict.fromkeys(SMALL_COUNTS, 0)
        for n, kind in enumerate(slots):
            t = turn[kind]
            turn[kind] += 1
            vid = f"{prefix}{n:04d}"
            item = {"id": vid, "kind": "cli"}
            if kind == "nef2":
                sub = NEF2_TYPES[t % len(NEF2_TYPES)]
                item["argv"], item["expect"] = _nef2(rng, sub)
                item["cls"] = f"nef2:{sub}"
            elif kind == "schur":
                lam = SCHUR_PARTITIONS[t % len(SCHUR_PARTITIONS)]
                item["argv"], item["expect"] = _schur(rng, lam)
                item["cls"] = f"schur:w{sum(lam)}"
            elif kind in ("block", "hodge"):
                size = 2 + t % 7
                data = _block(rng, size) if kind == "block" else _hodge(rng, size)
                item.update(kind="api", fn=kind, args=data["args"], expect=data["expect"])
                item["cls"] = f"{kind}:{data['id_cls']}"
            elif kind == "tiny-ring":
                item = _tiny_ring(rng, t, vid, workdir)
            elif kind == "refusal":
                argv, code, label = _refusal(rng, t, vid, workdir)
                item.update(argv=argv, expect={"code": code, "refusal": True}, cls=f"refusal:{label}")
            else:
                width = HL_WIDTHS[t % len(HL_WIDTHS)]
                item["argv"] = ["--machine", "hl-scan"] + (["--width", width] if width else [])
                item["expect"] = {"code": 0, "hl_width": width or "1/1000000"}
                item["cls"] = f"hl-scan:{width or 'default'}"
            out.append(item)
        return out

    warm_slots = list(SMALL_COUNTS)  # one verdict of each kind
    warm = make(_rng("small-certs", "warmup"), "w", warm_slots)
    pool_slots = [schedule[i % len(schedule)] for i in range(POOL_SIZE["small-certs"])]
    pool = make(_rng("small-certs", f"timed:{seed}"), "t", pool_slots)
    return warm, pool


_GENERATORS = {"hr-forms": _gen_hr_forms, "ring-logconcave": _gen_ring, "small-certs": _gen_small}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into ``workdir``; return the spec."""
    workdir.mkdir(parents=True, exist_ok=True)
    warm, pool = _GENERATORS[workload](seed, workdir)
    return {"workload": workload, "seed": seed, "warmup": warm, "pool": pool}
