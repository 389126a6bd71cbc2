"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything runs in exact rational arithmetic; "tolerance" is exact equality
except where an explicit rational isolation width is stated.  Randomized
suites are seeded and deterministic.
"""

import math
import random
from fractions import Fraction

from conftest import (
    TwistPoly,
    chord_strict_oracle,
    derived_schur_oracle,
    hl_pencil_det_oracle,
    on_twisted_generators,
    partitions_of,
    schur_bialternant_oracle,
)
from instances import (
    random_ample_bundle,
    random_ample_class,
    random_block_instance,
    random_pd_hermitian,
    random_vector,
    rng_for,
)

from schurcert.certify import (
    block_form_check,
    discrete_logconcave,
    hl_failure_scan,
    khovanskii_teissier_sequence,
    nef2_membership,
    Nef2Coefficients,
    schur_logconcavity_report,
)
from schurcert.chernpoly import (
    derived_schur,
    schur,
)
from schurcert.forms import (
    diagonal_form,
    hodge_riemann_verdict,
    schur_form,
    wedge,
)
from schurcert.inertia import inertia_triple, rational_det, restrict_to_kernel
from schurcert.partitions import Partition
from schurcert.qpoly import QPoly
from schurcert.repro import _low_degree_identity_table
from schurcert.rings import (
    GradedClass,
    SplitBundle,
    abelian_square,
    chern,
    gram_on_h11,
    integrate,
    multiply,
    proj,
    schur_class,
)

MASTER_SEED = 0xC0FFEE


def _verdict(cid: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}")
    assert not failures, f"{cid}: " + "; ".join(failures)


def test_criterion_01_signature_family():
    failures = []
    w1 = diagonal_form([1, 1, 1, 1])
    w2 = diagonal_form([Fraction(1, 7), Fraction(1, 7), 2, 2])
    sq1 = wedge(w1, w1)
    sq2 = wedge(w2, w2)
    for a in (Fraction(0), Fraction(1), Fraction(2), Fraction(9, 2), Fraction(100)):
        rep = hodge_riemann_verdict(sq1 + sq2 * a, w1)
        if rep.triple != (1, 0, 15):
            failures.append(f"a={a}: {rep.triple} != (1,0,15)")
    for a in (Fraction(3), Fraction(49, 12)):
        rep = hodge_riemann_verdict(sq1 + sq2 * a, w1)
        if rep.triple[1] < 1:
            failures.append(f"a={a}: expected a degenerate pairing, got {rep.triple}")
    for a in (Fraction(13, 4), Fraction(7, 2), Fraction(4)):
        rep = hodge_riemann_verdict(sq1 + sq2 * a, w1)
        if rep.triple != (2, 0, 14):
            failures.append(f"a={a}: {rep.triple} != (2,0,14)")
    _verdict("01 signature-family", failures)


def test_criterion_02_boundary_class():
    failures = []
    coeffs = Nef2Coefficients.of(0, 8, 0, 0, 0, 3)
    gram = gram_on_h11(coeffs.to_class(abelian_square()))
    expected = [
        [Fraction(0), Fraction(20), Fraction(0)],
        [Fraction(20), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(40)],
    ]
    if gram != expected:
        failures.append(f"gram {gram} != 20*[[0,1,0],[1,0,0],[0,0,2]]")
    triple = inertia_triple(gram)
    if triple != (2, 0, 1):
        failures.append(f"inertia {triple} != (2,0,1)")
    if rational_det(gram) >= 0:
        failures.append("determinant is not negative")
    verdict = nef2_membership(coeffs)
    if not verdict.member:
        failures.append("boundary class rejected from the cone")
    if not verdict.quartic_identically_zero:
        failures.append("quartic condition does not hold with identical equality")
    _verdict("02 boundary-class", failures)


def test_criterion_03_hl_failure_scan():
    failures = []
    scan = hl_failure_scan(Fraction(1, 10**6))
    if not scan.det_first < 0:
        failures.append(f"first determinant {scan.det_first} not negative")
    if not scan.det_second > 0:
        failures.append(f"second determinant {scan.det_second} not positive")
    lo, hi = scan.interval
    if not (0 < lo < hi):
        failures.append(f"isolated interval ({lo},{hi}) not positive")
    if not hi - lo < Fraction(1, 10**6):
        failures.append(f"interval width {hi - lo} >= 1e-6")
    if hl_pencil_det_oracle(lo) * hl_pencil_det_oracle(hi) > 0:
        failures.append("isolated interval does not bracket a sign change")
    _verdict("03 hl-failure-scan", failures)


def test_criterion_04_p2p3_pencil():
    failures = []
    model = proj(2, 3)
    a_cls, b_cls = model.generator(0), model.generator(1)
    bundle = SplitBundle(model, (a_cls, a_cls, b_cls))
    g0 = gram_on_h11(chern(bundle, 3))
    g1 = gram_on_h11(schur_class(bundle, Partition([1, 1, 1])))
    slope = [[g1[i][j] - g0[i][j] for j in range(2)] for i in range(2)]
    if g0 != [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]:
        failures.append(f"constant coefficient {g0}")
    if slope != [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(2)]]:
        failures.append(f"t coefficient {slope}")
    t = Fraction(1, 4)
    gt = [[g0[i][j] + t * slope[i][j] for j in range(2)] for i in range(2)]
    triple = inertia_triple(gt)
    if triple != (2, 0, 0):
        failures.append(f"inertia at t=1/4 is {triple}")
    _verdict("04 p2p3-pencil", failures)


def test_criterion_05_low_degree_table():
    failures = []
    for e in (3, 4, 5):
        for label, got, want in _low_degree_identity_table(e):
            if got != want:
                failures.append(f"e={e} {label}")
    _verdict("05 derived-schur-low-degree-table", failures)


def test_criterion_06_schur_class_hodge_riemann():
    failures = []
    checked = 0
    trial = 0
    dims = [(2, 2), (1, 3), (1, 1, 2), (1, 1, 1, 1), (2, 3), (1, 1, 3), (1, 2, 2)]
    while checked < 50:
        rng = rng_for(MASTER_SEED, trial)
        trial += 1
        model = proj(*dims[trial % len(dims)])
        d = model.dimension
        rank = rng.randint(2, 6)
        pool = [lam for lam in partitions_of(d - 2, rank)]
        if not pool:
            continue
        lam = pool[rng.randrange(len(pool))]
        bundle = random_ample_bundle(rng, model, rank)
        h = random_ample_class(rng, model)
        cls = schur_class(bundle, lam)
        gram = gram_on_h11(cls)
        k = len(model.gen_names)
        triple = inertia_triple(gram)
        if triple != (1, 0, k - 1):
            failures.append(
                f"trial {trial}: inertia {triple} != (1,0,{k - 1}) "
                f"on {model!r}, lam={lam.format()}, rank={rank}"
            )
        positivity = integrate(multiply(multiply(cls, h), h))
        if not positivity > 0:
            failures.append(f"trial {trial}: positivity integral {positivity} <= 0")
        checked += 1
    assert checked >= 50
    _verdict("06 schur-class-hodge-riemann (50 seeded instances)", failures)


def test_criterion_07_pair_chain_hodge_riemann():
    failures = []
    for d in (3, 4, 5):
        for i in range(25):
            rng = rng_for(MASTER_SEED + d, i)
            w1 = random_pd_hermitian(rng, d)
            w2 = random_pd_hermitian(rng, d)
            omega = schur_form(Partition([1] * (d - 2)), [w1, w2])
            rep = hodge_riemann_verdict(omega, w1)
            if not rep.hr_flag:
                failures.append(f"d={d} instance {i}: verdict {rep.triple}")
    _verdict("07 kahler-pair-chain (25 instances per dimension)", failures)


def test_criterion_08_schur_number_logconcavity():
    failures = []
    checked = 0
    trial = 0
    dims = [(2,), (1, 2), (2, 2), (1, 1, 2), (2, 3)]
    while checked < 25:
        rng = rng_for(MASTER_SEED * 3, trial)
        trial += 1
        model = proj(*dims[trial % len(dims)])
        d = model.dimension
        rank = rng.randint(d, d + 2)
        mu_pool = list(partitions_of(rank, rank))
        mu = mu_pool[rng.randrange(len(mu_pool))]
        bundle = random_ample_bundle(rng, model, rank)
        h = random_ample_class(rng, model)
        rep = schur_logconcavity_report(bundle, mu, h)
        if not rep.positive:
            failures.append(f"trial {trial}: nonpositive value {rep.values}")
        if not rep.strict:
            failures.append(f"trial {trial}: midpoint inequality fails {rep.values}")
        if not chord_strict_oracle(rep.values):
            failures.append(f"trial {trial}: chord condition fails {rep.values}")
        checked += 1
    assert checked >= 25
    _verdict("08 schur-number-logconcavity (25 seeded instances)", failures)


def test_criterion_09_block_form_suite():
    failures = []
    for i in range(100):
        rng = rng_for(MASTER_SEED * 7, i)
        rho = rng.randint(2, 6)
        inst = random_block_instance(rng, rho)
        v = random_vector(rng, rho)
        res = block_form_check(inst, v)
        if not res.holds:
            failures.append(f"instance {i}: inequality fails")
        if res.equality != res.v_is_zero:
            failures.append(f"instance {i}: equality without v=0")
        kernel = inertia_triple(restrict_to_kernel(inst.q_v, inst.phi))
        if res.kernel_inertia != (0, 0, rho - 1) or res.kernel_inertia != kernel:
            failures.append(
                f"instance {i}: kernel inertia {res.kernel_inertia}, restricted {kernel}"
            )
        res0 = block_form_check(inst, [Fraction(0)] * rho)
        if not (res0.equality and res0.holds):
            failures.append(f"instance {i}: v=0 should give equality")
    _verdict("09 block-form (100 seeded instances)", failures)


def _elementary_values(xs):
    e = len(xs)
    elem = {0: Fraction(1)}
    for k in range(1, e + 1):
        import itertools

        elem[k] = sum(
            (math.prod(sub, start=Fraction(1)) for sub in itertools.combinations(xs, k)),
            Fraction(0),
        )
    return elem


def _poly_at_points(poly, elem):
    total = Fraction(0)
    for cs, coeff in poly.terms.items():
        total += coeff * math.prod((elem[k] for k in cs), start=Fraction(1))
    return total


def test_criterion_10_oracle_equivalence():
    failures = []
    # Jacobi-Trudi vs alternant-quotient agreement on 200 random instances.
    checked = 0
    trial = 0
    while checked < 200:
        rng = rng_for(MASTER_SEED * 11, trial)
        trial += 1
        e = rng.randint(1, 5)
        weight = rng.randint(0, 6)
        pool = list(partitions_of(weight, e))
        if not pool:
            continue
        lam = pool[rng.randrange(len(pool))]
        xs = []
        while len(xs) < e:
            x = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            if x not in xs:
                xs.append(x)
        via_jt = _poly_at_points(schur(lam, e), _elementary_values(xs))
        via_alternant = schur_bialternant_oracle(lam, xs)
        if via_jt != via_alternant:
            failures.append(f"trial {trial}: {lam.format()} at {xs}")
        checked += 1
    assert checked >= 200

    # Derived classes (Lascoux's sum) against the twisted determinant,
    # e <= 4 and |mu| <= 4.
    for e in range(1, 5):
        for weight in range(0, 5):
            for mu in partitions_of(weight, e):
                for i in range(weight + 1):
                    if derived_schur(mu, e, i) != derived_schur_oracle(mu, e, i):
                        failures.append(
                            f"derived class differs at mu={mu.format()}, e={e}, i={i}"
                        )

    # Shift identity over the twist variable d, for all |mu| <= 4, e <= 4.
    for e in range(1, 5):
        for weight in range(0, 5):
            for mu in partitions_of(weight, e):
                for i in range(weight + 1):
                    lhs = on_twisted_generators(derived_schur(mu, e, i), e)
                    rhs = TwistPoly(
                        e,
                        {k - i: derived_schur(mu, e, k) * math.comb(k, i)
                         for k in range(i, weight + 1)},
                    )
                    if lhs != rhs:
                        failures.append(
                            f"shift identity fails at mu={mu.format()}, e={e}, i={i}"
                        )
    _verdict("10 oracle-equivalence (200 evaluations + identities)", failures)


def test_criterion_11_factorization_and_kt_recovery():
    failures = []
    for d in (3, 4, 5):
        for i in range(25):
            rng = rng_for(MASTER_SEED * 13 + d, i)
            w1 = random_pd_hermitian(rng, d)
            w2 = random_pd_hermitian(rng, d)
            chain = schur_form(Partition([1] * (d - 2)), [w1, w2])
            if w1 ** (d - 1) - w2 ** (d - 1) != wedge(w1 - w2, chain):
                failures.append(f"factorization fails at d={d}, instance {i}")
    # Khovanskii-Teissier recovery on random ample degree-1 pairs.
    dims = [(2, 2), (1, 3), (1, 1, 2), (2, 3), (1, 2)]
    checked = 0
    trial = 0
    while checked < 25:
        rng = rng_for(MASTER_SEED * 17, trial)
        trial += 1
        model = proj(*dims[trial % len(dims)])
        alpha = random_ample_class(rng, model)
        beta = random_ample_class(rng, model)
        kappa = None
        if all(b != 0 for b in beta.coeffs):
            ratios = {a / b for a, b in zip(alpha.coeffs, beta.coeffs)}
            kappa = ratios.pop() if len(ratios) == 1 else None
        if kappa is not None:
            continue  # proportional pairs are the borderline case
        seq = khovanskii_teissier_sequence(alpha, beta)
        if any(v <= 0 for v in seq):
            failures.append(f"trial {trial}: nonpositive intersection number")
        elif not discrete_logconcave(seq):
            failures.append(f"trial {trial}: sequence {seq} not strictly log-concave")
        checked += 1
    assert checked >= 25
    _verdict("11 factorization-and-kt-recovery", failures)


def test_criterion_12_schur_classes_on_proj_1_10():
    # The theorem on the largest ring instance: every s_lambda(E) with
    # lambda |- d - 2 = 8 of one ample rank-10 split bundle over
    # (P^1)^10 is Hodge-Riemann on H^{1,1}.
    failures = []
    rng = rng_for(MASTER_SEED, 12)
    model = proj(*[1] * 10)
    roots = [GradedClass(model, 1, [rng.randint(1, 3) for _ in range(10)]) for _ in range(10)]
    bundle = SplitBundle(model, roots)
    assert bundle.is_ample()
    h = GradedClass(model, 1, [1] * 10)
    h2 = multiply(h, h)
    lams = list(partitions_of(8))
    for lam in lams:
        cls = schur_class(bundle, lam)
        triple = inertia_triple(gram_on_h11(cls))
        if triple != (1, 0, 9):
            failures.append(f"lam={lam.format()}: inertia {triple} != (1,0,9)")
        positivity = integrate(multiply(cls, h2))
        if not positivity > 0:
            failures.append(f"lam={lam.format()}: positivity integral {positivity} <= 0")
    assert len(lams) == 22
    _verdict("12 schur-classes-on-proj-1^10 (22 partitions of 8)", failures)


def test_criterion_13_linear_case_sweep():
    # The linear case of Ross-Toma: for Kaehler forms w_1..w_e and every
    # lambda |- d - 2 with lambda_1 <= e, the Schur form s_lambda(w) is
    # Hodge-Riemann with respect to any Kaehler reference, here w_1.
    failures = []
    checked = 0
    for d in (4, 5, 6):
        for lam in partitions_of(d - 2):
            for e in range(lam.max_part, d + 1):
                rng = rng_for(MASTER_SEED + 13, checked)
                forms = [random_pd_hermitian(rng, d) for _ in range(e)]
                rep = hodge_riemann_verdict(schur_form(lam, forms), forms[0])
                checked += 1
                if not rep.hr_flag:
                    failures.append(f"d={d} lam={lam.format()} e={e}: verdict {rep.triple}")
    assert checked == 7 + 12 + 23
    _verdict("13 linear-case-sweep (42 Schur forms, d = 4..6)", failures)
