from fractions import Fraction

import pytest

from schurcert.errors import ScenarioError
from schurcert.forms import hermitian_form
from schurcert.gaussian import GaussianRational
from schurcert.partitions import Partition
from schurcert.rings import abelian_square, proj
from schurcert.scenario import parse

FULL = """
# a complete scenario
[model]
model = proj(2,3)

[bundle]
root = 1,0
root = 1,0
root = 0,1
twist = 0,0

[hermitian omega1]
row = 1, 0
row = 0, 1

[hermitian omega2]
row = 1/7, 0+1i
row = 0-1i, 2

[task hr-check]
dimension = 2
reference = omega1
combination = omega1^2 + 7/2*omega2^2

[task logconcave]
mu = 2,1
h = 1,1

[task hi2]
h = 1,1
alpha = 1,-1

[task ring-eval]
schur = 2,1
derived = 3 / 1
"""


def test_parse_full_scenario():
    sc = parse(FULL)
    assert sc.model == proj(2, 3)
    x1, x2 = (sc.model.generator(i) for i in range(2))
    assert sc.bundle.roots == (x1, x1, x2)
    assert set(sc.forms) == {"omega1", "omega2"}
    assert sc.forms["omega2"] == hermitian_form(
        [[Fraction(1, 7), GaussianRational(0, 1)], [GaussianRational(0, -1), 2]]
    )
    task = sc.tasks["hr-check"]
    assert task["dimension"] == 2
    assert task["reference"] == "omega1"
    assert task["combination"] == (
        (Fraction(1), (("omega1", 2),)),
        (Fraction(7, 2), (("omega2", 2),)),
    )
    assert sc.tasks["logconcave"]["mu"] == Partition([2, 1])
    assert sc.tasks["ring-eval"]["schur"] == [Partition([2, 1])]
    assert sc.tasks["ring-eval"]["derived"] == [(Partition([3]), 1)]


def test_materialization():
    sc = parse(FULL)
    assert sc.model.dimension == 5
    assert sc.bundle.rank == 3
    h = sc.forms["omega2"]
    assert h.dim == 2


def test_unknown_key_is_an_error_with_location():
    text = "[model]\nmodel = proj(2)\nrubbish = 1\n"
    with pytest.raises(ScenarioError) as exc:
        parse(text)
    assert exc.value.line == 3
    assert "rubbish" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError):
        parse("[mystery]\n")
    with pytest.raises(ScenarioError):
        parse("[task warp]\n")


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioError):
        parse("[model]\nmodel = proj(2)\n[model]\nmodel = proj(2)\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError):
        parse("[model]\nmodel = proj(2)\nmodel = proj(2)\n")


def test_float_literals_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse("[bundle]\nroot = 1.5, 2\n")
    assert "float" in str(exc.value)


@pytest.mark.parametrize("coeff", ["1.5", "1e1", "3E2"])
def test_float_coefficient_in_combination_rejected(coeff):
    text = (
        "[hermitian a]\nrow = 1\n\n[task hr-check]\ndimension = 1\nreference = a\n"
        f"combination = {coeff}*a^2\n"
    )
    with pytest.raises(ScenarioError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (7, 1)
    assert coeff in str(exc.value)


@pytest.mark.parametrize("pair", ["type = proj", "exponents = 2,3"])
def test_model_takes_only_the_model_key(pair):
    with pytest.raises(ScenarioError) as exc:
        parse(f"[model]\n  {pair}\n")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert "unknown key" in str(exc.value)


@pytest.mark.parametrize("exps", ["²", "2,³", "0", "+3", "1_0", "x"])
def test_model_exponent_must_be_a_positive_decimal(exps):
    # A superscript digit passes str.isdigit but not int(): it is refused
    # at its key like any other bad exponent, not with a crash.
    with pytest.raises(ScenarioError) as exc:
        parse(f"[model]\nmodel = proj({exps})\n")
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert "positive integer exponents" in str(exc.value)


def test_stray_pair_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse("seed = 3\n")
    assert exc.value.line == 1


def test_bad_hermitian_matrix_rejected():
    with pytest.raises(ScenarioError):
        parse("[hermitian h]\nrow = 1, 2\nrow = 3\n")
    with pytest.raises(ScenarioError):
        parse("[hermitian]\nrow = 1\n")


def test_logconcave_mu_weight_must_equal_the_rank():
    text = (
        "[model]\nmodel = proj(2,2)\n\n"
        "[bundle]\nroot = 1,1\nroot = 2,1\nroot = 1,2\nroot = 3,2\nroot = 2,3\n\n"
        "[task logconcave]\nh = 1,1\n  mu = 4\n"
    )
    with pytest.raises(ScenarioError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (13, 3)
    assert "partition weight 4 must equal the rank 5" in str(exc.value)


def test_hr_check_schur_weight_at_most_the_dimension():
    text = (
        "[hermitian a]\nrow = 1\n\n[hermitian b]\nrow = 2\n\n"
        "[task hr-check]\ndimension = 1\nreference = a\nforms = a, b\n  schur = 1,1\n"
    )
    with pytest.raises(ScenarioError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (11, 3)
    assert "weight 2 vanishes beyond dimension 1" in str(exc.value)


# Two forms on C^2: the dimension bounds the powers a combination may take.
HR_PAIR = (
    "[hermitian a]\nrow = 1, 0\nrow = 0, 1\n\n[hermitian b]\nrow = 2, 0\nrow = 0, 2\n\n"
    "[task hr-check]\ndimension = 2\nreference = a\n"
)


@pytest.mark.parametrize(
    "combination, message",
    [
        ("a^2 + a^3000000", "power 3000000 of 'a' vanishes beyond dimension 2"),
        ("2*a*b^3", "power 3 of 'b' vanishes beyond dimension 2"),
    ],
    ids=["huge-power", "power-in-a-product"],
)
def test_hr_check_power_at_most_the_dimension(combination, message):
    # A (1,1)-form to a power above d is zero; the power is refused at the
    # combination's line before any wedge is taken.
    with pytest.raises(ScenarioError) as exc:
        parse(HR_PAIR + f"  combination = {combination}\n")
    assert (exc.value.line, exc.value.column) == (12, 3)
    assert message in str(exc.value)


def test_abelian_model_roundtrip():
    text = "[model]\nmodel = abelian_square\n"
    sc = parse(text)
    assert sc.model == abelian_square()
    assert sc.model.dimension == 4


def test_combination_with_products_and_signs():
    text = HR_PAIR + "combination = 2*a*b - 1/3*b^2\n"
    sc = parse(text)
    combo = sc.tasks["hr-check"]["combination"]
    assert combo == (
        (Fraction(2), (("a", 1), ("b", 1))),
        (Fraction(-1, 3), (("b", 2),)),
    )


@pytest.mark.parametrize(
    "combination, coefficients",
    [
        ("a^2*-3 + 4*a^2", (Fraction(-3), Fraction(4))),
        ("a^2*+3", (Fraction(3),)),
        ("a^2 * -3/4 - a*b", (Fraction(-3, 4), Fraction(-1))),
        ("+3*a", (Fraction(3),)),
        ("-3/4*a", (Fraction(-3, 4),)),
        ("a + -3*b", (Fraction(1), Fraction(-3))),
        # A term's sign is the product of its run of signs, after + or - alike.
        ("a - -3*b", (Fraction(1), Fraction(3))),
        ("a - + b", (Fraction(1), Fraction(-1))),
        ("- -a", (Fraction(1),)),
        ("a + -b", (Fraction(1), Fraction(-1))),
        ("+ -a", (Fraction(-1),)),
        ("a + + b", (Fraction(1), Fraction(1))),
    ],
    ids=["minus-after-star", "plus-after-star", "fraction-after-star", "leading-plus",
         "leading-minus", "sign-after-plus", "minus-minus", "minus-plus",
         "leading-minus-minus", "plus-minus", "leading-plus-minus", "plus-plus"],
)
def test_sign_after_star_belongs_to_the_coefficient(combination, coefficients):
    combo = parse(HR_PAIR + f"combination = {combination}\n").tasks["hr-check"]["combination"]
    assert tuple(coeff for coeff, _ in combo) == coefficients


HR_TASK = "[hermitian a]\nrow = 1\n\n[task hr-check]\ndimension = 1\nreference = a\n"
RING_EVAL = "[model]\nmodel = proj(1)\n\n" + "[bundle]\n" + "root = 1\n" * 3 + "\n[task ring-eval]\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # A combination factor is a form name only if its base is an identifier.
        (HR_TASK + "combination = ٣*a\n", "line 7, column 1: bad coefficient '٣'"),
        (HR_TASK + "combination = (a)\n", "line 7, column 1: bad coefficient '(a)'"),
        # A run of signs with no factor after it is an empty term.
        (HR_TASK + "combination = a +\n", "line 7, column 1: empty term in combination"),
        (HR_TASK + "combination = a -\n", "line 7, column 1: empty term in combination"),
        # A partition holds no '/', so the order is everything after the first.
        (RING_EVAL + "derived = 1 / 3/00\n", "line 10, column 1: bad derived order '3/00'"),
    ],
    ids=["non-ascii-coefficient", "parenthesised-name", "trailing-plus", "trailing-minus",
         "fraction-order"],
)
def test_refusal_names_the_bad_part_of_an_entry(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("header", ["[bundle]", "[hermitian h]", "[model]"])
def test_empty_section_reports_its_header_line(header):
    with pytest.raises(ScenarioError) as exc:
        parse(f"\n\n{header}\n")
    assert (exc.value.line, exc.value.column) == (3, 1)
