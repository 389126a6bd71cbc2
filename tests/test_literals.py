"""One literal grammar for every number a user types.

Each key that reads a number, in a scenario file or on the command line,
is crossed with the literals the grammar refuses: a scenario refuses them
with a ``ScenarioError`` at the key's line and column, the command line
with exit 2.  A few accepted spellings must keep their value.
"""

from fractions import Fraction

import pytest

from schurcert.cli import main
from schurcert.errors import ScenarioError
from schurcert.forms import hermitian_form
from schurcert.gaussian import GaussianRational
from schurcert.partitions import Partition
from schurcert.rings import proj
from schurcert.scenario import parse

LONG = "9" * 5000
REFUSED = ["1_0", "٣", "1.5", "1e3", "3/00", LONG]
NATURAL_ONLY = ["+3"]

RING = "[model]\nmodel = proj(1)\n\n[bundle]\nroot = 1\n"
# Rank 10, so that a part or an order read as 10 from "1_0" fits.
RANK_10 = "[model]\nmodel = proj(1)\n\n[bundle]\n" + "root = 1\n" * 10
HR = "[hermitian a]\nrow = 1\n\n[task hr-check]\nreference = a\n"

# key -> (scenario text with the literal at {x}, (line, column) of that key,
# whether the key reads naturals)
SCENARIO_KEYS = {
    "root": ("[model]\nmodel = proj(1)\n\n[bundle]\n  root = {x}\n", (5, 3), False),
    "twist": (RING + "twist = {x}\n", (6, 1), False),
    "h": (RING + "\n[task logconcave]\nmu = 1\n h = {x}\n", (9, 2), False),
    "alpha": (RING + "\n[task hi2]\nh = 1\nalpha = {x}\n", (9, 1), False),
    "row": ("[hermitian a]\n  row = {x}\n", (2, 3), False),
    "coefficient": (HR + "dimension = 1\ncombination = {x}*a\n", (7, 1), False),
    "dimension": (HR + "dimension = {x}\ncombination = a\n", (6, 1), True),
    "hr-check-schur": (HR + "dimension = 1\nforms = a\nschur = {x}\n", (8, 1), True),
    "ring-eval-schur": (RANK_10 + "\n[task ring-eval]\n  schur = {x}\n", (17, 3), True),
    "mu": (RANK_10 + "\n[task logconcave]\nmu = {x}\nh = 1\n", (17, 1), True),
    "derived-partition": (RANK_10 + "\n[task ring-eval]\nderived = {x} / 0\n", (17, 1), True),
    "derived-order": (RANK_10 + "\n[task ring-eval]\nderived = 9,1 / {x}\n", (17, 1), True),
    "power": (HR + "dimension = 1\ncombination = a^{x}\n", (7, 1), True),
    "proj": ("\n[model]\nmodel = proj({x})\n", (3, 1), True),
}


def _cases(keys):
    return [
        pytest.param(key, literal, id=f"{key}-{'long' if literal == LONG else literal}")
        for key, (*_, natural) in keys.items()
        for literal in REFUSED + (NATURAL_ONLY if natural else [])
    ]


@pytest.mark.parametrize("key, literal", _cases(SCENARIO_KEYS))
def test_scenario_refuses_literal_at_its_key(key, literal):
    text, where, _ = SCENARIO_KEYS[key]
    with pytest.raises(ScenarioError) as exc:
        parse(text.format(x=literal))
    assert (exc.value.line, exc.value.column) == where


@pytest.mark.parametrize(
    "text, read, value",
    [
        (RING.replace("root = 1", "root = +3"), lambda sc: sc.bundle.roots[0],
         proj(1).degree_one([3])),
        (RING.replace("root = 1", "root = -3/4"), lambda sc: sc.bundle.roots[0],
         proj(1).degree_one([Fraction(-3, 4)])),
        ("[model]\nmodel = proj( 7 )\n", lambda sc: sc.model, proj(7)),
        (RING + "[task ring-eval]\nderived =  1 /  1 \n",
         lambda sc: sc.tasks["ring-eval"]["derived"], [(Partition([1]), 1)]),
        ("[hermitian a]\nrow = 2, 0+1i\nrow = 0-1i, 2\n", lambda sc: sc.forms["a"],
         hermitian_form([[2, GaussianRational(0, 1)], [GaussianRational(0, -1), 2]])),
        ("[hermitian a]\nrow = 2, 1 - 3/4 i\nrow = 1+3/4i, +2\n", lambda sc: sc.forms["a"],
         hermitian_form([[2, GaussianRational(1, Fraction(-3, 4))],
                         [GaussianRational(1, Fraction(3, 4)), 2]])),
    ],
    ids=["signed-integer", "signed-fraction", "blank-natural", "blank-derived",
         "gaussian-unit", "gaussian-blanks"],
)
def test_scenario_accepted_literals_keep_their_value(text, read, value):
    assert read(parse(text)) == value


# key -> (argv with the literal at {x}, whether the argument is a natural)
ARGV_KEYS = {
    "nef2": (["nef2", "--", "0", "8", "0", "0", "0", "{x}"], False),
    "width": (["hl-scan", "--width", "{x}"], False),
    "schur-partition": (["schur", "{x}", "--rank", "20"], True),
    "rank": (["schur", "1", "--rank", "{x}"], True),
    "derived": (["schur", "5,5", "--rank", "10", "--derived", "{x}"], True),
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusals
        return exc.code


@pytest.mark.parametrize("key, literal", _cases(ARGV_KEYS))
def test_command_line_refuses_literal(capsys, key, literal):
    argv = [arg.replace("{x}", literal) for arg in ARGV_KEYS[key][0]]
    assert _exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["nef2", "--", "0", "8", "0", "0", "0", "+3"], ["nef2", "0", "8", "0", "0", "0", "3"]),
        (["nef2", "--", "-3/4", "8", "0", "0", "0", "3"],
         ["nef2", "--", "-6/8", "8", "0", "0", "0", "3"]),
        (["hl-scan", "--width", " +1/100 "], ["hl-scan", "--width", "1/100"]),
        (["schur", " 2 , 1 ", "--rank", " 3 ", "--derived", " 1 "],
         ["schur", "2,1", "--rank", "3", "--derived", "1"]),
    ],
    ids=["nef2-plus", "nef2-negative-fraction", "width-blanks", "schur-blanks"],
)
def test_command_line_accepted_literals_keep_their_value(capsys, argv, same_as):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main(same_as) == 0
    assert out == capsys.readouterr().out
