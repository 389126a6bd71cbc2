import time
from fractions import Fraction

import pytest

import schurcert.cli as cli
import schurcert.forms as forms
import schurcert.rings as rings
import schurcert.scenario as scenario
from schurcert.chernpoly import MAX_FIRST_PART
from schurcert.cli import main
from schurcert.errors import ScenarioError
from schurcert.forms import PQForm
from schurcert.scenario import parse

REMARK_SCENARIO = """
[hermitian omega1]
row = 1, 0, 0, 0
row = 0, 1, 0, 0
row = 0, 0, 1, 0
row = 0, 0, 0, 1

[hermitian omega2]
row = 1/7, 0, 0, 0
row = 0, 1/7, 0, 0
row = 0, 0, 2, 0
row = 0, 0, 0, 2

[task hr-check]
dimension = 4
reference = omega1
combination = omega1^2 + {a}*omega2^2
"""


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSchurCommand:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, ["schur", "2,1", "--rank", "3"])
        assert code == 0 and out.strip() == "polynomial=c1*c2 - c3"

    def test_derived(self, capsys):
        code, out, _ = run(
            capsys, ["schur", "1,1,1", "--rank", "3", "--derived", "2"]
        )
        assert code == 0 and out.strip() == "polynomial=10*c1"

    def test_zero_partition(self, capsys):
        code, out, _ = run(capsys, ["schur", "0", "--rank", "5"])
        assert code == 0 and out.strip() == "polynomial=1"

    def test_validation_exit_code(self, capsys):
        code, out, err = run(capsys, ["schur", "4,1", "--rank", "3"])
        assert code == 2 and out == "" and "invalid" in err

    def test_too_many_parts_exits_2(self, capsys):
        code, out, err = run(capsys, ["schur", ",".join(["1"] * 17), "--rank", "17"])
        assert code == 2 and out == "" and "supported up to 16 parts" in err

    def test_machine_flag(self, capsys):
        code, out, _ = run(capsys, ["--machine", "schur", "2,1", "--rank", "3"])
        assert code == 0 and out.strip() == "polynomial=c1*c2 - c3"

    def test_main_keeps_no_state_between_calls(self, capsys):
        # One parser serves every call: an option, a refusal or a flag of
        # one call must not leak into the next.
        code, out, _ = run(capsys, ["schur", "2,1", "--rank", "3", "--derived", "1"])
        assert code == 0 and out.strip() == "polynomial=2*c1^2 + 2*c2"
        code, out, _ = run(capsys, ["schur", "2,1", "--rank", "3"])
        assert code == 0 and out.strip() == "polynomial=c1*c2 - c3"
        with pytest.raises(SystemExit) as exc:
            main(["schur", "2,1", "--rank", "three"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, ["schur", "1,1,1", "--rank", "3", "--derived", "2"])
        assert code == 0 and out.strip() == "polynomial=10*c1" and err == ""
        code, out, _ = run(capsys, ["--machine", "schur", "2,1", "--rank", "3"])
        assert code == 0 and out.strip() == "polynomial=c1*c2 - c3"


class TestHrCheck:
    def write(self, tmp_path, a):
        path = tmp_path / "scn.txt"
        path.write_text(REMARK_SCENARIO.format(a=a))
        return str(path)

    def test_middle_window(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["--machine", "hr-check", self.write(tmp_path, "7/2")]
        )
        assert code == 0
        assert "inertia=(2,0,14)" in out and "hr=false" in out and "hl=true" in out

    def test_at_zero(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["--machine", "hr-check", self.write(tmp_path, "0")])
        assert code == 0
        assert "inertia=(1,0,15)" in out and "hr=true" in out

    def test_degenerate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["--machine", "hr-check", self.write(tmp_path, "49/12")]
        )
        assert code == 0
        assert "hl=false" in out

    def test_internal_fault_propagates(self, tmp_path, monkeypatch):
        # A non-real volume unit makes every top integral non-real: an
        # arithmetic fault of the program, not malformed input (exit 2).
        # The Gram plans of both dimensions are built before the fault, so
        # the unit must be applied when a plan is read, not cached in it.
        path = self.write(tmp_path, "0")
        assert main(["hr-check", path]) == 0
        forms.hr_gram(PQForm.one(2))
        monkeypatch.setattr(forms, "_volume_unit", lambda dim: (0, 1))
        with pytest.raises(RuntimeError, match="internal: non-real Gram entry"):
            main(["hr-check", path])
        with pytest.raises(RuntimeError, match="internal: non-real Gram entry"):
            forms.hr_gram(PQForm.one(2))

    def test_non_kahler_reference_exits_3(self, capsys, tmp_path):
        text = (
            "[hermitian bad]\nrow = 1, 0, 0\nrow = 0, -1, 0\nrow = 0, 0, 1\n\n"
            "[task hr-check]\ndimension = 3\nreference = bad\ncombination = bad\n"
        )
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 3 and out == "" and "Kaehler" in err

    def test_wrong_bidegree_exits_3(self, capsys, tmp_path):
        text = (
            "[hermitian w]\nrow = 1, 0\nrow = 0, 1\n\n"
            "[task hr-check]\ndimension = 2\nreference = w\ncombination = w\n"
        )
        path = tmp_path / "deg.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 3 and out == "" and "(0,0)" in err

    @pytest.mark.parametrize(
        "combination, power",
        [("omega1^2 + omega1^3000000", 3000000), ("omega1^5", 5)],
        ids=["huge", "one-above"],
    )
    def test_power_above_the_dimension_exits_2(self, capsys, tmp_path, combination, power):
        path = tmp_path / "power.txt"
        path.write_text(
            REMARK_SCENARIO.replace("omega1^2 + {a}*omega2^2", combination)
        )
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 2 and out == ""
        assert f"line 17, column 1: power {power} of 'omega1' vanishes beyond dimension 4" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("[hermitian h]\nrows = 1\n")
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 2 and out == "" and "line 2" in err

    @pytest.mark.parametrize("a", ["1.5", "1e1"])
    def test_float_coefficient_exits_2(self, capsys, tmp_path, a):
        code, out, err = run(capsys, ["hr-check", self.write(tmp_path, a)])
        assert code == 2 and out == ""
        assert "line 17, column 1" in err and a in err

    def test_zero_denominator_exits_2(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text(
            "[hermitian h]\nrow = 1/0\n\n"
            "[task hr-check]\ndimension = 1\nreference = h\ncombination = h\n"
        )
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 2 and out == ""
        assert "line 2, column 1" in err and "1/0" in err

    def test_schur_form_route(self, capsys, tmp_path):
        text = (
            "[hermitian w1]\nrow = 1, 0, 0, 0\nrow = 0, 1, 0, 0\n"
            "row = 0, 0, 1, 0\nrow = 0, 0, 0, 1\n\n"
            "[hermitian w2]\nrow = 2, 0, 0, 0\nrow = 0, 1, 0, 0\n"
            "row = 0, 0, 3, 0\nrow = 0, 0, 0, 1\n\n"
            "[task hr-check]\ndimension = 4\nreference = w1\n"
            "schur = 1,1\nforms = w1, w2\n"
        )
        path = tmp_path / "schur.txt"
        path.write_text(text)
        code, out, _ = run(capsys, ["--machine", "hr-check", str(path)])
        assert code == 0 and "hr=true" in out

    @pytest.mark.parametrize(
        "d, lam, e", [(4, "2", 2), (5, "2,1", 2), (6, "2,2", 3), (6, "1,1,1,1", 4)]
    )
    def test_linear_case_schur_forms_are_hr(self, capsys, tmp_path, d, lam, e):
        # Ross-Toma's linear case through the scenario keys: w_k is the
        # tridiagonal Kaehler form with k + 2 on the diagonal and i above it.
        def rows(k):
            off = {0: str(k + 2), 1: "0+1i", -1: "0-1i"}
            return "".join(
                "row = " + ", ".join(off.get(j - i, "0") for j in range(d)) + "\n"
                for i in range(d)
            )

        names = [f"w{k}" for k in range(1, e + 1)]
        path = tmp_path / "linear.txt"
        path.write_text(
            "".join(f"[hermitian w{k}]\n{rows(k)}\n" for k in range(1, e + 1))
            + f"[task hr-check]\ndimension = {d}\nreference = w1\n"
            + f"schur = {lam}\nforms = {', '.join(names)}\n"
        )
        code, out, _ = run(capsys, ["hr-check", str(path)])
        assert code == 0
        assert f"inertia=(1,0,{d * d - 1})" in out and "hr=true" in out

    def test_dimension_above_limit_exits_2(self, capsys, tmp_path):
        # A matrix above size 8 is refused at its section header.
        d = 9
        rows = "".join(
            "row = " + ", ".join("1" if i == j else "0" for j in range(d)) + "\n"
            for i in range(d)
        )
        path = tmp_path / "big.txt"
        path.write_text(
            f"[hermitian w]\n{rows}\n"
            f"[task hr-check]\ndimension = {d}\nreference = w\ncombination = w^7\n"
        )
        code, out, err = run(capsys, ["hr-check", str(path)])
        assert code == 2 and out == ""
        assert "dimension 9 out of the supported range 1..8" in err
        assert "line 1, column 1" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = self.write(tmp_path, "13/4")
        argv = ["--machine", "hr-check", path]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestNef2:
    def test_boundary(self, capsys):
        code, out, _ = run(capsys, ["nef2", "0", "8", "0", "0", "0", "3"])
        assert code == 0
        assert "member=true" in out and "boundary=true" in out

    def test_above_boundary(self, capsys):
        code, out, _ = run(capsys, ["nef2", "0", "8", "0", "0", "0", "4"])
        assert code == 0
        assert "member=false" in out and "failed=[quartic]" in out

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, ["nef2", "0", "8", "0", "0", "0", "3.5"])
        assert code == 2 and "float" in err


class TestRingEval:
    SCN = (
        "[model]\nmodel = proj(2,3)\n\n"
        "[bundle]\nroot = 1,0\nroot = 1,0\nroot = 0,1\n\n"
        "[task ring-eval]\nschur = 1,1,1\nderived = 3 / 1\n"
    )

    def test_chern_listing(self, capsys, tmp_path):
        path = tmp_path / "ring.txt"
        path.write_text(self.SCN)
        code, out, _ = run(capsys, ["ring-eval", str(path)])
        assert code == 0
        assert "c1=2*x1 + x2" in out
        assert "schur(1,1,1)=3*x1^2*x2 + 2*x1*x2^2 + x2^3" in out

    def test_missing_bundle_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nobundle.txt"
        path.write_text("[model]\nmodel = proj(2)\n")
        code, _, err = run(capsys, ["ring-eval", str(path)])
        assert code == 2 and "root" in err

    def test_result_too_long_to_print_exits_2(self, capsys, tmp_path):
        # Each root is accepted, but c2 has about 6000 digits: more than
        # Python converts to text.
        big = "7" * 3000
        path = tmp_path / "huge.txt"
        path.write_text(
            f"[model]\nmodel = proj(2,2)\n\n[bundle]\nroot = {big},1\nroot = 1,{big}\n"
            f"root = {big},{big}\n"
        )
        code, out, err = run(capsys, ["ring-eval", str(path)])
        assert code == 2 and out == ""
        assert err == "error: a result has more than 4300 digits\n"

    def test_other_value_errors_propagate(self, monkeypatch):
        def fault(args):
            raise ValueError("internal")

        monkeypatch.setitem(cli._COMMANDS, "ring-eval", fault)
        with pytest.raises(ValueError, match="internal"):
            main(["ring-eval", "unused.txt"])

    def test_type_and_exponents_keys_exit_2(self, capsys, tmp_path):
        path = tmp_path / "oldmodel.txt"
        path.write_text("[model]\ntype = proj\nexponents = 2\n")
        code, out, err = run(capsys, ["ring-eval", str(path)])
        assert code == 2 and out == ""
        assert "line 2, column 1" in err and "'type'" in err


class TestLogconcaveAndHi2:
    SCN = (
        "[model]\nmodel = proj(2,2)\n\n"
        "[bundle]\nroot = 1,1\nroot = 2,1\nroot = 1,2\nroot = 3,2\nroot = 2,3\n\n"
        "[task logconcave]\nmu = 5\nh = 1,1\n\n"
        "[task hi2]\nh = 1,1\nalpha = 1,-1\n"
    )

    def test_logconcave(self, capsys, tmp_path):
        path = tmp_path / "lc.txt"
        path.write_text(self.SCN)
        code, out, _ = run(capsys, ["logconcave", str(path)])
        assert code == 0
        assert "strict=true" in out
        assert out.count("f(") == 5  # d+1 values for d=4

    def test_hi2(self, capsys, tmp_path):
        path = tmp_path / "hi2.txt"
        path.write_text(self.SCN)
        code, out, _ = run(capsys, ["hi2", str(path)])
        assert code == 0
        assert "holds=true" in out and "equality=false" in out

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "hi2",
                "[model]\nmodel = abelian_square\n\n"
                "[bundle]\nroot = 1,1,1\nroot = 1,0,1\nroot = 0,1,1\n\n"
                "[task hi2]\nh = 1,1,1\nalpha = 1,-1,0\n",
                "ampleness criterion needs a projective-product model",
            ),
            (
                "logconcave",
                SCN.replace("root = 1,2\n", "root = 1,-2\n"),
                "bundle fails the positivity (ampleness) criterion",
            ),
            (
                "hi2",
                SCN.replace("[task hi2]\nh = 1,1", "[task hi2]\nh = 1,0"),
                "reference class is not ample (positive degree-1)",
            ),
            (
                "hi2",
                "[model]\nmodel = proj(2,2)\n\n[bundle]\nroot = 1,1\nroot = 1,2\n\n"
                "[task hi2]\nh = 1,1\nalpha = 1,0\n",
                "rank 2 too small: the inequality needs rank >= 3",
            ),
            (
                "hi2",
                "[model]\nmodel = proj(1)\n\n[bundle]\nroot = 1\n\n"
                "[task hi2]\nh = 1\nalpha = 1\n",
                "dimension 1 too small: the inequality needs d >= 2",
            ),
        ],
        ids=[
            "hi2-abelian-model", "logconcave-non-ample-bundle", "hi2-non-ample-h",
            "hi2-rank-below-dim", "hi2-dimension-one",
        ],
    )
    def test_ampleness_refusals_exit_3(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "refused.txt"
        path.write_text(text)
        code, out, err = run(capsys, [command, str(path)])
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["hi2", "logconcave"])
    def test_model_over_the_monomial_bound_exits_2_at_its_key(self, capsys, tmp_path, command):
        # proj(1^11) has 2048 monomials, one factor over rings.MAX_MONOMIALS;
        # its verdicts would take seconds, its refusal takes none.
        ones = ",".join("1" * 11)
        path = tmp_path / "large.txt"
        path.write_text(
            f"[model]\n  model = proj({ones})\n\n[bundle]\n"
            + f"root = {ones}\n" * 11
            + f"\n[task hi2]\nh = {ones}\nalpha = 1,-1{',0' * 9}\n"
            + f"\n[task logconcave]\nmu = 11\nh = {ones}\n"
        )
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: line 2, column 3: ")
        assert f"more than {rings.MAX_MONOMIALS} monomials" in err


class TestRunawayInputs:
    """The first part of a derived partition and a bundle's rank are bounded
    at their keys; past either bound the verdict would take seconds, and the
    refusal exits 2 at once."""

    WIDE = MAX_FIRST_PART + 1

    def timed(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        return err

    def test_derived_schur_first_part_exits_2(self, capsys):
        w = self.WIDE
        err = self.timed(capsys, ["schur", str(w), "--rank", str(w), "--derived", str(w // 2)])
        assert err == (
            f"error: partition {w} has first part {w}; "
            f"derived Schur classes are supported up to first part {MAX_FIRST_PART}\n"
        )
        code, _, _ = run(capsys, ["schur", str(w - 1), "--rank", str(w), "--derived", "6"])
        assert code == 0

    @pytest.mark.parametrize(
        "command, task, where",
        [
            ("logconcave", "[task logconcave]\n  mu = {w}\nh = 1\n", "column 3"),
            ("ring-eval", "[task ring-eval]\nderived = {w},1 / 7\n", "column 1"),
        ],
        ids=["logconcave-mu", "ring-eval-derived"],
    )
    def test_first_part_exits_2_at_its_key(self, capsys, tmp_path, command, task, where):
        w = self.WIDE
        rank = w + (command == "ring-eval")
        path = tmp_path / "wide.txt"
        path.write_text(
            f"[model]\nmodel = proj({w})\n[bundle]\n" + "root = 1\n" * rank
            + task.format(w=w)
        )
        err = self.timed(capsys, [command, str(path)])
        assert err.startswith(f"error: line {rank + 5}, {where}: partition {w}")
        assert f"first part {MAX_FIRST_PART}" in err

    @pytest.mark.parametrize("command", ["hi2", "logconcave", "ring-eval"])
    def test_rank_exits_2_at_the_first_root_past_the_bound(self, capsys, tmp_path, command):
        path = tmp_path / "long.txt"
        path.write_text(
            "[model]\nmodel = proj(1,1)\n\n[bundle]\n"
            + "root = 1,1\n" * scenario.MAX_ROOTS
            + "  root = 1,2\n" * 3
            + "\n[task hi2]\nh = 1,1\nalpha = 1,-1\n"
            + "\n[task logconcave]\nmu = 1\nh = 1,1\n\n[task ring-eval]\nschur = 1\n"
        )
        err = self.timed(capsys, [command, str(path)])
        assert err == (
            f"error: line {scenario.MAX_ROOTS + 5}, column 3: "
            f"a bundle has at most {scenario.MAX_ROOTS} roots\n"
        )


class TestHlScan:
    def test_default_width(self, capsys):
        code, out, _ = run(capsys, ["hl-scan"])
        assert code == 0
        assert "det_first_sign=-" in out and "det_second_sign=+" in out

    def test_custom_width(self, capsys):
        code, out, _ = run(capsys, ["hl-scan", "--width", "1/100"])
        assert code == 0

    def test_width_below_the_floor_exits_2(self, capsys):
        code, out, err = run(capsys, ["hl-scan", "--width", f"1/{10**301}"])
        assert code == 2 and out == "" and "at least 1/10^300" in err


class TestPaperRepro:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, ["paper-repro"])
        assert code == 0
        assert out.count("status=pass") == 6
        assert out.splitlines()[-1] == "overall=pass"

    def test_machine_output(self, capsys):
        code, out, _ = run(capsys, ["--machine", "paper-repro"])
        assert code == 0
        assert "overall=pass" in out

    def test_list(self, capsys):
        code, out, _ = run(capsys, ["paper-repro", "--list"])
        assert code == 0
        assert out == (
            "signature-family: inertia of the dim-4 two-square pencil over the "
            "real (1,1) space\n"
            "boundary-class-gram: Gram matrix, signature and cone membership of "
            "the boundary class 8*th1*th2 + 3*lam^2\n"
            "hl-failure-scan: grade-2 pencil on the triple projective plane: "
            "determinant signs and an isolated singular parameter\n"
            "pencil-gram-p2p3: two-generator pencil Gram matrix [[t,2t],[2t,1+2t]] "
            "and its signature at t=1/4\n"
            "derived-schur-table: all 20 low-degree derived-Schur identities at "
            "ranks 3, 4, 5\n"
            "quad-integral-table: the hard-coded quadruple integrals of the "
            "abelian fourfold model\n"
        )

    def test_corrupted_integral_table_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(
            rings.ABELIAN_QUAD_INTEGRALS, (2, 2, 0), Fraction(5)
        )
        code, out, _ = run(capsys, ["paper-repro"])
        assert code == 1
        assert "example=boundary-class-gram status=fail" in out
        assert "example=quad-integral-table status=fail" in out
        assert out.splitlines()[-1] == "overall=fail"
        gram = [[0, 28, 0], [28, 0, 0], [0, 0, 40]]
        assert [line for line in out.splitlines() if line.startswith("detail=")] == [
            f"detail=gram is {[[Fraction(x) for x in row] for row in gram]}",
            "detail=th1^2 th2^2: 5 != 4",
        ]

    def test_seed_flag_and_section_are_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "paper-repro", "--list"])
        assert exc.value.code == 2
        with pytest.raises(ScenarioError) as err:
            parse("\n[scenario]\nseed = 7\n")
        assert err.value.line == 2 and "[scenario]" in str(err.value)


class TestSingleRendering:
    """Every subcommand prints the same key=value block with or without --machine."""

    @pytest.mark.parametrize(
        "command",
        [
            ["hr-check", "{remark}"],
            ["nef2", "0", "8", "0", "0", "0", "3"],
            ["hi2", "{ring}"],
            ["logconcave", "{ring}"],
            ["hl-scan"],
            ["schur", "2,1", "--rank", "3"],
            ["paper-repro"],
        ],
        ids=lambda command: command[0],
    )
    def test_machine_flag_changes_nothing(self, capsys, tmp_path, command):
        remark = tmp_path / "remark.txt"
        remark.write_text(REMARK_SCENARIO.format(a="7/2"))
        ring = tmp_path / "ring.txt"
        ring.write_text(TestLogconcaveAndHi2.SCN)
        argv = [arg.format(remark=remark, ring=ring) for arg in command]
        code, out, _ = run(capsys, argv)
        machine_code, machine_out, _ = run(capsys, ["--machine"] + argv)
        assert code == machine_code == 0
        assert out and out == machine_out
        assert all("=" in line for line in out.splitlines())


@pytest.mark.parametrize(
    "command, scenario",
    [
        ("ring-eval", TestRingEval.SCN),
        ("logconcave", TestLogconcaveAndHi2.SCN),
        ("hi2", TestLogconcaveAndHi2.SCN),
    ],
    ids=["ring-eval", "logconcave", "hi2"],
)
def test_chern_recurrence_runs_once_per_verdict(
    capsys, tmp_path, monkeypatch, command, scenario
):
    calls = []
    recurrence = rings.elementary_symmetric

    def counted(*args, **kwargs):
        calls.append(1)
        return recurrence(*args, **kwargs)

    monkeypatch.setattr(rings, "elementary_symmetric", counted)
    path = tmp_path / "scn.txt"
    path.write_text(scenario)
    code, _, _ = run(capsys, [command, str(path)])
    assert code == 0
    assert len(calls) == 1


HR_ONE = "[hermitian a]\nrow = 1\n\n[task hr-check]\ndimension = 1\nreference = a\n"
RING_22 = (
    "[model]\nmodel = proj(2,2)\n\n"
    "[bundle]\nroot = 1,1\nroot = 2,1\nroot = 1,2\nroot = 3,2\nroot = 2,3\n\n"
)
RANK_2 = "[model]\nmodel = proj(2,2)\n\n[bundle]\nroot = 1,1\nroot = 2,1\n\n"
HR_TWO = "[hermitian a]\nrow = 1\n\n[hermitian b]\nrow = 1\n\n"


def hr_identity(d: int, combination: str) -> str:
    """An hr-check of ``combination`` in the identity form ``a`` of size d;
    the combination is on line d + 6."""
    rows = "".join(
        "row = " + ", ".join("1" if j == k else "0" for k in range(d)) + "\n"
        for j in range(d)
    )
    return (
        f"[hermitian a]\n{rows}\n[task hr-check]\ndimension = {d}\nreference = a\n"
        f"combination = {combination}\n"
    )


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("hr-check", HR_ONE + "combination = .5*a\n", "line 7, column 1"),
        ("hr-check", HR_ONE + "combination = 2*a*b\n", "line 7, column 1"),
        ("hr-check", HR_ONE.replace("reference = a", "reference = b") + "combination = a\n",
         "line 6, column 1"),
        ("hr-check", HR_ONE + "schur = 1\n  forms = a, b\n", "line 8, column 3"),
        ("hr-check", HR_ONE.replace("dimension = 1\n", "") + "combination = a\n",
         "line 4, column 1"),
        ("logconcave", RING_22 + "  [task logconcave]\nmu = 5\n", "line 11, column 3"),
        ("hi2", RING_22 + "[task hi2]\nh = 1,1\n", "line 11, column 1"),
        ("logconcave", RING_22 + "[task logconcave]\nh = 1,1\n", "line 11, column 1"),
        ("hi2", RING_22 + "[task hi2]\nh = 1,1,1\nalpha = 1,-1\n", "line 12, column 1"),
        ("hr-check", HR_ONE.replace("dimension = 1", "dimension = 2") + "combination = a\n",
         "line 6, column 1"),
        ("hr-check",
         REMARK_SCENARIO.format(a="7/2") + "\n[hermitian b]\nrow = 1, 2\nrow = 3, 4\n",
         "line 19, column 1"),
        # Another task's broken section refuses the whole file.
        ("logconcave",
         RING_22 + "[task logconcave]\nmu = 5\nh = 1,1\n\n[task hi2]\nh = 1,1\n",
         "line 15, column 1"),
        # A repeated key's error names its own entry, not the last one.
        ("ring-eval", RANK_2 + "[task ring-eval]\nschur = 3\nschur = 1\n", "line 9, column 1"),
        ("ring-eval", RANK_2 + "[task ring-eval]\nderived = 2 / 1\n  derived = 1 / 5\n",
         "line 10, column 3"),
        # More parts than chernpoly.MAX_PARTS are refused at the key, not
        # when the Schur class is computed.
        ("ring-eval", RANK_2 + "[task ring-eval]\nschur = 1\n  schur = " + ",".join("1" * 17)
         + "\n", "line 10, column 3"),
        # So is a derived class whose Lascoux sum needs a Schur class of 17 parts.
        ("ring-eval", RANK_2 + "[task ring-eval]\nschur = 1\n  derived = 2,"
         + ",".join("1" * 16) + " / 1\n", "line 10, column 3"),
        ("hr-check",
         HR_TWO + "[task hr-check]\ndimension = 1\nreference = a\nschur = 3\nforms = a, b\n",
         "line 10, column 1"),
        ("hr-check",
         "  [hermitian w-1]\nrow = 1\n\n"
         "[task hr-check]\ndimension = 1\nreference = w-1\ncombination = w-1^0\n",
         "line 1, column 3"),
        # Terms of different degrees are refused at the key, before any wedge.
        ("hr-check", hr_identity(3, "a^0 + a"), "line 9, column 1"),
        ("hr-check", hr_identity(4, "a^2 + a"), "line 10, column 1"),
        ("hr-check", hr_identity(4, "a*a - 2*a^2 + 3*a"), "line 10, column 1"),
    ],
    ids=[
        "float-coefficient", "combination-name", "reference-name", "forms-name",
        "no-dimension", "no-h", "no-alpha", "no-mu", "h-length", "form-size",
        "unreferenced-non-hermitian", "other-task-broken", "ring-eval-partition-rank",
        "derived-order", "ring-eval-schur-parts", "ring-eval-derived-parts",
        "hr-check-partition-rank", "form-name-not-identifier", "mixed-degree-0-1",
        "mixed-degree-2-1", "mixed-degree-after-equal-terms",
    ],
)
def test_broken_scenario_names_its_line(capsys, tmp_path, command, text, where):
    path = tmp_path / "broken.txt"
    path.write_text(text)
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and out == ""
    assert where in err
