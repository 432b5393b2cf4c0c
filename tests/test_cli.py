import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from folgerm import cli, germs, theorems
from folgerm.cli import main
from folgerm.documents import (
    DocumentError,
    load_local_problem,
    load_projective_problem,
    parse_document,
    render_document,
)
from folgerm.polynomials import Poly, parse_poly

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIVISOR_FIXTURES = ("cusp.fol", "fk5.fol", "node.fol", "radial.fol")


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocuments:
    def test_round_trip(self):
        sections = {
            "foliation": {"P": "-y", "Q": "x"},
            "divisor": {"zero": "x*y*(x-y)", "pole": "x+y"},
        }
        assert parse_document(render_document(sections)) == sections

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\n[foliation]\n# inner\nP = -y\n\nQ = x\n"
        assert parse_document(text) == {"foliation": {"P": "-y", "Q": "x"}}

    def test_duplicate_key_rejected(self):
        with pytest.raises(DocumentError, match="line 3"):
            parse_document("[foliation]\nP = -y\nP = x\n")

    def test_key_before_section_rejected(self):
        with pytest.raises(DocumentError, match="before any section"):
            parse_document("P = -y\n")

    def test_local_problem_with_parameters(self):
        sections = parse_document(
            "[foliation]\nP = -a*y\nQ = x\n[parameters]\na = 3\n"
        )
        problem = load_local_problem(sections)
        assert str(problem.germ.P) == "-3*y"

    def test_override_beats_file(self):
        sections = parse_document(
            "[foliation]\nP = -a*y\nQ = x\n[parameters]\na = 3\n"
        )
        problem = load_local_problem(sections, {"a": Fraction(1, 2)})
        assert str(problem.germ.P) == "-1/2*y"

    def test_one_problem_kind_per_document(self):
        sections = parse_document(
            "[foliation]\nP = -y\nQ = x\n[projective]\nA = y*z\nB = x*z\nC = x*y\n"
        )
        with pytest.raises(DocumentError, match="exactly one"):
            load_local_problem(sections)

    def test_unknown_section_rejected(self):
        sections = parse_document("[foliation]\nP = -y\nQ = x\n[extra]\na = 1\n")
        with pytest.raises(DocumentError, match="unknown section"):
            load_local_problem(sections)

    def test_points_parsed(self):
        sections = parse_document(
            "[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\n"
            "points = 1:0:0; 0:1:0\n"
        )
        problem = load_projective_problem(sections)
        assert [str(p) for p in problem.points] == ["[1 : 0 : 0]", "[0 : 1 : 0]"]

    def test_rational_digit_bound_in_parameters_and_points(self):
        # Fraction("1e99999999") would compute 10^99999999 before any bound
        text = "[foliation]\nP = lam*y\nQ = x\n[parameters]\nlam = 1e4299\n"
        assert load_local_problem(parse_document(text)).germ.P == parse_poly("y", 2) * 10**4299
        for value in ("1e4300", "1e99999999", "1" * 4301):
            sections = parse_document(text.replace("1e4299", value))
            with pytest.raises(DocumentError) as err:
                load_local_problem(sections)
            assert str(err.value) == f"parameter 'lam': {value!r} has more than 4300 digits"
        sections = parse_document(
            "[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\npoints = 1:0:0; 1e-99999999:1:0\n"
        )
        with pytest.raises(DocumentError, match=r"^point '1e-99999999:1:0': '1e-99999999' has mo"):
            load_projective_problem(sections)

    def test_bad_point_rejected(self):
        sections = parse_document(
            "[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\npoints = 1:0\n"
        )
        with pytest.raises(DocumentError, match="triple"):
            load_projective_problem(sections)


class TestLocalCommands:
    def test_invariants_radial(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "radial.fol")
        assert code == 0
        report = parse_document(out)
        assert report["report"]["verdict"] == "pass"
        data = report["data"]
        assert data["mu"] == "1"
        assert data["mu_oracle"] == "1"
        assert data["tau"] == "1"
        assert data["nu_zero"] == "3"
        assert data["nu_pole"] == "1"
        assert data["i_polar_pole"] == "1"
        assert data["i_zero_pole"] == "3"
        assert data["delta"] == "0"
        assert data["xi"] == "0"
        assert data["second_type"] == "true"

    @pytest.mark.parametrize(
        "P, Q, mu",
        [
            # high degree, low mu
            ("y + x^32", "x", "1"),
            ("y^2 - x^31", "x*y", "33"),
        ],
    )
    def test_invariants_oracle_needs_no_cap(self, capsys, tmp_path, P, Q, mu):
        doc = tmp_path / "high_degree.fol"
        doc.write_text(f"[foliation]\nP = {P}\nQ = {Q}\n")
        code, out, err = run(capsys, "invariants", doc)
        assert (code, err) == (0, "")
        report = parse_document(out)
        assert report["report"]["verdict"] == "pass"
        assert report["data"]["mu"] == report["data"]["mu_oracle"] == mu

    def test_oracle_disagreement_is_an_engine_inconsistency(self, capsys, monkeypatch):
        # mu and mu_oracle come from independent routes; a disagreement is
        # an engine fault, not a verdict: exit 4 with both values on stderr
        # and no traceback, under python -O too
        monkeypatch.setattr(cli, "intersection_at_origin", lambda f, g: 2)
        code, out, err = run(capsys, "invariants", FIXTURES / "radial.fol")
        assert (code, out) == (4, "")
        assert err == (
            "error: engine inconsistency: the resultant gives mu_oracle = 2 "
            "but the standard basis gives mu = 1\n"
        )

    @pytest.mark.parametrize("name", ["fk20", "seven_parabolas"])
    def test_invariants_on_large_germs_in_two_seconds(self, capsys, tmp_path, name):
        # fk(20) has mu = 780; the df of the seven parabolas y = t*x + x^2
        # has degree 13.  The oracle and the polar's intersection numbers
        # are resultants, and no Macaulay matrix of that size is built for them.
        if name == "fk20":
            k = 20
            P, Q = (
                f"y*(2*x^{2 * k - 2}+4*x^2*y^{k - 2}-y^{k - 1})",
                f"x*(y^{k - 1}-2*x^2*y^{k - 2}-x^{2 * k - 2})",
            )
            zero, mu = "x*y", k * (2 * k - 1)
        else:
            f = Poly.constant(2, 1)
            for t in ("1", "2", "1/2", "3", "1/3", "3/2", "2/3"):
                f = f * parse_poly(f"y - {t}*x - x^2", 2)
            P, Q, zero, mu = f.diff(0), f.diff(1), f, 36
        doc = tmp_path / f"{name}.fol"
        doc.write_text(f"[foliation]\nP = {P}\nQ = {Q}\n[divisor]\nzero = {zero}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", doc)
        assert time.perf_counter() - start < 2.0
        assert (code, err) == (0, "")
        data = parse_document(out)["data"]
        assert data["mu"] == data["mu_oracle"] == str(mu)

    def test_check_bs_radial_passes(self, capsys):
        code, out, _ = run(capsys, "check-bs", FIXTURES / "radial.fol")
        assert code == 0
        assert "verdict = pass" in out

    def test_check_bs_fk5_fails(self, capsys):
        code, out, _ = run(
            capsys, "check-bs", FIXTURES / "fk5.fol", "--param", "lambda=1"
        )
        assert code == 1
        report = parse_document(out)
        assert report["report"]["verdict"] == "fail"
        assert report["data"]["mu"] == "45"

    def test_check_liu_radial(self, capsys):
        code, out, _ = run(capsys, "check-liu", FIXTURES / "radial.fol")
        assert code == 0
        assert "verdict = pass" in out

    def test_check_cota_radial(self, capsys):
        code, out, _ = run(capsys, "check-cota", FIXTURES / "radial.fol")
        assert code == 0
        report = parse_document(out)
        assert report["data"]["lhs"] == "1"
        assert report["data"]["equality_expected"] == "true"

    def test_check_second_type_cusp(self, capsys):
        code, out, _ = run(capsys, "check-second-type", FIXTURES / "cusp.fol")
        assert code == 0
        assert "verdict = pass" in out

    def test_reduce_cusp(self, capsys):
        code, out, _ = run(capsys, "reduce", FIXTURES / "cusp.fol")
        assert code == 0
        report = parse_document(out)
        assert report["data"]["blowups"] == "3"
        assert report["data"]["second_type"] == "true"
        assert report["data"]["generalized_curve"] == "true"

    def test_reduce_node(self, capsys):
        code, out, _ = run(capsys, "reduce", FIXTURES / "node.fol")
        assert code == 0
        report = parse_document(out)
        assert report["data"]["blowups"] == "2"

    @pytest.mark.parametrize(
        "P, Q, blowups",
        [
            # a singular point at y = 7917120512/111964521321 on a chart
            ("-9*x^5 + 3/2*x^2*y^2 + 8*y^2 + 7/3*x", "-5/2*x*y", "17"),
            # a singular point at y = 20605498225/123100128 on a chart
            ("-3*x^4 + y^4 + 4*x*y^2 + 4/3*x*y", "-x^3 + 5/2*x^2", "15"),
        ],
    )
    def test_reduce_certifies_a_linear_residual(self, capsys, tmp_path, P, Q, blowups):
        doc = tmp_path / "linear_root.fol"
        doc.write_text(f"[foliation]\nP = {P}\nQ = {Q}\n")
        code, out, _ = run(capsys, "reduce", doc)
        assert code == 0
        report = parse_document(out)
        assert report["report"]["verdict"] == "pass"
        assert report["data"]["blowups"] == blowups

    @pytest.mark.parametrize("command", ["reduce", "check-second-type"])
    def test_600_blowup_chain(self, capsys, tmp_path, command):
        # The node x dy - 600*y dx needs one blow-up per unit of its ratio,
        # each at the corner that the last one made.
        doc = tmp_path / "node600.fol"
        doc.write_text("[foliation]\nP = -600*y\nQ = x\n[divisor]\nzero = x*y\n")
        code, out, err = run(capsys, command, doc, "--max-blowups", 1000)
        assert (code, err) == (0, "")
        report = parse_document(out)
        assert report["data"]["blowups"] == "600"
        if command == "check-second-type":
            assert report["data"]["reduction"] == "true"

    def test_check_bs_fk8_in_two_seconds(self, capsys, tmp_path):
        k = 8
        doc = tmp_path / "fk8.fol"
        doc.write_text(
            "[foliation]\n"
            f"P = y*(2*x^{2 * k - 2}+4*x^2*y^{k - 2}-y^{k - 1})\n"
            f"Q = x*(y^{k - 1}-2*x^2*y^{k - 2}-x^{2 * k - 2})\n"
            "[divisor]\nzero = x*y\n"
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "check-bs", doc)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        report = parse_document(out)
        assert report["report"]["verdict"] == "fail"
        assert report["data"]["mu"] == str(k * (2 * k - 1))

    @pytest.mark.parametrize("degree", [8, 10])
    def test_dense_hamiltonian_germs_in_two_seconds(self, capsys, tmp_path, degree):
        # df for dense f with x^d and y^d forced; every check proves P, Q,
        # the divisor and each polar pairwise coprime
        rng = random.Random(5)
        for draw in range(3):
            terms = {}
            for _ in range(rng.randint(10, 12)):
                while True:
                    e = (rng.randint(0, degree), rng.randint(0, degree))
                    if 2 <= sum(e) <= degree:
                        break
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for e, lead in (((degree, 0), (-9, -5, -2, 1, 3, 7)),
                            ((0, degree), (-7, -3, 1, 2, 5, 9))):
                terms[e] = Fraction(rng.choice(lead), rng.randint(1, 4))
            f = Poly(2, terms)
            doc = tmp_path / f"dense{draw}.fol"
            doc.write_text(
                f"[foliation]\nP = {f.diff(0)}\nQ = {f.diff(1)}\n"
                f"[divisor]\nzero = {f}\n"
            )
            for command in ("invariants", "check-cota", "check-bs"):
                start = time.perf_counter()
                code, _, err = run(capsys, command, doc)
                assert time.perf_counter() - start < 2.0, (command, f)
                assert (code, err) == (0, ""), (command, f)

    def test_reduce_blowup_limit(self, capsys):
        code, out, _ = run(
            capsys, "reduce", FIXTURES / "cusp.fol", "--max-blowups", "1"
        )
        assert code == 1
        assert "verdict = fail" in out


    @pytest.mark.parametrize("fixture", ["cusp", "fk5", "node", "radial"])
    def test_check_second_type_small_budget(self, capsys, fixture):
        for budget in (0, 1, 2):
            code, out, err = run(
                capsys,
                "check-second-type",
                FIXTURES / f"{fixture}.fol",
                "--max-blowups",
                budget,
            )
            assert code in (0, 1)
            assert err == ""
            assert "verdict = " in out


class TestProjectiveCommands:
    def test_validate(self, capsys):
        code, out, _ = run(
            capsys, "projective-validate", FIXTURES / "omega_lambda.fol"
        )
        assert code == 0
        report = parse_document(out)
        assert report["data"]["degree"] == "1"
        assert report["data"]["milnor_certified"] == "true"
        assert report["data"]["curve_invariant"] == "true"

    def test_validate_degenerate_parameter(self, capsys):
        for lam in ("0", "-1"):
            code, out, _ = run(
                capsys,
                "projective-validate",
                FIXTURES / "omega_lambda.fol",
                "--param",
                f"lambda={lam}",
            )
            assert code == 1
            assert "verdict = fail" in out

    def test_global_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "projective-global",
            FIXTURES / "omega_lambda.fol",
            "--param",
            "lambda=2",
        )
        assert code == 0
        report = parse_document(out)
        assert report["data"]["lower_bound"] == "2"
        assert report["data"]["tau_sum"] == "3"
        assert report["data"]["gsv_sum"] == "0"

    def test_global_needs_valid_form(self, capsys):
        code, _, err = run(
            capsys,
            "projective-global",
            FIXTURES / "omega_lambda.fol",
            "--param",
            "lambda=0",
        )
        assert code == 2
        assert "common factor" in err


class TestOutputModes:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "invariants", FIXTURES / "radial.fol", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "invariants"
        assert payload["verdict"] == "pass"
        assert payload["data"]["mu"] == 1

    def test_text_deterministic(self, capsys):
        _, first, _ = run(capsys, "check-cota", FIXTURES / "radial.fol")
        _, second, _ = run(capsys, "check-cota", FIXTURES / "radial.fol")
        assert first == second

    def test_json_deterministic(self, capsys):
        _, first, _ = run(
            capsys, "projective-global", FIXTURES / "omega_lambda.fol", "--json"
        )
        _, second, _ = run(
            capsys, "projective-global", FIXTURES / "omega_lambda.fol", "--json"
        )
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "check-bs", FIXTURES / "radial.fol", "--out", target
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert "verdict = pass" in text


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", "no_such_file.fol")
        assert code == 2
        assert "cannot read" in err

    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.txt"
        code, out, err = run(
            capsys, "invariants", FIXTURES / "cusp.fol", "--out", target
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not target.parent.exists()

    def test_rational_digit_bound_in_param(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "check-bs", FIXTURES / "cusp.fol", "--param", "lam=1e999999999"
        )
        assert (code, out) == (2, "")
        assert err == "error: --param lam: '1e999999999' has more than 4300 digits\n"
        doc = tmp_path / "lam.fol"
        doc.write_text("[foliation]\nP = lam*y\nQ = x\n[parameters]\nlam = 1e99999999\n")
        code, out, err = run(capsys, "invariants", doc)
        assert (code, out) == (2, "")
        assert err == "error: parameter 'lam': '1e99999999' has more than 4300 digits\n"

    def test_non_ascii_digit_is_an_input_error_with_a_column(self, capsys, tmp_path):
        doc = tmp_path / "digits.fol"
        doc.write_text("[foliation]\nP = -y\nQ = x^²\n", encoding="utf-8")
        code, out, err = run(capsys, "invariants", doc)
        assert (code, out) == (2, "")
        assert err == "error: [foliation] Q: expected an exponent (at column 3)\n"

    def test_bad_param(self, capsys):
        code, _, err = run(
            capsys, "check-bs", FIXTURES / "radial.fol", "--param", "lambda"
        )
        assert code == 2
        assert "NAME=VALUE" in err

    def test_local_command_on_projective_document(self, capsys):
        code, _, err = run(capsys, "invariants", FIXTURES / "omega_lambda.fol")
        assert code == 2
        assert "[foliation]" in err

    def test_projective_command_on_local_document(self, capsys):
        code, _, err = run(
            capsys, "projective-validate", FIXTURES / "radial.fol"
        )
        assert code == 2
        assert "[projective]" in err

    def test_malformed_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.fol"
        bad.write_text("[foliation]\nP - y\n")
        code, _, err = run(capsys, "invariants", bad)
        assert code == 2
        assert "line 2" in err

    def test_deeply_nested_parentheses(self, capsys, tmp_path):
        doc = tmp_path / "nested.fol"
        doc.write_text(f"[foliation]\nP = {'(' * 300}y{')' * 300}\nQ = x\n")
        code, out, err = run(capsys, "invariants", doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "parentheses nested deeper than 100" in err

    def test_huge_numeric_power(self, capsys, tmp_path):
        doc = tmp_path / "power.fol"
        doc.write_text("[foliation]\nP = y + 3^99999999999\nQ = x\n")
        code, out, err = run(capsys, "invariants", doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "numeric power has more than 4300 digits (at column 7)" in err

    def test_coefficient_past_the_digit_bound(self, capsys, tmp_path):
        doc = tmp_path / "coefficient.fol"
        doc.write_text("[foliation]\nP = -y\nQ = x\n[divisor]\nzero = 3^9000*3^9000*x*y\n")
        for command in ("check-bs", "invariants"):
            code, out, err = run(capsys, command, doc)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "zero: coefficient has more than 4300 digits (at column 1)" in err

    def test_check_needs_divisor(self, capsys, tmp_path):
        doc = tmp_path / "nodivisor.fol"
        doc.write_text("[foliation]\nP = -y\nQ = x\n")
        code, _, err = run(capsys, "check-bs", doc)
        assert code == 2
        assert "divisor" in err

    def test_global_needs_curve(self, capsys, tmp_path):
        doc = tmp_path / "nocurve.fol"
        doc.write_text("[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\n")
        code, _, err = run(capsys, "projective-global", doc)
        assert code == 2
        assert "curve" in err

    def test_global_needs_curve_before_the_form(self, capsys, tmp_path):
        # x*yz + y*2xz + z*xy = 4xyz: the Euler relation fails, but the
        # missing curve is the error reported.
        doc = tmp_path / "badform.fol"
        doc.write_text("[projective]\nA = y*z\nB = 2*x*z\nC = x*y\n")
        code, out, err = run(capsys, "projective-global", doc)
        assert (code, out, err) == (2, "", "error: projective-global needs a curve key\n")

    def test_global_without_curve_skips_the_form(self, capsys, monkeypatch, tmp_path):
        def refused(*args):
            raise AssertionError("validate_form ran on a document without a curve")

        monkeypatch.setattr(cli, "validate_form", refused)
        doc = tmp_path / "nocurve.fol"
        doc.write_text("[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\n")
        code, out, err = run(capsys, "projective-global", doc)
        assert (code, out, err) == (2, "", "error: projective-global needs a curve key\n")

    @pytest.mark.parametrize(
        "curve, message",
        [
            ("x*y*z + x", "projective curves must be homogeneous"),
            # homogeneity is checked first, also on a curve that is not reduced
            ("x^2*y*z + x^2", "projective curves must be homogeneous"),
            ("x^2*y*z", "the global bound concerns reduced curves"),
        ],
    )
    def test_global_curve_input_errors(self, capsys, tmp_path, curve, message):
        doc = tmp_path / "curve.fol"
        doc.write_text(f"[projective]\nA = y*z\nB = 2*x*z\nC = -3*x*y\ncurve = {curve}\n")
        code, out, err = run(capsys, "projective-global", doc)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command",
        [
            "invariants",
            "check-bs",
            "check-liu",
            "check-cota",
            "check-second-type",
            "reduce",
        ],
    )
    def test_non_isolated_singularity(self, capsys, tmp_path, command):
        # P = 0 leaves O/(P, Q) infinite: an input error, not a failed check.
        doc = tmp_path / "nonisolated.fol"
        doc.write_text("[foliation]\nP = 0\nQ = x\n[divisor]\nzero = x\n")
        code, out, err = run(capsys, command, doc)
        assert code == 2
        assert out == ""
        assert err == "error: the Milnor number of the foliation is infinite\n"

    def test_ill_posed_germ(self, capsys, tmp_path):
        doc = tmp_path / "shared.fol"
        doc.write_text("[foliation]\nP = x*y\nQ = x^2\n")
        code, _, err = run(capsys, "invariants", doc)
        assert code == 2
        assert "common factor" in err

    @pytest.mark.parametrize("command", ["invariants", "check-cota"])
    def test_regular_germ_has_no_polar(self, capsys, tmp_path, command):
        doc = tmp_path / "regular.fol"
        doc.write_text("[foliation]\nP = 0\nQ = 1\n[divisor]\nzero = y\n")
        code, out, err = run(capsys, command, doc)
        assert code == 2
        assert out == ""
        assert err == "error: the germ is regular: no polar passes through the origin\n"

    @pytest.mark.parametrize("command", ["reduce", "check-second-type"])
    def test_negative_blowup_budget_is_an_input_error(self, capsys, command):
        code, out, err = run(
            capsys, command, FIXTURES / "cusp.fol", "--max-blowups", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "error: the blow-up budget must be at least 0, got -1\n"

    @pytest.mark.parametrize(
        "name, message",
        [
            ("x", "parameter 'x' is a variable name"),
            ("z", "parameter 'z' is a variable name"),
            ("2a", "parameter '2a' is not a name"),
            ("a-b", "parameter 'a-b' is not a name"),
        ],
    )
    def test_unreadable_parameter_name_in_document(
        self, capsys, tmp_path, name, message
    ):
        doc = tmp_path / "named.fol"
        doc.write_text(
            "[foliation]\nP = -y\nQ = x\n[divisor]\nzero = x^2+y^2\n"
            f"[parameters]\n{name} = 5\n"
        )
        code, out, err = run(capsys, "check-bs", doc)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("name", ["x", "y", " z ", "a b", "λ!"])
    def test_unreadable_parameter_name_in_param(self, capsys, name):
        code, out, err = run(
            capsys, "check-bs", FIXTURES / "radial.fol", "--param", f"{name}=2"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parameter {name.strip()!r} is ")

    def test_parameter_names_the_parser_reads(self, capsys, tmp_path):
        doc = tmp_path / "named.fol"
        doc.write_text(
            "[foliation]\nP = -_a1*y\nQ = λ*x\n[divisor]\nzero = x^2+y^2\n"
            "[parameters]\n_a1 = 1\n"
        )
        code, _, err = run(capsys, "check-bs", doc, "--param", "λ=1")
        assert (code, err) == (0, "")

    def test_mode_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-second-type", str(FIXTURES / "cusp.fol"), "--mode", "both"])
        assert info.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_probes_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["invariants", str(FIXTURES / "cusp.fol"), "--probes", "7"])
        assert info.value.code == 2
        assert "--probes" in capsys.readouterr().err


class TestDivisorInvariants:
    """``invariants`` and ``check-cota`` read one divisor block."""

    @pytest.mark.parametrize(
        "fixture, calls", [("radial.fol", 5), ("cusp.fol", 2)]
    )
    @pytest.mark.parametrize("command", ["invariants", "check-cota"])
    def test_intersection_calls(self, capsys, monkeypatch, fixture, calls, command):
        # Two probes that are not special, against zero (and pole), plus
        # i(zero, pole) when there is a pole.  The radial probe (1, 1), tangent
        # to the branch x - y of zero, is special and never scored.  The
        # polar's own intersections come from its certificate.
        original = germs.intersection_multiplicity
        seen = []

        def counted(f, g):
            seen.append((f, g))
            return original(f, g)

        for module in (germs, theorems, cli):
            if getattr(module, "intersection_multiplicity", None) is original:
                monkeypatch.setattr(module, "intersection_multiplicity", counted)
        code, _, _ = run(capsys, command, FIXTURES / fixture)
        assert code == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("fixture", DIVISOR_FIXTURES)
    def test_reports_agree(self, capsys, fixture):
        reports = {}
        for command in ("invariants", "check-cota"):
            _, out, _ = run(capsys, command, FIXTURES / fixture, "--json")
            reports[command] = json.loads(out)["data"]
        keys = ("tau", "xi", "second_type", "polar_probe", "polar_certified",
                "generalized_curve")
        for key in keys:
            assert reports["invariants"][key] == reports["check-cota"][key], key
