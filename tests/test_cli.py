"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import itertools
import json
import pathlib
import random
import sys
import time

import pytest

from oracles import quotient_draws, random_poly_lambda
from weylmin import cli
from weylmin.cli import build_parser, main
from weylmin.holomorphic import RatLambda
from weylmin.parse import parse_weyl
from weylmin.serialize import surface_from_obj, surface_to_obj
from weylmin.surfaces import enneper
from weylmin.weyl import UV_TABLE_CAP, Direction, U, V

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSurfaceCommands:
    def test_enneper_json(self, capsys):
        code, out, _ = run(capsys, "surface", "enneper", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "surface"
        assert surface_from_obj(doc).components == enneper(1).components

    def test_from_ftilde_matches_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "surface", "from-Ftilde", "--Ft", "L^3")
        assert code == 0
        assert out == (GOLDENS / "enneper.json").read_text()

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "surface", "enneper", "--n", "1", "--fmt", "text")
        assert code == 0
        assert out.splitlines()[0] == "X1 = 1/2*Ls + 1/2*L - 1/6*Ls^3 - 1/6*L^3"

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "surface", "enneper", "--n", "1", "--fmt", "latex")
        assert code == 0
        assert out.splitlines()[0].startswith("X^{1} &= ")

    def test_offsets(self, capsys):
        code, out, _ = run(
            capsys, "surface", "enneper", "--n", "1", "--offsets", "1/2,0,-3"
        )
        assert code == 0
        assert json.loads(out)["offsets"] == [
            {"num": 1, "den": 2},
            {"num": 0, "den": 1},
            {"num": -3, "den": 1},
        ]

    def test_from_F_expression_starting_with_minus(self, capsys):
        code, out, _ = run(capsys, "surface", "from-F", "--F", "-L^2")
        assert code == 0
        _, want, _ = run(capsys, "surface", "from-F", "--F=-L^2")
        assert out == want

    @pytest.mark.parametrize(
        "argv,flag,value",
        [
            (["from-fg", "--g", "L"], "--f", "-2"),
            (["from-fg", "--f", "2"], "--g", "-L"),
            (["from-Ftilde"], "--Ft", "-L^3"),
            (["pair", "--g", "L^2"], "--f", "-L"),
            (["pair", "--f", "L"], "--g", "-L^2"),
        ],
    )
    def test_expression_flags_take_a_leading_minus(self, capsys, argv, flag, value):
        code, out, err = run(capsys, "surface", *argv, flag, value)
        assert (code, err) == (0, "")
        assert run(capsys, "surface", *argv, f"{flag}={value}") == (0, out, "")

    def test_bad_offsets_count(self, capsys):
        code, _, err = run(capsys, "surface", "enneper", "--n", "1", "--offsets", "1,2")
        assert code == 2
        assert "offsets" in err
        code, _, err = run(capsys, "surface", "pair", "--f", "L", "--g", "L^2", "--offsets", "1,2,3")
        assert (code, err) == (2, "error: expected 4 offsets, got 3\n")

    def test_zero_denominator_offset(self, capsys):
        code, _, err = run(capsys, "surface", "enneper", "--offsets", "1,2,1/0")
        assert (code, err) == (2, "error: bad offset value '1/0': zero denominator\n")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "surface", "pair", "--f", "L", "--g", "L^2", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "surface", "from-F", "--F", "24*")
        assert code == 2
        assert "parse error" in err

    def test_integrability_exit(self, capsys):
        code, _, err = run(capsys, "surface", "from-fg", "--f", "1/L", "--g", "L")
        assert code == 3
        assert "integrability" in err

    def test_integrability_exit_names_the_poles(self, capsys):
        # the pole set is the primitive normal form of the residue denominator
        code, _, err = run(capsys, "surface", "from-F", "--F", "1/(h*L - 1)")
        assert code == 3
        assert err.endswith("nonzero residues on (-1 + h*L)\n")

    def test_integrability_exit_with_hbar_in_g(self, capsys):
        # g = x + y for the x, y of test_kernel's test_lambda_degree_2 draw:
        # h in g's coefficients, so every content is an h-polynomial gcd.
        # The message pins the normal form of the pole set.
        ring = lambda rng: random_poly_lambda(rng, 2, 2, max_hbar=1)
        *_, xyz = next(itertools.islice(quotient_draws(ring, random.Random(75)), 5, None))
        x, y = (RatLambda(*nd) for nd in xyz[:2])
        code, out, err = run(capsys, "surface", "from-fg", "--f", "1", "--g", f"{x}+{y}")
        assert (code, out) == (3, "")
        assert err == (
            "integrability error: component Phi1: no Lambda-rational primitive: nonzero residues"
            " on (((3/20 + 19/20*i) + (237/520 - 609/520*i)*h + (45/13 + 81/52*i)*h^2)"
            " + ((619/520 + 417/520*i) + (1127/1040 + 331/1040*i)*h + (99/26 + 27/26*i)*h^2)*L"
            " + ((99/260 + 27/260*i) + (277/520 + 111/520*i)*h + h^2)*L^2)\n"
        )

    def test_non_polynomial_exit(self, capsys):
        code, _, err = run(capsys, "surface", "from-fg", "--f", "2/L^2", "--g", "L^2")
        assert code == 4
        assert "polynomial" in err

    @pytest.mark.parametrize("argv", [
        ("from-F", "--F", "L/(1+h)"),
        ("from-fg", "--f", "(L+h)^2", "--g", "L/(1+h)"),
    ])
    def test_hbar_denominator_exit(self, capsys, argv):
        code, _, err = run(capsys, "surface", *argv)
        assert code == 4
        assert "primitive has the h-denominator (1 + " in err
        assert "element coefficients live in Q(i)[h]" in err and "rational, not" not in err


class TestVerifyCommand:
    def test_verify_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--in", str(GOLDENS / "enneper.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "verification" and doc["passes"] is True

    def test_verify_broken_golden(self, tmp_path, capsys):
        doc = json.loads((GOLDENS / "enneper.json").read_text())
        # corrupt one coefficient: X1 loses hermiticity/harmonicity
        doc["components"][0][0]["coeff"][0]["im_num"] = 5
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--in", str(broken))
        assert code == 1
        rep = json.loads(out)
        assert rep["passes"] is False
        assert rep["witnesses"]

    def test_verify_failing_golden(self, capsys):
        # enneper(1), raw, with X1 + U*V and X2 + U*U: fails all three checks
        path = GOLDENS / "enneper_broken.json"
        s = enneper(1)
        want = (s.components[0] + U * V, s.components[1] + U * U, s.components[2])
        assert surface_from_obj(json.loads(path.read_text())).components == want
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 1
        assert out == (GOLDENS / "enneper_broken_report.json").read_text()

    def test_verify_unconformal_golden(self, capsys):
        # enneper(1), raw, with X1 doubled: hermitian and harmonic, not conformal
        path = GOLDENS / "enneper_unconformal.json"
        s = enneper(1)
        want = (s.components[0].scale(2), s.components[1], s.components[2])
        assert surface_from_obj(json.loads(path.read_text())).components == want
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 1
        assert out == (GOLDENS / "enneper_unconformal_report.json").read_text()

    def test_verify_garbage_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == 2
        assert "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--in", "/nonexistent/x.json")
        assert code == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, _, err = run(capsys, "verify", "--in", str(deep))
        assert code == 2
        assert err.startswith("input error:")


class TestVerifyInputErrors:
    """Malformed surface documents end in exit 2 and a message, never a traceback."""

    def verify_edited(self, tmp_path, capsys, edit, command="verify"):
        doc = surface_to_obj(enneper(1))  # f and g are "rat" parameters
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return run(capsys, command, "--in", str(path))

    # Where each integer field of the format sits in that document.
    INT_FIELDS = [
        (("components", 0, 0), "k"),
        (("components", 0, 0), "l"),
        (("components", 0, 0, "coeff", 0), "hbar_deg"),
        (("components", 0, 0, "coeff", 0), "re_num"),
        (("components", 0, 0, "coeff", 0), "re_den"),
        (("components", 0, 0, "coeff", 0), "im_num"),
        (("components", 0, 0, "coeff", 0), "im_den"),
        (("provenance", "primitives", 0, 0), "deg"),
        (("provenance", "params", 1, "value", "num", 0), "deg"),
        (("offsets", 0), "num"),
        (("offsets", 0), "den"),
        ((), "n"),
    ]

    @pytest.mark.parametrize("path,field", INT_FIELDS)
    @pytest.mark.parametrize("value", [1.5, 1.0, True, None, [3], "1"])
    def test_integer_fields_accept_only_json_integers(self, tmp_path, capsys, path, field, value):
        def edit(doc):
            rec = doc
            for key in path:
                rec = rec[key]
            rec[field] = value

        code, out, err = self.verify_edited(tmp_path, capsys, edit)
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "conjugate"])
    @pytest.mark.parametrize("path,field,value", [
        (("provenance",), "kind", {"a": 1}),
        (("provenance",), "kind", 3),
        (("provenance", "params", 0), "name", 5),
        (("provenance", "params", 0), "name", None),
    ])
    def test_provenance_fields_accept_only_json_strings(
        self, tmp_path, capsys, command, path, field, value
    ):
        def edit(doc):
            rec = doc
            for key in path:
                rec = rec[key]
            rec[field] = value

        code, out, err = self.verify_edited(tmp_path, capsys, edit, command)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: field {field!r} must be a string, got ")
        assert "Traceback" not in err

    def test_zero_denominator_field(self, tmp_path, capsys):
        def edit(doc):
            doc["components"][0][0]["coeff"][0]["re_den"] = 0

        code, _, err = self.verify_edited(tmp_path, capsys, edit)
        assert code == 2 and "'re_den' must be nonzero" in err

    def test_rat_parameter_with_zero_denominator(self, tmp_path, capsys):
        def edit(doc):
            doc["provenance"]["params"][0]["value"]["den"] = []

        code, out, err = self.verify_edited(tmp_path, capsys, edit)
        assert (code, out) == (2, "")
        assert err.startswith("input error:") and "zero denominator" in err

    @pytest.mark.parametrize("command", ["verify", "conjugate"])
    def test_primitive_count_other_than_zero_or_n(self, tmp_path, capsys, command):
        doc = json.loads((GOLDENS / "enneper.json").read_text())
        del doc["provenance"]["primitives"][-1]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--in", str(path))
        assert (code, out) == (2, "")
        assert err == "input error: provenance lists 2 primitives for 3 components\n"


class TestConjugateCommand:
    def test_round_trip_through_files(self, tmp_path, capsys):
        src = GOLDENS / "enneper2.json"
        code, out, _ = run(capsys, "conjugate", "--in", str(src))
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["kind"] == "conjugate"
        # conjugating twice negates the components
        twice = tmp_path / "conj.json"
        twice.write_text(out)
        code, out2, _ = run(capsys, "conjugate", "--in", str(twice))
        assert code == 0
        orig = surface_from_obj(json.loads(src.read_text()))
        back = surface_from_obj(json.loads(out2))
        assert back.components == tuple(-c for c in orig.components)


class TestFockCommand:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "fock", "catenoid", "--dim", "64", "--hbar", "1.0",
            "--safe-rows", "20",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "fock-residuals"
        assert doc["dim"] == 64 and doc["safe_rows"] == 20
        assert max(doc["residuals"].values()) < 1e-8

    def test_tolerance_failure_exit(self, capsys):
        code, out, _ = run(
            capsys, "fock", "catenoid", "--dim", "24", "--hbar", "1.0",
            "--tol", "1e-30",
        )
        assert code == 1
        assert json.loads(out)["kind"] == "fock-residuals"

    def test_tail_bound_failure_exit(self, capsys):
        # every residual is below --tol, but the truncation tail is not
        code, out, err = run(
            capsys, "fock", "catenoid", "--dim", "16", "--hbar", "2",
            "--safe-rows", "14", "--tol", "1000",
        )
        doc = json.loads(out)
        assert max(doc["residuals"].values()) < 1000 <= doc["tail_bound"]
        assert code == 1
        assert err == ""

    def test_non_finite_hbar_rejected(self, capsys):
        for value in ("inf", "nan", "-inf"):
            code, out, err = run(capsys, "fock", "catenoid", "--dim", "16", f"--hbar={value}")
            assert code == 2
            assert out == "" and "hbar" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
    def test_meaningless_tol_rejected(self, capsys, value):
        # inf passed every report and nan failed every one
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "16", f"--tol={value}")
        assert (code, out) == (2, "")
        assert err == f"error: --tol must be positive and finite, got {float(value)}\n"

    def test_dim_cap(self, capsys):
        code, out, err = run(capsys, "fock", "catenoid", "--dim", str(10**9))
        assert code == 2
        assert out == ""
        assert "MAX_DIM = 1024" in err

    def test_dim_2_needs_a_window(self, capsys):
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "2")
        assert (code, out) == (2, "")
        assert err == (
            "error: safe_rows must satisfy 0 < safe_rows < dim: the default window "
            "dim // 3 is empty at dim 2; give one with --safe-rows\n"
        )
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "2", "--safe-rows", "1")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert (doc["kind"], doc["dim"], doc["safe_rows"]) == ("fock-residuals", 2, 1)

    def test_overflow_names_its_cause(self, capsys):
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "8", "--hbar", "1e150")
        assert code == 2
        assert out == ""
        assert "overflow" in err and "--hbar 1e+150" in err and "--dim 8" in err

    @pytest.mark.parametrize("dim", ["512", "1024"])
    def test_large_dim_passes(self, capsys, dim):
        # the long-double residuals were roundoff here: 3.2e-5 and 112
        code, out, err = run(capsys, "fock", "catenoid", "--dim", dim)
        assert code == 0 and err == ""
        assert max(json.loads(out)["residuals"].values()) < 1e-8

    def test_tiny_hbar_passes(self, capsys):
        # the long-double route reported X2 = X3 = 8.8e132, roundoff over hbar^2
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "64", "--hbar", "1e-300")
        assert code == 0 and err == ""
        res = json.loads(out)["residuals"]
        assert res["X2"] <= 1e-20 and res["X3"] <= 1e-20

    def test_large_hbar_still_fails(self, capsys):
        code, out, err = run(capsys, "fock", "catenoid", "--dim", "64", "--hbar", "2.0")
        assert code == 1 and err == ""
        assert max(json.loads(out)["residuals"].values()) > 1e-8

    @pytest.mark.parametrize("dim", ["64", "1024"])
    def test_huge_hbar_overflow(self, capsys, dim):
        code, out, err = run(capsys, "fock", "catenoid", "--dim", dim, "--hbar", "1e300")
        assert code == 2 and out == ""
        assert err.startswith("error: Fock matrices overflow") and "Traceback" not in err


class TestEvalCommand:
    def test_default_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "U*V - V*U")
        assert code == 0
        assert out.strip() == "i*h"

    def test_ops(self, capsys):
        cases = {
            "d": parse_weyl("L^2").derive(Direction.D),
            "dbar": parse_weyl("L^2").derive(Direction.DBAR),
            "u": parse_weyl("L^2").derive(Direction.U),
            "v": parse_weyl("L^2").derive(Direction.V),
            "lap": parse_weyl("L^2").laplace(),
            "re": parse_weyl("L^2").real_part(),
            "im": parse_weyl("L^2").imag_part(),
            "star": parse_weyl("L^2").star(),
        }
        for op, want in cases.items():
            code, out, _ = run(capsys, "eval", "--expr", "L^2", "--op", op)
            assert code == 0
            assert parse_weyl(out.strip()) == want

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "h*U", "--fmt", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "element" and doc["schema"] == "weylmin/1"

    def test_expression_starting_with_minus(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "-L")
        assert code == 0
        assert parse_weyl(out.strip()) == -parse_weyl("L")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "1/(U+V)")
        assert code == 2
        assert "division" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length to text",
)
class TestDigitLimit:
    """Integers past Python's int-to-text limit exit 2 with a message that
    names the limit, not a call the user cannot make."""

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_output(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "eval", "--expr", f"10^{limit}", "--fmt", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: the result has an integer longer than the {limit}-digit output limit\n"
        code, out, err = run(capsys, "eval", "--expr", f"10^{limit - 1}", "--fmt", fmt)
        assert (code, err) == (0, "")
        assert "1" + "0" * (limit - 1) in out

    def test_surface_output(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, err = run(capsys, "surface", "from-fg", "--f", f"10^{limit}", "--g", "L")
        assert code == 2 and f"{limit}-digit output limit" in err

    def test_offsets(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, err = run(capsys, "surface", "enneper", "--offsets", "1" * (limit + 1) + ",0,0")
        assert code == 2
        assert err == f"error: bad offset value: an integer longer than the {limit}-digit input limit\n"

    def test_input_document(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        text = (GOLDENS / "enneper.json").read_text().replace('"den": 1', '"den": 1' + "0" * limit, 1)
        (tmp_path / "big.json").write_text(text)
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "big.json"))
        assert code == 2
        assert err == f"input error: invalid JSON: an integer longer than the {limit}-digit input limit\n"


class TestUVTableCap:
    """U,V order past the table cap exits 2 at once, naming the cap."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--expr", "L^1000000000", "--fmt", "latex"],
        ["surface", "enneper", "--n", "100000", "--fmt", "latex"],
    ], ids=["eval", "enneper"])
    def test_exit_2(self, capsys, argv):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: U,V order is capped at total degree {UV_TABLE_CAP} ")


class TestDeepInput:
    """Input nested past the parser's depth cap is a parse error, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--expr", "(" * 2000 + "L" + ")" * 2000],
            ["eval", "--expr", "L+" * 3000 + "L"],
            ["eval", "--expr=" + "-" * 3000 + "L"],
            ["surface", "from-F", "--F", "L+" * 3000 + "L"],
        ],
        ids=["parentheses", "operator-chain", "unary-minus", "from-F-chain"],
    )
    def test_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("parse error:")


# -- the shape of the command line, pinned --------------------------------

_FMT_JSON = (("--fmt",), False, "json", None, ("text", "latex", "json"), "output format (default json)")
_OUT = (("--out",), False, None, None, None, "output file (default stdout)")
_OFFSETS_3 = (("--offsets",), False, None, None, None, "three offsets a,b,c")

# (subcommand path, help) and each option's (flags, required, default, type,
# choices, help), in the order argparse holds them.
CLI_SHAPE = {
    ("surface", "build surfaces from Weierstrass data"): None,
    ("surface from-fg", "integrate the (f, g) representation"): [
        (("--f",), True, None, None, None, "expression for f (mode rat)"),
        (("--g",), True, None, None, None, "expression for g (mode rat)"),
        _OFFSETS_3, _FMT_JSON, _OUT,
    ],
    ("surface from-F", "Gauss-map-L family from a single F"): [
        (("--F",), True, None, None, None, "expression for F (mode rat)"),
        _OFFSETS_3, _FMT_JSON, _OUT,
    ],
    ("surface from-Ftilde", "integrated-by-parts polynomial form"): [
        (("--Ft",), True, None, None, None, "polynomial expression (mode rat)"),
        _OFFSETS_3, _FMT_JSON, _OUT,
    ],
    ("surface pair", "four-component surface from two polynomials"): [
        (("--f",), True, None, None, None, "first polynomial (mode rat)"),
        (("--g",), True, None, None, None, "second polynomial (mode rat)"),
        (("--offsets",), False, None, None, None, "four offsets a,b,c,d"),
        _FMT_JSON, _OUT,
    ],
    ("surface enneper", "higher-order Enneper: f = 2, g = L^n"): [
        (("--n",), False, 1, int, None, "order (default 1)"),
        _OFFSETS_3, _FMT_JSON, _OUT,
    ],
    ("verify", "run the exact minimality checks"): [
        (("--in",), True, None, None, None, "surface JSON file, or - for stdin"),
        (("--out",), False, None, None, None, "report output file (default stdout)"),
    ],
    ("conjugate", "conjugate surface from recorded primitives"): [
        (("--in",), True, None, None, None, "surface JSON file, or - for stdin"),
        _FMT_JSON, _OUT,
    ],
    ("fock", "truncated Fock-space checks"): None,
    ("fock catenoid", "catenoid residual report"): [
        (("--hbar",), False, 1.0, float, None, "hbar value (default 1)"),
        (("--dim",), True, None, int, None, "truncation dimension"),
        (("--safe-rows",), False, None, int, None, "safe window (default dim//3)"),
        (("--tol",), False, 1e-8, float, None, "residual tolerance (default 1e-8)"),
        (("--out",), False, None, None, None, "report output file (default stdout)"),
    ],
    ("eval", "evaluate an algebra expression"): [
        (("--expr",), True, None, None, None, "expression (mode weyl)"),
        (("--op",), False, None, None, ("d", "dbar", "u", "v", "lap", "re", "im", "star"),
         "optional operation to apply"),
        (("--fmt",), False, "text", None, ("text", "latex", "json"), "output format (default text)"),
        _OUT,
    ],
}


def _shape(parser, path=""):
    """CLI_SHAPE of ``parser``: a command with subcommands maps to None."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            assert action.required
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                cmd = f"{path} {name}".strip()
                yield (cmd, helps[name]), [
                    (tuple(a.option_strings), a.required, a.default, a.type, a.choices, a.help)
                    for a in sub._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)
                ] or None
                yield from _shape(sub, cmd)


def test_cli_shape():
    shape = dict(_shape(build_parser()))
    assert shape == CLI_SHAPE
    assert list(shape) == list(CLI_SHAPE)


@pytest.mark.parametrize(
    "argv,names",
    [
        (["from-fg", "--f", "2", "--g", "L"], ["parse_rat", "surface_from_fg"]),
        (["from-F", "--F", "L^2"], ["parse_rat", "surface_from_F"]),
        (["from-Ftilde", "--Ft", "L^3"], ["_parse_poly_arg", "surface_from_Ftilde"]),
        (["pair", "--f", "L", "--g", "L^2"], ["_parse_poly_arg", "surface_from_pair"]),
        (["enneper"], ["enneper"]),
    ],
)
def test_surface_commands_look_names_up_when_they_run(monkeypatch, capsys, argv, names):
    """A tracer rebinds module-level names; the surface table must see that."""
    seen = []
    for name in names:
        original = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, _f=original, _n=name: seen.append(_n) or _f(*a)
        )
    assert run(capsys, "surface", *argv)[0] == 0
    assert sorted(set(seen)) == sorted(names)
