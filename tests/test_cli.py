"""Tests for the command-line interface: exit codes, formats, file IO."""

import io
import json
from fractions import Fraction

import pytest

from affinepowers import BlackBox, Decomposition, UniPoly, decompose, multi_build
from affinepowers.cli import main
from affinepowers.serialize import (
    decomposition_from_json,
    decomposition_to_json,
    format_unipoly,
    multipoly_to_json,
)
from affinepowers.multipoly import MultiPoly

F = Fraction

PEEL36 = UniPoly.affine_power(1, -1, 36) + UniPoly.affine_power(-36, 0, 35)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """For paths that raise SystemExit inside argparse helpers."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_single_power(self, capsys):
        poly = format_unipoly(UniPoly.affine_power(1, 2, 7))
        code, out, _ = run(capsys, "decompose", poly)
        assert code == 0
        assert "strategy: big_exponents" in out
        assert "1 * (x - 2)^7" in out
        assert "verified: true" in out

    def test_json_output(self, capsys):
        poly = format_unipoly(PEEL36)
        code, out, _ = run(
            capsys, "decompose", poly, "--algorithm", "distinct-nodes", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["algorithm"] == "distinct_nodes"
        assert doc["verified"] is True
        dec = decomposition_from_json(doc)
        assert dec.expand() == PEEL36

    def test_negative_leading_coefficient_positional(self, capsys):
        # "-1,3,-3,1" = (x-1)^3 must parse as a positional argument
        code, out, _ = run(capsys, "decompose", "-1,3,-3,1")
        assert code == 0
        assert "1 * (x - 1)^3" in out

    def test_algorithm_choice_small_intervals(self, capsys):
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        code, out, _ = run(
            capsys,
            "decompose",
            format_unipoly(f),
            "--algorithm",
            "small-intervals",
            "--delta",
            "1",
        )
        assert code == 0
        assert "strategy: small_intervals" in out
        assert "2 * (x - 1)^13" in out
        assert "3 * (x - 1)^12" in out

    def test_delta_auto(self, capsys):
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        code, out, _ = run(
            capsys, "decompose", format_unipoly(f), "--algorithm", "small-intervals"
        )
        assert code == 0

    def test_stats_output(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            format_unipoly(PEEL36),
            "--algorithm",
            "distinct-nodes",
            "--stats",
        )
        assert code == 0
        assert "iteration 0:" in out
        assert "max_coeff_bits=" in out
        assert "seconds:" in out

    def test_stats_json(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose",
            format_unipoly(PEEL36),
            "--algorithm",
            "distinct-nodes",
            "--stats",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stats"]
        assert {"iteration", "order", "residual_degree", "max_coeff_bits"} <= set(
            doc["stats"][0]
        )
        assert isinstance(doc["seconds"], float)

    def test_algorithmic_failure_exits_two(self, capsys):
        code, _, err = run(capsys, "decompose", "0,1,1")  # x^2 + x
        assert code == 2
        assert "error" in err

    def test_irrational_nodes_exit_two(self, capsys):
        poly = "0,1664,0,18304,0,41184,0,27456,0,5720,0,312,0,2"
        code, _, err = run(capsys, "decompose", poly)
        assert code == 2
        assert "IrrationalNodeDetected" in err

    def test_usage_error_exits_one(self, capsys):
        code, _, err = run_exit(capsys, "decompose", "not,a,poly")
        assert code == 1
        assert "error" in err

    def test_at_file_input(self, capsys, tmp_path):
        target = tmp_path / "poly.txt"
        target.write_text(format_unipoly(UniPoly.affine_power(1, 2, 7)) + "\n")
        code, out, _ = run(capsys, "decompose", f"@{target}")
        assert code == 0
        assert "1 * (x - 2)^7" in out

    def test_stdin_input(self, capsys, monkeypatch):
        text = format_unipoly(UniPoly.affine_power(1, 2, 7))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "decompose", "-")
        assert code == 0
        assert "1 * (x - 2)^7" in out

    def test_missing_at_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_exit(capsys, "decompose", f"@{tmp_path}/absent.txt")
        assert code == 1
        assert "cannot read" in err


# inputs that every strategy solves
SOLVED_BY_ALL = [
    UniPoly.affine_power(1, 2, 7),
    UniPoly.affine_power(1, 1, 25) + UniPoly.affine_power(2, -2, 11),
]
SOLVER_NAMES = ["auto"] + [name for name, _ in decompose._STRATEGIES]


class TestSolverTable:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_cli_matches_direct_call_in_both_spellings(self, capsys, name):
        for f in SOLVED_BY_ALL:
            if name == "auto":
                dec, tag = decompose.decompose_auto(f)
            else:
                dec, tag = dict(decompose._STRATEGIES)[name](f), name
            expected = decomposition_to_json(dec)["terms"]
            for spelling in (name, name.replace("_", "-")):
                code, out, _ = run(
                    capsys, "decompose", format_unipoly(f), "--algorithm", spelling, "--json"
                )
                assert code == 0
                doc = json.loads(out)
                assert doc["terms"] == expected
                assert doc["algorithm"] == tag
                assert doc["verified"] is True

    def test_multi_build_accepts_every_name(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        f = (x1 + 2 * x2 + MultiPoly.constant(2, 1)) ** 7
        for name in SOLVER_NAMES:
            md = multi_build(BlackBox.from_multipoly(f), backend=name)
            assert md.expand() == f

    def test_multi_backend_takes_either_spelling(self, capsys, tmp_path):
        src = tmp_path / "poly.json"
        x1 = MultiPoly.variable(2, 0)
        src.write_text(json.dumps(multipoly_to_json((x1 + MultiPoly.constant(2, 3)) ** 5)))
        for spelling in ("big_exponents", "big-exponents"):
            code, out, _ = run(capsys, "multi", str(src), "--backend", spelling)
            assert code == 0
            assert "verified: true" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--algorithm", "big-exp"),
            ("--algorithm", "nope"),
            ("--no-verify",),
        ],
    )
    def test_retired_spellings_exit_one(self, capsys, argv):
        code, _, err = run_exit(capsys, "decompose", "-1,3,-3,1", *argv)
        assert code == 1
        assert "error" in err


class TestOneVerification:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_solver_refusal_exits_two(self, capsys, monkeypatch, name):
        for f in SOLVED_BY_ALL:
            monkeypatch.setattr(Decomposition, "expand", lambda self, f=f: f + UniPoly((1,)))
            code, out, err = run(capsys, "decompose", format_unipoly(f), "--algorithm", name)
            assert code == 2
            assert out == ""
            assert "ReconstructionFailed" in err or "DeltaExhausted" in err

    def test_refusal_reports_the_re_expansion(self, capsys, monkeypatch):
        f = SOLVED_BY_ALL[1]
        monkeypatch.setattr(Decomposition, "expand", lambda self: f + UniPoly((1,)))
        argvs = [
            ("--algorithm", "big_exponents"),
            ("--algorithm", "distinct_nodes", "--stats"),
            ("--algorithm", "small_intervals", "--delta", "0", "--json"),
        ]
        for argv in argvs:
            code, _, err = run(capsys, "decompose", format_unipoly(f), *argv)
            assert code == 2
            assert "re-expansion does not reproduce the input" in err


class TestGenerate:
    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--regime", "big_exponents", "--terms", "2"
        )
        assert code == 0
        assert "regime: big_exponents" in out
        assert "poly:" in out

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "generate",
            "--regime",
            "big_exponents",
            "--terms",
            "2",
            "--seed",
            "3",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "big_exponents"
        assert "coeffs" in doc["poly"]
        assert doc["decomposition"]["terms"]

    def test_out_writes_poly_and_truth(self, capsys, tmp_path):
        target = tmp_path / "instance.txt"
        code, out, _ = run(
            capsys,
            "generate",
            "--regime",
            "distinct_nodes",
            "--terms",
            "2",
            "--seed",
            "1",
            "--out",
            str(target),
        )
        assert code == 0
        assert target.exists()
        truth = tmp_path / "instance.txt.truth.json"
        assert truth.exists()
        doc = json.loads(truth.read_text())
        dec = decomposition_from_json(doc["decomposition"])
        from affinepowers.serialize import parse_unipoly

        assert dec.expand() == parse_unipoly(target.read_text())

    def test_generate_then_decompose_pipeline(self, capsys, tmp_path):
        target = tmp_path / "inst.txt"
        code, _, _ = run(
            capsys,
            "generate",
            "--regime",
            "big_gaps",
            "--terms",
            "2",
            "--seed",
            "5",
            "--repeated-nodes",
            "--out",
            str(target),
        )
        assert code == 0
        code, out, _ = run(capsys, "decompose", f"@{target}")
        assert code == 0
        assert "verified: true" in out

    def test_unsatisfiable_spec_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "--regime",
            "big_exponents",
            "--terms",
            "4",
            "--node-range",
            "1",
        )
        assert code == 2
        assert "UnsatisfiableSpec" in err

    def test_small_intervals_knobs(self, capsys):
        code, out, _ = run(
            capsys,
            "generate",
            "--regime",
            "small_intervals",
            "--terms",
            "3",
            "--groups",
            "2",
            "--delta",
            "1",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["regime"] == "small_intervals"


class TestVerify:
    def test_matching_pair_exits_zero(self, capsys, tmp_path):
        dec_doc = {
            "terms": [{"coeff": "1", "node": "2", "exponent": 7}]
        }
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps(dec_doc))
        poly = format_unipoly(UniPoly.affine_power(1, 2, 7))
        code, out, _ = run(capsys, "verify", poly, str(dec_file))
        assert code == 0
        assert "verified: true" in out

    def test_mismatch_exits_two(self, capsys, tmp_path):
        dec_doc = {
            "terms": [{"coeff": "1", "node": "3", "exponent": 7}]
        }
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps(dec_doc))
        poly = format_unipoly(UniPoly.affine_power(1, 2, 7))
        code, out, _ = run(capsys, "verify", poly, str(dec_file))
        assert code == 2
        assert "verified: false" in out

    def test_json_flag(self, capsys, tmp_path):
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps({"terms": []}))
        code, out, _ = run(capsys, "verify", "0", str(dec_file), "--json")
        assert code == 0
        assert json.loads(out) == {"verified": True}

    def test_stdin_decomposition(self, capsys, monkeypatch):
        doc = json.dumps({"terms": [{"coeff": "1", "node": "0", "exponent": 2}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "verify", "0,0,1", "-")
        assert code == 0


class TestSde:
    def test_order_one_output(self, capsys):
        poly = format_unipoly(UniPoly.affine_power(1, 2, 5))
        code, out, _ = run(capsys, "sde", poly)
        assert code == 0
        assert "order: 1" in out
        assert "P_0: 5" in out
        assert "P_1: 2,-1" in out

    def test_json_output(self, capsys):
        poly = format_unipoly(UniPoly.affine_power(1, 2, 5))
        code, out, _ = run(capsys, "sde", poly, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"order": 1, "shift": 0, "polys": [["5"], ["2", "-1"]]}

    def test_shift_flag(self, capsys):
        f = UniPoly((1, 2)) * UniPoly.affine_power(1, 1, 12)
        code, out, _ = run(capsys, "sde", format_unipoly(f), "--shift", "1")
        assert code == 0
        assert "order: 1" in out

    def test_max_order_miss_exits_two(self, capsys):
        code, _, err = run(
            capsys, "sde", "3,4,-8,-1,7,6,3,0,1", "--max-order", "1"
        )
        assert code == 2
        assert "no equation" in err


class TestWaring:
    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "waring", "2,0,90,0,420,0,420,0,90,0,2")
        assert code == 0
        assert "size: 2" in out
        assert "1 * (x - 1)^10" in out
        assert "1 * (x + 1)^10" in out

    def test_above_threshold_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "waring", "1,-5,3,-8,-7,8,-6,2,9,-8,7,-3,3")
        assert code == 0
        assert "above threshold" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "waring", "2,0,90,0,420,0,420,0,90,0,2", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 10
        assert doc["above_threshold"] is False
        assert {t["node"] for t in doc["terms"]} == {"1", "-1"}


class TestSparsestShift:
    def test_three_terms(self, capsys):
        poly = "59448,-197368,295515,-262500,153095,-61236,17010,-3240,405,-30,1"
        code, out, _ = run(capsys, "sparsest-shift", poly)
        assert code == 0
        assert "shift: 3" in out
        assert "size: 3" in out

    def test_above_threshold_exits_zero(self, capsys):
        code, out, _ = run(capsys, "sparsest-shift", "36,0,450,0,560,0,112,0,2")
        assert code == 0
        assert "above threshold" in out

    def test_irrational_exits_two(self, capsys):
        code, _, err = run(capsys, "sparsest-shift", "4,0,12,0,1")
        assert code == 2
        assert "IrrationalNodeDetected" in err

    def test_json(self, capsys):
        poly = "59448,-197368,295515,-262500,153095,-61236,17010,-3240,405,-30,1"
        code, out, _ = run(capsys, "sparsest-shift", poly, "--json")
        doc = json.loads(out)
        assert doc["shift"] == "3"
        assert doc["support"][0] == {"exponent": 1, "coeff": "2"}


class TestMulti:
    def planted_doc(self) -> str:
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        one = MultiPoly.constant(2, 1)
        f = (x1 + 2 * x2 + one) ** 13 + (x1 - x2) ** 11
        return json.dumps(multipoly_to_json(f))

    def test_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "poly.json"
        src.write_text(self.planted_doc())
        code, out, _ = run(
            capsys, "multi", str(src), "--backend", "big_exponents"
        )
        assert code == 0
        assert "terms: 2" in out
        assert "verified: true" in out
        assert "(1 + x1 + 2 x2)^13" in out

    def test_json_output(self, capsys, tmp_path):
        src = tmp_path / "poly.json"
        src.write_text(self.planted_doc())
        code, out, _ = run(
            capsys, "multi", str(src), "--backend", "big_exponents", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert len(doc["terms"]) == 2

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.planted_doc()))
        code, out, _ = run(capsys, "multi", "-", "--backend", "big_exponents")
        assert code == 0

    def test_failure_exits_two(self, capsys, tmp_path):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        src = tmp_path / "prod.json"
        src.write_text(json.dumps(multipoly_to_json(x1 * x2)))
        code, _, err = run(
            capsys,
            "multi",
            str(src),
            "--backend",
            "big_exponents",
            "--retries",
            "1",
        )
        assert code == 2
        assert "ReconstructionFailed" in err


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        code, out, _ = run_exit(capsys, "--version")
        assert code == 0

    def test_missing_command_exits_one(self, capsys):
        code, _, _ = run_exit(capsys)
        assert code == 1

    def test_unknown_option_exits_one(self, capsys):
        code, _, _ = run_exit(capsys, "decompose", "1,1", "--bogus")
        assert code == 1
