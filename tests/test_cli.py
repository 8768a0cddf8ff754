"""End-to-end command-line tests, driven through main(argv) in-process."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blgauss.gaussian_verify
import blgauss.structure
from blgauss import __version__, cli, dual_check, make_datum
from blgauss.cli import _write_report, build_parser, main
from blgauss.datum import datum_digest, load_datum, save_datum
from conftest import gl_family, gl_map, mercedes_frame_datum, random_gl

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
YOUNG = str(DATA / "young.json")
YOUNG_PAIR = str(DATA / "young_pair.json")
FRAME = str(DATA / "frame.json")
HADAMARD3 = str(DATA / "hadamard3.json")
INFEASIBLE = str(DATA / "infeasible.json")

YOUNG_CONSTANT = 0.8773826753016616


class TestExitCodes:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "--datum", "/no/such/file.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json", encoding="utf-8")
        assert main(["validate", "--datum", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--datum", YOUNG], ["constant", "--datum", YOUNG], ["check-gaussian", "--datum", YOUNG],
        ["check-quadrature", "--datum", YOUNG], ["young", "--p", "1.5", "--q", "1.2"],
        ["split", "--datum", YOUNG_PAIR],
    ], ids=lambda argv: argv[0])
    def test_removed_damping_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--damping", "0.5"])
        assert err.value.code == 2
        assert "--damping" in capsys.readouterr().err

    def test_non_onto_map_exits_2(self, tmp_path, capsys):
        doc = {"n": 2, "factors": [{"c": 1.0, "rows": [[1.0, 0.0], [1.0, 0.0]]}]}
        path = tmp_path / "nononto.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--datum", str(path)]) == 2
        assert "onto" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["validate"], ["solve"], ["constant"], ["check-gaussian", "--constant", "1.0"],
        ["check-quadrature"], ["check-inf"], ["split"], ["bd"],
    ], ids=lambda argv: argv[0])
    def test_non_onto_map_is_refused_at_load(self, argv, tmp_path, capsys):
        # the second factor makes the maps span R^2, so nothing downstream
        # would notice the first factor's defect
        doc = {"n": 2, "factors": [{"c": 1.0, "rows": [[1.0, 0.0], [2.0, 0.0]]},
                                   {"c": 1.0, "rows": [[0.0, 1.0]]}]}
        path = tmp_path / "nononto.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([argv[0], "--datum", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: factor 0 has rank 1 < target dimension 2; "
                                "a non-zero factor map must be onto\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["constant"], ["check-inf"], ["check-gaussian", "--constant", "1"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("n", [2.7, True])
    def test_non_integral_dimension_exits_2(self, n, argv, tmp_path, capsys):
        doc = json.loads(Path(YOUNG).read_text(encoding="utf-8"))
        doc["n"] = n
        path = tmp_path / "young.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([argv[0], "--datum", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: ambient dimension must be an integer, got {n!r}\n"
        assert captured.out == ""

    def test_string_weight_exits_2(self, tmp_path, capsys):
        # "c": "0.5" used to load and solve with exit 0
        doc = json.loads(Path(YOUNG).read_text(encoding="utf-8"))
        doc["factors"][0]["c"] = "0.75"
        path = tmp_path / "young.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["constant", "--datum", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: factor 0: c must be a number, got '0.75'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, formula", [
        (["check-gaussian", "--constant", "1"], "max(samples, 62500000000 * 1^2) = 1000000000000"),
        (["check-inf"], "samples * (kernel dim + sum n_i) = 4000000000000"),
    ], ids=["check-gaussian", "check-inf"])
    def test_sample_count_over_budget_exits_2(self, argv, formula, capsys):
        # both asked numpy for terabytes (466 GiB, 7.28 TiB) and died with a traceback
        assert main([argv[0], "--datum", YOUNG, "--samples", "1000000000000", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {formula} exceeds the budget 100000000\n"
        assert captured.out == ""


class TestValidate:
    def test_frame_datum(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--datum", FRAME, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "frame: True" in text
        assert "degenerate: False" in text
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["command"] == "validate"
        assert doc["version"] == __version__
        assert doc["datum_digest"] == datum_digest(load_datum(FRAME))
        assert doc["diagnostics"]["frame"] is True

    def test_young_datum_not_frame(self, capsys):
        assert main(["validate", "--datum", YOUNG]) == 0
        text = capsys.readouterr().out
        assert "frame: False" in text
        assert "homogeneity defect: +0.000e" in text

    @pytest.mark.parametrize("path, line, key", [
        (YOUNG, "kernel witness: none", None),
        (INFEASIBLE, "kernel witness: factor 0", 0),
    ])
    def test_kernel_witness_line_and_key(self, capsys, tmp_path, path, line, key):
        out = tmp_path / "report.json"
        assert main(["validate", "--datum", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line
        assert json.loads(out.read_text(encoding="utf-8"))["diagnostics"]["kernel_witness"] == key


class TestSolveAndConstant:
    def test_solve_young(self, capsys):
        assert main(["solve", "--datum", YOUNG]) == 0
        text = capsys.readouterr().out
        assert "converged: True" in text
        assert repr(YOUNG_CONSTANT)[:12] in text

    def test_solve_report_and_trace(self, tmp_path):
        out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        code = main(["solve", "--datum", YOUNG, "--out", str(out), "--trace", str(trace)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["options"]["tol"] == 1e-10
        assert doc["result"]["constant"] == pytest.approx(YOUNG_CONSTANT, abs=1e-12)
        assert doc["result"]["converged"] is True
        # the header, then one row per iteration from 0, numbers by repr: the
        # last residual is the report's, bit for bit
        header, *rows = trace.read_text(encoding="utf-8").splitlines()
        assert header == "iteration,residual,objective"
        assert [int(row.split(",")[0]) for row in rows] == list(range(doc["result"]["iterations"] + 1))
        assert rows[-1].split(",")[1] == repr(doc["result"]["residual"])
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])

    def test_inconclusive_solve_exits_1(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["solve", "--datum", YOUNG, "--max-iter", "3", "--out", str(out)])
        assert code == 1
        assert "inconclusive" in capsys.readouterr().err
        # a spent budget reports the bound that the A it returns certifies
        result = _strict_json(out)["result"]
        certified = math.sqrt(dual_check(load_datum(YOUNG), 1.0, np.array(result["A"])))
        assert result["constant"] == pytest.approx(certified, rel=1e-12, abs=0.0)

    def test_constant_prints_value(self, capsys):
        assert main(["constant", "--datum", YOUNG]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(YOUNG_CONSTANT, abs=1e-12)

    def test_infeasible_constant_is_inf_and_exits_0(self, capsys):
        assert main(["constant", "--datum", INFEASIBLE]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_spent_budget_on_infeasible_is_inconclusive(self, capsys, tmp_path):
        # a run cut off before the evidence of +inf is not +inf. On R^3,
        # ker B_1 = span(e2) breaks the dimension condition (1 > c_0), but no
        # count shows it, so the datum has no kernel witness and the loop runs
        path, e = tmp_path / "witness_free.json", np.eye(3)
        save_datum(make_datum(3, [0.6, 0.6, 0.6], [e[[0, 1]], e[[0, 2]], e[:1]]), path)
        assert load_datum(path).kernel_witness is None
        assert main(["constant", "--datum", str(path), "--max-iter", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() != "inf"
        assert captured.err == "constant: the solve was inconclusive\n"
        assert main(["constant", "--datum", str(path)]) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_kernel_witness_is_inf_on_any_budget(self, capsys, tmp_path):
        # infeasible.json's kernel witness proves +inf before the loop
        assert main(["constant", "--datum", INFEASIBLE, "--max-iter", "1"]) == 0
        assert capsys.readouterr() == ("inf\n", "")
        out = tmp_path / "report.json"
        assert main(["solve", "--datum", INFEASIBLE, "--max-iter", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("converged: False  iterations: 0  residual: nan\n"
                                                  "constant: inf\n")
        result = _strict_json(out)["result"]
        assert (result["A"], result["constant"], result["iterations"]) == ([[1.0, 0.0], [0.0, 1.0]], "inf", 0)

    def test_empty_iteration_budget_exits_2(self, capsys):
        assert main(["constant", "--datum", YOUNG, "--max-iter", "0"]) == 2
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "constant"])
    def test_infeasible_report_is_strict_json(self, command, tmp_path):
        out = tmp_path / "report.json"
        assert main([command, "--datum", INFEASIBLE, "--out", str(out)]) == 0
        doc = _strict_json(out)
        if command == "solve":
            assert (doc["result"]["constant"], doc["result"]["residual"]) == ("inf", "nan")
        else:
            assert doc["constant"] == "inf"

    @pytest.mark.parametrize("command", ["solve", "constant"])
    def test_nan_constant_and_option_are_strict_json(self, command, tmp_path):
        # Hoelder mapped by M with cond(M) = 1e8 is ill-conditioned at the
        # start: an inconclusive run with a NaN constant
        d, _, _ = gl_family("holder")
        path, out = tmp_path / "holder.json", tmp_path / "report.json"
        save_datum(gl_map(d, random_gl(3, 1e8, np.random.default_rng(100))), path)
        argv = [command, "--datum", str(path), "--out", str(out)]
        assert main(argv) == 1
        doc = _strict_json(out)
        assert (doc["result"]["constant"] if command == "solve" else doc["constant"]) == "nan"
        assert doc["options"]["max_iter"] == 10_000
        # the CLI refuses --tol nan as bad input, so a NaN option reaches the
        # report writer only from a caller that builds its own arguments
        args = build_parser().parse_args(argv)
        args.tol = math.nan
        _write_report(args, {"constant": math.nan})
        assert _strict_json(out)["options"]["tol"] == "nan"


def _strict_json(path: Path) -> dict:
    def refuse(name):
        raise ValueError(f"{path.name} holds the non-standard JSON constant {name}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _one_line_no_traceback(err: str, message: str) -> None:
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err and "did not converge" not in err


class TestVerdicts:
    """Commands that need a finite constant exit 1 with one stderr line when
    the solve gives none."""

    @pytest.mark.parametrize("argv", [
        ["check-gaussian", "--datum", INFEASIBLE, "--samples", "50"],
        ["check-quadrature", "--datum", INFEASIBLE, "--resolution", "41"],
        ["bd", "--datum", INFEASIBLE, "--paths", "100", "--steps", "2"],
    ], ids=lambda argv: argv[0])
    def test_infinite_constant_has_nothing_to_check(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        _one_line_no_traceback(captured.err, "the constant is +inf")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # one Newton step leaves the solver at 0.7937 against 0.8858
        (["young", "--p", "1.5", "--q", "1.2", "--max-iter", "1"],
         "young: the solve was inconclusive"),
        (["check-gaussian", "--datum", YOUNG, "--samples", "50", "--max-iter", "1"],
         "check-gaussian: the solve was inconclusive"),
        # multiplicativity_check raises ConvergenceError
        (["split", "--datum", YOUNG_PAIR, "--max-iter", "1"],
         "split: no converged solve of the full datum"),
    ], ids=["young", "check-gaussian", "split"])
    def test_inconclusive_solve_exits_1(self, argv, message, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        _one_line_no_traceback(captured.err, message)
        assert captured.out == "" and not out.exists()


class TestCheckGaussian:
    def test_clean_sweeps_exit_0(self, capsys):
        code = main(["check-gaussian", "--datum", YOUNG, "--samples", "200"])
        assert code == 0
        text = capsys.readouterr().out
        for name in ("direct", "reverse", "dual"):
            assert name in text
        assert text.count("violations=0") == 3
        assert "extremizer gap" in text

    @pytest.mark.parametrize("constant, samples", [(0.5 * YOUNG_CONSTANT, "200"), (1e-300, "50")],
                             ids=["half", "1e-300"])
    def test_deflated_constant_exits_1(self, constant, samples, capsys):
        # 1e-300 overflows every sweep ratio to inf: a violation, and no
        # numpy warning leaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-gaussian", "--datum", YOUNG, "--samples", samples, "--constant", str(constant)])
        assert code == 1
        captured = capsys.readouterr()
        assert "violations=0" not in captured.out.split("\n")[0]
        assert captured.err == ""

    def test_csv_has_all_samples(self, tmp_path):
        csv = tmp_path / "ratios.csv"
        code = main(["check-gaussian", "--datum", YOUNG, "--samples", "50", "--csv", str(csv)])
        assert code == 0
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "check,sample,ratio"
        assert len(lines) == 1 + 3 * 50
        ratios = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(ratios) <= 1.0 + 1e-9

    def test_tuple_sweeps_share_one_draw(self, monkeypatch, capsys):
        # direct and reverse draw the same tuples once; dual draws its own
        # ambient matrices: one draw of each of the 16 blocks for each
        draw, dims = blgauss.gaussian_verify._draw_run, []
        monkeypatch.setattr(blgauss.gaussian_verify, "_draw_run",
                            lambda *args: dims.extend([tuple(args[0])] * len(args[2])) or draw(*args))
        assert main(["check-gaussian", "--datum", YOUNG, "--samples", "100"]) == 0
        assert sorted(dims) == [(1, 1, 1)] * 16 + [(2,)] * 16

    def test_reports_ignore_output_destinations(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        csv = tmp_path / "ratios.csv"
        args = ["check-gaussian", "--datum", YOUNG, "--samples", "100"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--csv", str(csv)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCheckQuadrature:
    def test_young_extremizers_near_equality(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["check-quadrature", "--datum", YOUNG, "--resolution", "401", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "direct" in text and "reverse" in text
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["checks"]["direct"]["ratio"] == pytest.approx(1.0, abs=1e-3)
        assert doc["checks"]["reverse"]["ratio"] == pytest.approx(1.0, abs=5e-3)

    def test_high_dimension_exits_2(self, capsys):
        assert main(["check-quadrature", "--datum", HADAMARD3]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_a_grid_volume_past_the_float_range_exits_2(self, capsys):
        # (2e200)^2 overflows: this printed two RuntimeWarnings, then an
        # OverflowError traceback from the direct check's right-hand side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-quadrature", "--datum", YOUNG, "--box", "1e200", "--resolution", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: box = 1e+200 ") and captured.out == ""
        _one_line_no_traceback(captured.err, "(2 * box)^2")

    def test_a_huge_box_on_the_line_keeps_finite_ratios(self, tmp_path, capsys):
        # (2e200)^1 is a float; the inputs' forms overflow to +inf, whose
        # value, 0, is exact, and no warning is raised
        path = tmp_path / "pl.json"
        path.write_text(json.dumps({"n": 1, "factors": [{"c": 0.5, "rows": [[1.0]]}] * 2}), encoding="utf-8")
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-quadrature", "--datum", str(path), "--box", "1e200", "--resolution", "21",
                         "--out", str(out)]) == 0
        checks = _strict_json(out)["checks"]
        for name in ("direct", "reverse"):
            assert checks[name]["ratio"] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("factors, box, code, reverse", [
        ([{"c": 1 / 3, "rows": [[1.0]]}] * 3, "1e200", 0,
         "skipped (box = 1e+200 is above 3.8705e+153, past which the decomposition windows leave the float range)"),
        ([{"c": 0.5, "rows": [[1.0]]}] * 2, "8e307", 0,
         "skipped (box = 8e+307 is above 3.1779e+307, past which the decomposition windows leave the float range)"),
        ([{"c": 1.0, "rows": [[2.0]]}], "1e200", 1, "ratio=2.00000000  (equality expected: gap 1.00e+00)"),
    ], ids=["kdim2", "kdim1", "kdim0"])
    def test_a_huge_box_leaks_no_window_overflow(self, factors, box, code, reverse, tmp_path, capsys):
        # at these boxes a window of kernel dimension 2 or 1 would overflow,
        # and its zero envelope read as "reverse ratio=0.00000000", a pass:
        # the reverse check is skipped. Kernel dimension 0 has no window and
        # runs: 21 points over [-1e200, 1e200] read each Gaussian at 0 alone,
        # so both ratios are 1 / C = 2, a violation of the grid's making
        path = tmp_path / "datum.json"
        path.write_text(json.dumps({"n": 1, "factors": factors}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-quadrature", "--datum", str(path), "--box", box, "--resolution", "21"]) == code
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and len(lines) == 2
        assert lines[0].startswith("direct   ratio=") and lines[1] == f"reverse  {reverse}"

    def test_a_grid_that_sees_no_input_exits_2(self, tmp_path, capsys):
        # 21 points over [-3e153, 3e153] read no input's mass: the direct
        # and reverse ratios both printed 0.00000000, a pass
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"n": 1, "factors": [{"c": 1 / 3, "rows": [[1.0]]}] * 3}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-quadrature", "--datum", str(path), "--box", "3e153", "--resolution", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: function 0 integrates to zero ")
        _one_line_no_traceback(captured.err, "grid of shape (21,) over lo=[-3e+153] hi=[3e+153]")

    @pytest.mark.parametrize("n, factors, gaps, ratios, digest", [
        (1, [{"c": 1 / 3, "rows": [[1.0]]}] * 3, ("0.00e+00", "0.00e+00"), ("1.0", "1.0"),
         "3046f1de6c700668cd254f78f79770ed1d135acfabf583382dbc795ef0a94650"),
        (2, [{"c": 0.5, "rows": [row]} for row in ([1.0, 0.0], [0.0, 1.0])] * 2, ("3.33e-16", "4.44e-16"),
         ("0.9999999999999997", "0.9999999999999996"),
         "8574c028605fdca0ae3c7ee0ae8f03febe4a90a5a6ac86cefdfca9ee166904b7"),
    ], ids=["three-identities", "four-coordinate"])
    def test_kernel_dimension_two_keeps_its_bytes(self, n, factors, gaps, ratios, digest, tmp_path, capsys):
        # the decompositions of a point form a plane: the reverse check's
        # stdout and report, byte for byte, as the whole disc's square gave them
        path = tmp_path / "datum.json"
        path.write_text(json.dumps({"n": n, "factors": factors}), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["check-quadrature", "--datum", str(path), "--resolution", "41", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            f"direct   ratio=1.00000000  (equality expected: gap {gaps[0]})\n"
            f"reverse  ratio=1.00000000  (equality expected: gap {gaps[1]})\n"
        )
        checks = ",\n".join(f'    "{name}": {{\n      "ok": true,\n      "ratio": {r}\n    }}'
                            for name, r in zip(("direct", "reverse"), ratios))
        assert out.read_text(encoding="utf-8") == (
            f'{{\n  "checks": {{\n{checks}\n  }},\n  "command": "check-quadrature",\n  "constant": 1.0,\n'
            f'  "datum_digest": "{digest}",\n  "options": {{\n    "box": 8.0,\n'
            f'    "datum": {json.dumps(str(path))},\n    "max_iter": 10000,\n    "resolution": 41,\n'
            f'    "tol": 1e-10\n  }},\n  "version": "{__version__}"\n}}\n'
        )

    def test_kernel_dimension_three_skips_the_reverse_check(self, tmp_path, capsys):
        # four identity factors on R^1 with c = 1/4: C = 1, and the
        # decompositions of a point form a 3-dimensional kernel
        path = tmp_path / "four.json"
        path.write_text(json.dumps({"n": 1, "factors": [{"c": 0.25, "rows": [[1.0]]}] * 4}), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["check-quadrature", "--datum", str(path), "--resolution", "101", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "direct   ratio=1.00000000  (equality expected: gap 0.00e+00)\n"
            "reverse  skipped (decomposition kernel has dimension 3 > 2)\n"
        )
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["constant"] == 1.0 and list(doc["checks"]) == ["direct"]
        assert doc["checks"]["direct"] == {"ratio": 1.0, "ok": True}


class TestCheckInf:
    def test_random_instances_exit_0(self, capsys):
        code = main(["check-inf", "--datum", YOUNG, "--samples", "200", "--instances", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "violations=0" in text
        assert "instances=3" in text


@pytest.mark.parametrize("argv, message", [
    (["check-gaussian", "--samples", "0"], "samples must be an integer of at least 1"),
    (["check-gaussian", "--samples", "-5"], "samples must be an integer of at least 1"),
    (["check-gaussian", "--samples", "0", "--constant", "0.9"], "samples must be an integer of at least 1"),
    (["check-inf", "--samples", "0"], "samples must be an integer of at least 1"),
    (["check-inf", "--samples", "-5"], "samples must be an integer of at least 1"),
    (["check-inf", "--instances", "0"], "instances must be an integer of at least 1"),
    (["check-inf", "--instances", "-2"], "instances must be an integer of at least 1"),
], ids=["gaussian-samples-0", "gaussian-samples-neg", "gaussian-constant-samples-0", "inf-samples-0",
        "inf-samples-neg", "inf-instances-0", "inf-instances-neg"])
def test_bad_sampling_counts_exit_2(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--datum", YOUNG, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}, got {argv[2]}\n"
    assert captured.out == ""


def test_float_instances_are_refused():
    # argparse passes only integers; a caller of the subcommand gets the count rule
    args = build_parser().parse_args(["check-inf", "--datum", YOUNG])
    args.instances = 2.5
    with pytest.raises(ValueError, match="instances must be an integer of at least 1, got 2.5"):
        cli.cmd_check_inf(args, load_datum(YOUNG))


@pytest.mark.parametrize("command", ["check-gaussian", "check-inf", "bd"])
def test_negative_seed_exits_2(command, capsys):
    # numpy's "expected non-negative integer" named no input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--datum", YOUNG, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")])
def test_bad_constant_exits_2(value, shown, capsys):
    # a NaN ratio never counts as a violation and C = +inf makes every ratio 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-gaussian", "--datum", YOUNG, "--samples", "10", "--constant", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: constant must be finite and positive, got {shown}\n"
    assert captured.out == ""


@pytest.mark.parametrize("box", ["inf", "nan", "-1", "0"])
def test_bad_box_exits_2(box, capsys):
    # an infinite or NaN box used to reach np.linspace and leak its warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-quadrature", "--datum", YOUNG, "--resolution", "21", "--box", box]) == 2
    captured = capsys.readouterr()
    _one_line_no_traceback(captured.err, "box")
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("resolution", ["1", "0", "-3", "1000000"])
def test_bad_resolution_exits_2(resolution, monkeypatch, capsys):
    # the grid used to be refused by GridFunction with a message that named
    # no option, and a million points per axis solved, then asked the direct
    # check for 7.28 TiB; both are refused before the solve
    def refuse(*args, **kwargs):
        raise AssertionError("solve called before the grid was checked")
    monkeypatch.setattr(cli, "solve", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-quadrature", "--datum", YOUNG, "--resolution", resolution]) == 2
    captured = capsys.readouterr()
    _one_line_no_traceback(captured.err, "resolution")
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, code, written", [
    (["check-gaussian", "--datum", YOUNG, "--samples", "50", "--constant", str(0.5 * YOUNG_CONSTANT)], 1, True),
    (["constant", "--datum", YOUNG, "--max-iter", "1"], 1, True),
    (["solve", "--datum", INFEASIBLE], 0, True),
    (["check-gaussian", "--datum", YOUNG, "--samples", "50", "--max-iter", "1"], 1, False),
    (["check-gaussian", "--datum", None, "--samples", "50"], 2, False),
], ids=["violated-check", "inconclusive-constant", "infinite-solve", "inconclusive-check", "malformed-datum"])
def test_report_rule(argv, code, written, tmp_path, capsys):
    # a report is written whenever the checks ran, violated or not, and by
    # solve and constant whatever the verdict; not when a verdict stops the
    # run before any check, nor on bad input
    bad, out = tmp_path / "bad.json", tmp_path / "report.json"
    bad.write_text('{"n": 2, "factors": 5}', encoding="utf-8")
    argv = [str(bad) if a is None else a for a in argv]
    assert main(argv + ["--out", str(out)]) == code
    assert out.exists() == written
    if written and argv[0] == "check-gaussian":
        assert sum(check["violations"] for check in _strict_json(out)["checks"].values()) > 0


@pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")])
@pytest.mark.parametrize("argv", [
    ["solve", "--datum", YOUNG],
    ["constant", "--datum", YOUNG],
    ["check-gaussian", "--datum", YOUNG, "--samples", "10"],
    ["check-quadrature", "--datum", YOUNG, "--resolution", "21"],
    ["young", "--p", "1.5", "--q", "1.2"],
    ["split", "--datum", YOUNG_PAIR],
], ids=lambda argv: argv[0])
def test_bad_tol_exits_2(argv, value, shown, capsys):
    # --tol inf used to report the iteration-0 estimate as converged, and
    # --tol nan or -1 ran the whole solve to exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tol must be finite and non-negative, got {shown}\n"
    assert captured.out == ""


def test_one_parser_serves_every_run(monkeypatch, capsys):
    # main builds its parser once per process; a --seed given to one run
    # does not leak into the next, which prints what a fresh process prints
    runs = [["bd", "--paths", "400", "--steps", "8", "--seed", "3"], ["bd", "--paths", "400", "--steps", "8"]]
    alone = []
    for argv in runs:
        cli._parser.cache_clear()
        assert main(argv) == 0
        alone.append(capsys.readouterr().out)
    assert alone[0] != alone[1]
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    together = []
    for argv in runs:
        assert main(argv) == 0
        together.append(capsys.readouterr().out)
    assert together == alone and len(built) == 1
    assert build_parser() is not build_parser()


class TestBd:
    def test_small_run_exit_0(self, capsys):
        code = main(["bd", "--paths", "4000", "--steps", "32"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,estimate,stderr,closed_form,z"
        assert len(lines) > 5

    @pytest.mark.parametrize("argv, message", [
        # one path has no sample standard deviation
        (["--paths", "1", "--steps", "8"], "paths must be an integer of at least 2, got 1"),
        # the ramp drift's U_T and the quadratic payoffs overflow
        (["--horizon", "1e300", "--paths", "100", "--steps", "2"], "horizon 1e+300 is out of range"),
        # every exp(g - max g) rounds to 1, so the standard error is 0
        (["--horizon", "1e-300", "--paths", "100", "--steps", "2"], "horizon 1e-300 is out of range"),
        # named before np.eye builds an empty or negative-size covariance
        (["--dim", "0", "--paths", "100", "--steps", "2"], "dim must be an integer of at least 1, got 0"),
        (["--dim", "-1", "--paths", "100", "--steps", "2"], "dim must be an integer of at least 1, got -1"),
        # (paths + steps) * n passed the budget, and np.eye asked for 728 TiB
        (["--dim", "10000000", "--paths", "2", "--steps", "1"],
         "(paths + steps + n) * n = 100000030000000 exceeds the budget 100000000"),
    ], ids=["one-path", "huge-horizon", "tiny-horizon", "dim-0", "dim-neg", "covariance-over-budget"])
    def test_bad_input_exits_2_without_warnings(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bd", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""

    def test_draw_budget_precedes_the_identity(self, monkeypatch, capsys):
        # --dim 3000 with the default 100,000 paths is over the budget; no
        # dim x dim matrix may be built before that is known
        def refuse(*args, **kwargs):
            raise AssertionError("np.eye called before the draw budget was checked")
        monkeypatch.setattr(np, "eye", refuse)
        assert main(["bd", "--dim", "3000"]) == 2
        assert "exceeds the budget" in capsys.readouterr().err

    def test_datum_covariance_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bd", "--datum", YOUNG, "--paths", "4000", "--steps", "32",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert all(row["ok"] for row in doc["rows"])
        assert doc["datum_digest"] == datum_digest(load_datum(YOUNG))


class TestYoungCommand:
    def test_exponents_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["young", "--p", "1.25", "--q", "2.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["constant"] == pytest.approx(doc["solver_constant"], abs=1e-9)
        A = np.asarray(doc["A"])
        assert np.linalg.det(A) == pytest.approx(1.0, abs=1e-10)
        assert "constant (solver):" in capsys.readouterr().out

    def test_flagship_constant(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["young", "--p", str(4 / 3), "--q", str(4 / 3), "--r", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["constant"] == pytest.approx(YOUNG_CONSTANT, abs=1e-15)

    def test_invalid_exponent_exits_2(self, capsys):
        assert main(["young", "--p", "0.5", "--q", "2.0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSplit:
    def test_coordinate_splits_of_young_pair(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main(["split", "--datum", YOUNG_PAIR, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["splits"]) == 2
        for split in doc["splits"]:
            assert split["ok"] is True
            assert split["gap"] <= 1e-8
            assert split["restricted_constant"] == pytest.approx(YOUNG_CONSTANT, abs=1e-8)
        assert "VIOLATION" not in capsys.readouterr().out

    def test_the_full_datum_is_solved_once(self, monkeypatch, capsys):
        # young_pair's two critical coordinate subspaces share one solve of
        # the datum on R^4; each pair of pieces on R^2 takes its own
        solve, seen = blgauss.structure.solve, []
        monkeypatch.setattr(blgauss.structure, "solve", lambda d, **kw: seen.append(d.n) or solve(d, **kw))
        assert main(["split", "--datum", YOUNG_PAIR]) == 0
        assert capsys.readouterr().out.count(" ok\n") == 2
        assert seen == [4, 2, 2, 2, 2]

    def test_explicit_subspace_file(self, tmp_path, capsys):
        sub = tmp_path / "subspace.json"
        sub.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0]]), encoding="utf-8")
        assert main(["split", "--datum", YOUNG_PAIR, "--subspace", str(sub)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_mapped_datum_splits_along_the_mapped_subspace(self, tmp_path, capsys):
        # young_pair with its maps B_i replaced by B_i M, split along M^-1 span(e0, e1)
        M = random_gl(4, 1e3, np.random.default_rng(7))
        datum, sub = tmp_path / "mapped.json", tmp_path / "subspace.json"
        save_datum(gl_map(load_datum(YOUNG_PAIR), M), datum)
        sub.write_text(json.dumps(np.linalg.solve(M, np.eye(4)[:, :2]).T.tolist()), encoding="utf-8")
        assert main(["split", "--datum", str(datum), "--subspace", str(sub)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(" ok")

    def test_non_critical_subspace_exits_2(self, tmp_path, capsys):
        sub = tmp_path / "subspace.json"
        sub.write_text(json.dumps([[1, 0, 0, 0]]), encoding="utf-8")
        assert main(["split", "--datum", YOUNG_PAIR, "--subspace", str(sub)]) == 2
        assert "critical" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"a": 1}', "array of numbers", id="object"),
        pytest.param("[]", "non-empty 2-d array", id="empty"),
        pytest.param("[[Infinity, 0, 0, 0]]", "non-finite", id="inf"),
        pytest.param("[[NaN, 0, 0, 0]]", "non-finite", id="nan"),
    ])
    def test_bad_subspace_exits_2(self, text, message, tmp_path, capsys):
        sub = tmp_path / "subspace.json"
        sub.write_text(text, encoding="utf-8")
        assert main(["split", "--datum", YOUNG_PAIR, "--subspace", str(sub)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        _one_line_no_traceback(err, message)

    def test_frame_has_no_critical_coordinate_subspace(self, tmp_path, capsys):
        path = tmp_path / "mercedes.json"
        save_datum(mercedes_frame_datum(), path)
        assert main(["split", "--datum", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no critical coordinate subspace" in out
        assert "only coordinate subspaces were tried" in out and "--subspace" in out


class TestColdStart:
    """The package runs on numpy alone: no command loads SciPy, the
    quadrature checks included. One fresh interpreter per case."""

    COMMANDS = """
D = sys.argv[1] + "/"
runs = [
    ["validate", "--datum", D + "young.json"],
    ["solve", "--datum", D + "young.json"],
    ["constant", "--datum", D + "young.json"],
    ["constant", "--datum", D + "infeasible.json"],
    ["young", "--p", "1.5", "--q", "1.2"],
    ["split", "--datum", D + "young_pair.json"],
    ["check-gaussian", "--datum", D + "young.json"],
    ["check-inf", "--datum", D + "young.json"],
    ["check-quadrature", "--datum", D + "young.json", "--resolution", "101"],
    ["bd", "--paths", "4000", "--steps", "32"],
]
codes = [main(argv) for argv in runs]
"""

    @staticmethod
    def _run(script: str) -> list:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(DATA)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_commands_run_with_scipy_blocked(self):
        script = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from blgauss.cli import main
from blgauss.functional_verify import GridFunction, gaussian_function, integrate
""" + self.COMMANDS + """
gf = GridFunction.from_callable(gaussian_function([[1.0]]), [-6.0], [6.0], 121)
mass = integrate(gf)
value = float(gf.f([[0.05]])[0])
print(json.dumps([codes, mass, value, gf.points_per_axis]))
"""
        codes, mass, value, shape = self._run(script)
        assert codes == [0] * 10
        assert mass == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)
        assert value == pytest.approx(np.exp(-0.5 * 0.05**2), rel=1e-6)
        assert shape == [121]

    def test_no_command_loads_scipy(self):
        script = """
import json, sys
from blgauss.cli import main
""" + self.COMMANDS + """
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
        assert self._run(script) == [[0] * 10, []]
