"""Tests for the command-line interface (in-process invocation)."""

import csv
import json
import math

import pytest

from multigauss.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(text.splitlines()))


class TestEval:
    def test_pdf_center_value(self, capsys):
        code, out, _ = run(capsys, ["eval", "pdf", "mg", "--mu", "0", "--sigma", "1",
                                    "--m", "1", "--from", "-4", "--to", "4",
                                    "--points", "9"])
        assert code == 0
        rows = parse_csv(out)
        assert rows[0].keys() == {"x", "value", "series"}
        center = next(r for r in rows if float(r["x"]) == 0.0)
        assert float(center["value"]) == pytest.approx(0.39894228, abs=1e-8)
        assert center["series"] == "M=1"

    def test_cdf_median(self, capsys):
        code, out, _ = run(capsys, ["eval", "cdf", "mg", "--m", "10", "--from", "-1",
                                    "--to", "1", "--points", "3"])
        rows = parse_csv(out)
        center = next(r for r in rows if float(r["x"]) == 0.0)
        assert float(center["value"]) == 0.5

    def test_lmg_first_moment(self, capsys):
        code, out, _ = run(capsys, ["eval", "moments", "lmg", "--m", "1", "--k", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["value"]) == pytest.approx(math.exp(0.5), rel=1e-14)

    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run(capsys, ["eval", "pdf", "mg", "--m", "2", "--from", "-1",
                                    "--to", "1", "--points", "3"])
        rows = parse_csv(out)
        from multigauss import MultiGauss

        d = MultiGauss(0.0, 1.0, 2)
        for r in rows:
            assert float(r["value"]) == float(d.pdf(float(r["x"])))

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["eval", "pdf", "mg", "--m", "2", "--points", "5",
                                    "--format", "json"])
        data = json.loads(out)
        assert all(set(row) == {"x", "value", "series"} for row in data)
        xs = [row["x"] for row in data]
        assert xs == sorted(xs)

    def test_cf_emits_real_and_imaginary_series(self, capsys):
        code, out, _ = run(capsys, ["eval", "cf", "mg", "--mu", "1", "--m", "2",
                                    "--points", "5"])
        rows = parse_csv(out)
        labels = {r["series"] for r in rows}
        assert labels == {"M=2:re", "M=2:im"}

    def test_mv_grid(self, capsys):
        code, out, _ = run(capsys, ["eval", "pdf", "mv", "--m", "1", "--rho", "0",
                                    "--points", "3"])
        rows = parse_csv(out)
        assert rows[0].keys() == {"x1", "x2", "value", "series"}
        center = next(r for r in rows
                      if float(r["x1"]) == 0.0 and float(r["x2"]) == 0.0)
        assert float(center["value"]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_quantile_grid_validation(self, capsys):
        code, _, err = run(capsys, ["eval", "quantile", "mg", "--m", "1",
                                    "--from", "-0.5", "--to", "0.5", "--points", "3"])
        assert code == 2
        assert "error" in err


class TestExitCodes:
    def test_invalid_sigma(self, capsys):
        code, _, err = run(capsys, ["eval", "pdf", "mg", "--sigma", "-1"])
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]["type"] == "invalid_input"

    def test_invalid_rho(self, capsys):
        code, _, _ = run(capsys, ["eval", "pdf", "mv", "--rho", "1.5"])
        assert code == 2

    def test_lmg_mgf_rejected(self, capsys):
        code, _, _ = run(capsys, ["eval", "mgf", "lmg", "--m", "2"])
        assert code == 2

    def test_non_converged_series(self, capsys):
        code, _, err = run(capsys, ["eval", "pdf", "mg", "--m", "60"])
        assert code == 3
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "series_not_converged"
        assert "condition" in payload["error"]["message"]

    def test_unknown_figure(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["figure", "11", "--out-dir", str(tmp_path)])
        assert code == 2


class TestSample:
    def test_byte_identical_runs(self, capsys):
        argv = ["sample", "mg", "--m", "1", "--n", "5", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_lmg_positive(self, capsys):
        code, out, _ = run(capsys, ["sample", "lmg", "--m", "2", "--n", "50",
                                    "--seed", "7"])
        rows = parse_csv(out)
        assert all(float(r["value"]) > 0.0 for r in rows)

    def test_mv_columns(self, capsys):
        code, out, _ = run(capsys, ["sample", "mv", "--m", "10", "--n", "8",
                                    "--seed", "3", "--rho", "0.5"])
        rows = parse_csv(out)
        assert rows[0].keys() == {"x", "x1", "x2", "series"}
        assert len(rows) == 8

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "samples.csv"
        code, out, _ = run(capsys, ["sample", "mg", "--m", "1", "--n", "3",
                                    "--seed", "1", "--out", str(target)])
        assert code == 0 and out == ""
        assert len(parse_csv(target.read_text())) == 3


class TestFigure:
    def test_figure_one_files(self, capsys, tmp_path):
        code, _, err = run(capsys, ["figure", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 8  # 4 density + 4 distribution series
        assert "fig1_a_M1.csv" in names and "fig1_b_M40.csv" in names
        rows = parse_csv((tmp_path / "fig1_a_M1.csv").read_text())
        center = next(r for r in rows if abs(float(r["x"])) < 1e-12)
        assert float(center["value"]) == pytest.approx(0.39894228, abs=1e-8)

    def test_figure_five_panels(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["figure", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig5_a_M1_rho0.csv", "fig5_b_M1_rho0p7.csv",
                         "fig5_c_M40_rho0.csv", "fig5_d_M40_rho0p7.csv"]

    def test_fractional_figure(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["figure", "6", "--out-dir", str(tmp_path)])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "fig6_a_M0p025.csv" in names


class TestVerify:
    def test_series_suite_passes(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "series",
                                      "--format", "json"])
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)
        assert "checks passed" in err


class TestNegativeExponentValues:
    @pytest.mark.parametrize("spaced,joined", [
        (["eval", "pdf", "mg", "--m", "2", "--mu", "-5e-05", "--points", "3"],
         ["eval", "pdf", "mg", "--m", "2", "--mu=-5e-05", "--points", "3"]),
        (["eval", "pdf", "mv", "--m", "2", "--rho", "-5e-01", "--points", "3"],
         ["eval", "pdf", "mv", "--m", "2", "--rho=-5e-01", "--points", "3"]),
        (["sample", "mv", "--m", "2", "--mu1", "-1.5E+1", "--rho", "-2e-1", "--n", "3",
          "--seed", "1"],
         ["sample", "mv", "--m", "2", "--mu1=-1.5E+1", "--rho=-2e-1", "--n", "3",
          "--seed", "1"]),
    ])
    def test_accepted_after_a_flag(self, capsys, spaced, joined):
        code, out, err = run(capsys, spaced)
        assert code == 0, err
        assert out == run(capsys, joined)[1]

    def test_negative_sigma1_is_still_invalid(self, capsys):
        code, _, err = run(capsys, ["eval", "pdf", "mv", "--sigma1", "-1e-3"])
        assert code == 2
        assert "sigma1" in err

    def test_exponent_value_lands_in_its_flag(self, capsys):
        code, out, _ = run(capsys, ["eval", "pdf", "mg", "--mu", "-5e-05", "--from",
                                    "-5e-05", "--to", "1", "--points", "2"])
        assert code == 0
        first = parse_csv(out)[0]
        assert float(first["x"]) == -5e-05
        assert float(first["value"]) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                      rel=1e-15)


class TestNormalizationExitCodes:
    def test_underflowing_reflection_constant(self, capsys):
        # math.gamma(1 - M) underflows at M = 200.3
        code, _, err = run(capsys, ["eval", "pdf", "mg", "--m", "200.3"])
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["type"] == "series_not_converged"

    def test_inexact_integer_shape_mv(self, capsys):
        code, _, err = run(capsys, ["eval", "pdf", "mv", "--m", "55"])
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["type"] == "series_not_converged"


class TestNonFiniteAndGridBounds:
    def test_non_finite_moment_exits_3(self, capsys):
        code, out, err = run(capsys, ["eval", "moments", "mg", "--m", "2", "--sigma", "1e3",
                                      "--k", "120"])
        assert code == 3 and out == ""
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "series_not_converged"
        assert "non-finite output" in payload["error"]["message"]

    @pytest.mark.parametrize("bound", [["--to", "inf"], ["--from", "nan"]])
    def test_mv_grid_bounds_must_be_finite(self, capsys, bound):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["eval", "pdf", "mv", "--m", "2", *bound])
        assert code == 2 and out == ""
        assert not caught
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "invalid_input"
        assert "grid bounds must be finite" in payload["error"]["message"]

    def test_mv_x2_axis_is_checked(self, capsys):
        code, out, err = run(capsys, ["eval", "pdf", "mv", "--m", "2", "--points", "3",
                                      "--mu2=1.7e308", "--sigma2=1e150"])
        assert code == 2 and out == ""
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "invalid_input"
        assert "grid bounds must be finite with from < to" in payload["error"]["message"]
