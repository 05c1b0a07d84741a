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


class TestDispatch:
    def test_main_calls_the_command_function_bound_at_call_time(self, capsys, monkeypatch):
        from multigauss import cli

        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args) or 7)
        code, out, _ = run(capsys, ["eval", "cdf", "mg", "--m", "2.5"])
        assert code == 7 and out == ""
        assert [(a.command, a.kind, a.family, a.m) for a in seen] == [("eval", "cdf", "mg", 2.5)]


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


class TestBivariateScales:
    """A scale whose square (a variance) overflows, underflows to zero or is
    subnormal exits 2 with a message naming the flag, before any work."""

    @pytest.mark.parametrize("command", [["sample", "mv", "--n", "3", "--seed", "1"],
                                         ["eval", "pdf", "mv", "--points", "3"]])
    @pytest.mark.parametrize("flag,value", [("--sigma1", "1e200"), ("--sigma2", "1e200"),
                                            ("--sigma1", "1e-200"), ("--sigma2", "1e-160")])
    def test_unsquarable_scale_exits_2(self, capsys, command, flag, value):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [*command, "--m", "2", flag, value])
        assert code == 2 and out == ""
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "invalid_input"
        assert payload["error"]["message"].startswith(f"{flag[2:]} = {float(value)!r} ")

    def test_largest_and_smallest_squarable_scales_run(self, capsys):
        for flag, value in (("--sigma1", "1e154"), ("--sigma2", "1.5e-154")):
            code, _, err = run(capsys, ["eval", "pdf", "mv", "--m", "2", "--points", "3",
                                        "--from=-1", "--to", "1", flag, value])
            assert code == 0, err


class TestNormalizationExitCodes:
    def test_underflowing_reflection_constant(self, capsys):
        # a fractional M above 128 is beyond the Mellin rule's reach: refused
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


class TestRowCap:
    @pytest.mark.parametrize("argv", [
        ["eval", "pdf", "mg", "--points", "100000000000"],
        ["eval", "quantile", "mg", "--m", "2", "--points", "100000000000"],
        ["eval", "pdf", "mv", "--points", "4000"],
        ["sample", "mg", "--m", "2", "--n", "100000000000", "--seed", "1"],
        ["sample", "mv", "--m", "2", "--n", "100000000000", "--seed", "1"],
    ])
    def test_too_many_rows_exit_2_before_allocating(self, capsys, monkeypatch, argv):
        import numpy as np

        from multigauss import MultiGauss, MvMultiGauss

        def allocates(*args, **kwargs):
            raise AssertionError("a grid or a sample was allocated")

        monkeypatch.setattr(np, "linspace", allocates)
        monkeypatch.setattr(MultiGauss, "sample", allocates)
        monkeypatch.setattr(MvMultiGauss, "sample", allocates)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        payload = json.loads(err.splitlines()[0])
        assert payload["error"]["type"] == "invalid_input"
        assert "a table holds at most 10000000" in payload["error"]["message"]

    def test_the_cap_itself_is_allowed(self, capsys, monkeypatch):
        from multigauss import cli

        monkeypatch.setattr(cli, "_MAX_ROWS", 9)
        assert run(capsys, ["eval", "pdf", "mv", "--points", "3"])[0] == 0
        assert run(capsys, ["eval", "pdf", "mg", "--points", "9"])[0] == 0
        assert run(capsys, ["sample", "mg", "--n", "9", "--seed", "1"])[0] == 0
        assert run(capsys, ["eval", "pdf", "mv", "--points", "4"])[0] == 2
        assert run(capsys, ["eval", "pdf", "mg", "--points", "10"])[0] == 2
        assert run(capsys, ["sample", "mg", "--n", "10", "--seed", "1"])[0] == 2


class TestDensityOverflow:
    def test_infinite_density_exits_3_without_a_warning(self, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["eval", "pdf", "mg", "--sigma", "1e-310",
                                          "--points", "5"])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "series_not_converged"
        assert "non-finite output" in payload["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["eval", "pdf", "mg", "--m", "1e-320", "--points", "5"],
        ["eval", "cdf", "mg", "--m", "1e-310"],
        ["eval", "pdf", "mg", "--m", "5e-324"],
        ["eval", "pdf", "mv", "--m", "1e-310", "--points", "5"],
        ["sample", "lmg", "--m", "1e-310", "--n", "3", "--seed", "1"],
    ])
    def test_subnormal_shape_exits_2_naming_the_bound(self, capsys, argv):
        """A subnormal ``M`` has a subnormal constant, whose reciprocal overflows."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "invalid_input"
        assert "at least 2.2250738585072014e-308, the smallest normal float" in \
            payload["error"]["message"]

    def test_smallest_normal_shape_runs(self, capsys):
        code, out, _ = run(capsys, ["eval", "cdf", "mg", "--m", "2.2250738585072014e-308",
                                    "--points", "5"])
        assert code == 0 and len(out.splitlines()) == 6

    @pytest.mark.parametrize("argv,bad", [
        (["sample", "lmg", "--m", "2", "--sigma", "1e3", "--n", "3", "--seed", "1"],
         "non-finite or non-positive"),
        (["sample", "mg", "--m", "2", "--sigma", "1e308", "--n", "3", "--seed", "1"],
         "non-finite"),
    ])
    def test_draw_beyond_the_float_range_exits_3_without_a_warning(self, capsys, argv, bad):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "series_not_converged"
        # the first bad row's cells as Python scalars, in column order
        assert payload["error"]["message"] == (
            bad + " output at {'x': 2.0, 'value': inf, 'series': 'M=2'}")

    def test_library_density_below_the_float_range_is_silent(self):
        import warnings

        import numpy as np

        from multigauss import MultiGauss, MvMultiGauss

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # zero normalizations: a scalar point gets inf, not ZeroDivisionError
            assert MultiGauss(0.0, 1e-320, 1e-10).pdf(0.0) == math.inf
            mv = MvMultiGauss(np.zeros(3), 1e-250 * np.eye(3), 2.0)
            assert mv.pdf(np.zeros(3)) == math.inf
            assert np.all(mv.pdf(np.zeros((2, 3))) == math.inf)


class TestBlockedEmit:
    """Tables are formatted and written in blocks of `cli._EMIT_BLOCK` rows."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9])
    def test_blocks_join_to_the_bytes_of_the_whole_table(self, capsys, monkeypatch, fmt, rows):
        import numpy as np

        from multigauss import cli

        xs, values = np.linspace(-1.0, 1.0, rows), np.arange(rows) / 7.0
        table = cli._table(x=xs, value=values, series="M=2.5")
        cells = [(x, v, "M=2.5") for x, v in zip(xs.tolist(), values.tolist())]
        if fmt == "json":
            want = json.dumps([dict(zip(("x", "value", "series"), c)) for c in cells])
        else:
            want = "x,value,series\n" + "".join(f"{x:.17g},{v:.17g},{s}\n" for x, v, s in cells)
        monkeypatch.setattr(cli, "_EMIT_BLOCK", 3)
        cli._emit(table, fmt, out_path=None)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_the_table(self, tmp_path, fmt):
        """Emitting eight blocks' rows peaks no higher than emitting one block's.

        Formatting the whole table at once held ~300 (CSV) to ~500 (JSON)
        bytes a row: 30-60 MB more for the seven extra blocks of 16,384.
        """
        peaks = fresh_peaks_kb(f"""
import numpy as np
from multigauss import cli
rows = cli._EMIT_BLOCK = 16_384
xs, values = np.arange(1.0, 8 * rows + 1), np.random.default_rng(1).random(8 * rows)
for part in (slice(rows), slice(None)):
    cli._emit(cli._table(x=xs[part], value=values[part], series="M=2.5"), {fmt!r},
              out_path={str(tmp_path / "out")!r})
    mark()
""")
        assert peaks[1] - peaks[0] < 8 * 1024

    def test_surface_figure_peaks_little_above_the_import(self, tmp_path):
        """``figure 5 --format json`` (4 files of 40,401 rows) peaks at most 9 MB
        above the imported CLI (~6 MB measured); a record-array copy of each
        table peaked ~12 MB above it, and blocks of 65,536 rows, each column's
        text made whole, ~28 MB."""
        peaks = fresh_peaks_kb(f"""
from multigauss import cli
mark()
assert cli.main(["figure", "5", "--format", "json", "--out-dir", {str(tmp_path)!r}]) == 0
mark()
""")
        assert peaks[1] - peaks[0] <= 9 * 1024

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block", [2, 3, 8])
    def test_scalar_columns_write_as_their_broadcast(self, capsys, monkeypatch, fmt, block):
        """A scalar column, held once, writes the bytes of the same value on every row."""
        import numpy as np

        from multigauss import cli

        monkeypatch.setattr(cli, "_EMIT_BLOCK", block)
        xs = np.linspace(-1.0, 1.0, 7)
        texts = []
        for scale, flag, label in ((0.1, True, 'say "a, b"'),
                                   (np.full(7, 0.1), np.full(7, True), np.full(7, 'say "a, b"'))):
            cli._emit(cli._table(x=xs, scale=scale, flag=flag, series=label), fmt, out_path=None)
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].count("0.1") == 7

    def test_table_holds_its_columns_uncopied(self):
        """A float column is the caller's array; the label is one 0-d value."""
        import numpy as np

        from multigauss import cli

        xs, values = np.linspace(-1.0, 1.0, 5), np.arange(5) / 7.0
        draws = np.arange(10.0).reshape(5, 2)
        table = cli._table(x=xs, value=values, x2=draws[:, 1], series="M=2.5")
        assert len(table) == 5 and list(table.columns) == ["x", "value", "x2", "series"]
        assert table.columns["x"] is xs and table.columns["value"] is values
        assert np.shares_memory(table.columns["x2"], draws)
        label = table.columns["series"]
        assert label.shape == () and label.item() == "M=2.5"


def fresh_peaks_kb(code: str) -> list:
    """Run ``code`` in a fresh interpreter; each ``mark()`` in it reports the
    peak resident memory so far, in kB.

    The peak is ``VmHWM``, which starts anew at ``exec``.  ``ru_maxrss`` would
    not do: Linux carries it over from the parent, so a child of a large
    pytest process would start at that process's peak.
    """
    import os
    import subprocess
    import sys

    import multigauss

    status = "/proc/self/status"
    if not os.path.exists(status):
        pytest.skip(f"no {status} to read the peak from")
    src = os.path.dirname(os.path.dirname(os.path.abspath(multigauss.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    mark = ("import re\n"
            "def mark():\n"
            f"    with open({status!r}) as f:\n"
            "        print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read()).group(1))\n")
    out = subprocess.run([sys.executable, "-c", mark + code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return [int(v) for v in out.split()]
