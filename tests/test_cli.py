"""Command-line interface tests.

Each test drives ``pearcey.cli.main`` in-process and inspects stdout,
stderr, files, and exit codes.  Exit conventions: 0 success, 2 usage,
3 domain/convergence failure, 4 I/O failure.
"""

import argparse
import cmath
import json
import math

import pytest

from pearcey import (build_table, classify_region, cli, normalize,
                     pearcey_asymptotic, pearcey_quadrature,
                     stokes_classification)
from pearcey.asymptotics import pearcey_branch
from pearcey.cli import main, parse_complex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseComplex:
    @pytest.mark.parametrize("text,expected", [
        ("1+2i", 1 + 2j),
        ("-i", -1j),
        ("3", 3 + 0j),
        ("2.5e-3i", 2.5e-3j),
        ("i", 1j),
        ("1 + 2i", 1 + 2j),
        ("10J", 10j),
        ("(1+2j)", 1 + 2j),
        ("inf", complex(math.inf, 0.0)),
        ("-inf", complex(-math.inf, 0.0)),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["abc", "20e", "1+2k", ""])
    def test_rejected_forms(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)


class TestEval:
    def test_json_asymptotic(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "asymptotic"
        assert payload["region"] == "CASE3"
        assert payload["order"] == 5
        assert payload["warnings"] == []
        expected = pearcey_asymptotic(1.0, 10.0).value
        assert payload["value"]["re"] == expected.real
        assert payload["value"]["im"] == expected.imag

    def test_auto_routes_small_modulus_to_quadrature(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "quadrature"
        assert payload["order"] is None
        assert payload["first_omitted_magnitude"] is None
        expected = pearcey_quadrature(1.0, 6.0)
        assert payload["value"]["re"] == expected.real

    def test_auto_routes_large_modulus_to_expansion(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y-mod", "20",
                           "--y-arg-pi", "0.25", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "asymptotic"
        assert payload["region"] == "CASE2"

    def test_polar_and_literal_forms_agree(self, capsys):
        _, out_polar, _ = run(capsys, "eval", "--x", "1", "--y-mod", "10",
                              "--y-arg-pi", "0", "--json")
        _, out_literal, _ = run(capsys, "eval", "--x", "1", "--y", "10",
                                "--json")
        assert json.loads(out_polar)["value"] == json.loads(out_literal)["value"]

    def test_value_round_trips_through_literal(self, capsys):
        _, first, _ = run(capsys, "eval", "--x", "1", "--y-mod", "20",
                          "--y-arg-pi", "0.25", "--json")
        y = json.loads(first)["y"]
        literal = f"{y['re']!r}+{y['im']!r}i"
        _, second, _ = run(capsys, "eval", "--x", "1", "--y", literal,
                           "--json")
        assert json.loads(second)["value"] == json.loads(first)["value"]

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "1", "--y", "10")
        assert code == 0
        assert "method = asymptotic" in out
        assert "region = CASE3" in out
        assert "first omitted term" in out

    def test_small_y_warning_surfaces(self, capsys):
        _, out, _ = run(capsys, "eval", "--x", "1", "--y", "4",
                        "--method", "asymptotic")
        assert "warning:" in out and "below 5" in out

    def test_quadrature_strategies_agree(self, capsys):
        _, out_ct, _ = run(capsys, "eval", "--x", "1", "--y", "6",
                           "--method", "quadrature", "--json")
        _, out_ra, _ = run(capsys, "eval", "--x", "1", "--y", "6",
                           "--method", "quadrature", "--strategy",
                           "real-axis", "--json")
        v_ct = json.loads(out_ct)["value"]
        v_ra = json.loads(out_ra)["value"]
        assert v_ct["re"] == pytest.approx(v_ra["re"], rel=1e-9)

    def test_quadrature_at_large_positive_x(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "30", "--y", "3",
                           "--method", "quadrature", "--json")
        assert code == 0
        assert json.loads(out)["value"]["re"] == pytest.approx(
            0.150022665449, abs=1e-12)

    def test_origin_needs_quadrature(self, capsys):
        code, _, err = run(capsys, "eval", "--x", "1", "--y", "0",
                           "--method", "asymptotic")
        assert code == 3
        assert err.startswith("error:")

    def test_origin_auto_falls_back(self, capsys):
        code, out, _ = run(capsys, "eval", "--x", "0", "--y", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "quadrature"
        assert payload["value"]["re"] == pytest.approx(0.9064024770554771,
                                                       abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("eval", "--x", "nan", "--y", "10"),
        ("eval", "--x", "1", "--y", "nan"),
        ("eval", "--x", "1", "--y-mod", "inf", "--method", "asymptotic"),
        ("eval", "--x", "1", "--y-mod", "nan"),
        ("eval", "--x", "inf", "--y", "10"),
        ("eval", "--x", "1", "--y", "-inf"),
    ])
    def test_non_finite_input_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_overflow_is_a_domain_failure(self, capsys):
        code, out, err = run(capsys, "eval", "--x", "1e200", "--y", "10")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")

    def test_quadrature_underflow_is_a_domain_failure(self, capsys):
        code, out, err = run(capsys, "eval", "--x", "1", "--y", "1e4",
                             "--method", "quadrature")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "double-precision" in err

    def test_unconverged_contour_is_a_convergence_failure(self, capsys):
        # |P| is about 5e-50 here; the contour's error is 1e-36
        code, out, err = run(capsys, "eval", "--x",
                             "-0.6451586828952784-35.2033173536142i", "--y",
                             "-83.87862811702283+100.47822639120726i",
                             "--method", "quadrature")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "stalled" in err

    def test_order_above_cap_names_the_given_order(self, capsys):
        code, out, err = run(capsys, "eval", "--x", "1", "--y", "10",
                             "--order", "64")
        assert code == 3
        assert out == ""
        assert "order 64" in err and "cap 63" in err

    @pytest.mark.parametrize("argv", [
        ("eval", "--x", "1"),
        ("eval", "--x", "1", "--y", "5", "--y-mod", "5"),
        ("eval", "--x", "1", "--y", "20e"),
    ])
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2


class TestTable:
    def test_csv_shape(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        code, _, _ = run(capsys, "table", "--paper-table", "1",
                         "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "y_label,n,rel_error"
        assert len(lines) == 43
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "0"
        assert 0 < float(first[2]) < 1

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "table", "--paper-table", "2", "--out", str(a))
        run(capsys, "table", "--paper-table", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--paper-table", "1",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 42
        assert set(rows[0]) == {"y_label", "n", "rel_error"}
        labels = {row["y_label"] for row in rows}
        assert "20e^{i*pi/4}" in labels and "20e^{-3i*pi/8}" in labels

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "--paper-table", "3"])
        assert info.value.code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "table", "--paper-table", "1",
                           "--out", "/nonexistent_dir_xyz/t.csv")
        assert code == 4
        assert err.startswith("error:")


class TestCoeffs:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--x", "1", "--max-order", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,c,A"
        assert len(lines) == 4
        zero = lines[1].split(",")
        assert zero[1] == "1.0+0.0i" and zero[2] == "1.0+0.0i"
        assert lines[2].split(",")[2].startswith("0.18665497")

    def test_odd_coefficients_vanish_at_symmetric_x(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--x", "0", "--max-order", "1")
        first_order = out.splitlines()[2].split(",")
        assert complex(first_order[1].replace("i", "j")) == 0
        assert complex(first_order[2].replace("i", "j")) == 0

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "coeffs.csv"
        code, _, _ = run(capsys, "coeffs", "--x", "-2", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("n,c,A")

    def test_order_above_cap(self, capsys):
        code, _, err = run(capsys, "coeffs", "--x", "1", "--max-order", "65")
        assert code == 3
        assert "cap" in err

    def test_non_finite_x_rejected(self, capsys):
        code, out, err = run(capsys, "coeffs", "--x", "nan")
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_overflow_is_a_domain_failure(self, capsys):
        code, out, err = run(capsys, "coeffs", "--x", "1e120")
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


class TestMap:
    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, "map", "--x", "1", "--y-mod", "20",
                           "--grid-arg-steps", "9")
        assert code == 0
        lines = out.splitlines()
        header = "theta,region,dominant,on_anti_stokes,abs_p1,abs_p2"
        assert lines[0] == header
        assert len(lines) == 10

        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][0]) == pytest.approx(-math.pi / 2, abs=1e-15)
        assert rows[0][1:4] == ["CASE1", "P1", "False"]
        # second node is the lower anti-Stokes ray
        assert float(rows[1][0]) == pytest.approx(-3 * math.pi / 8, abs=1e-15)
        assert rows[1][3] == "True"
        assert rows[2][1] == "CASE1"
        center = rows[4]
        assert float(center[0]) == 0.0
        assert center[1:4] == ["CASE3", "BOTH", "False"]
        assert float(center[4]) == float(center[5])

    def test_rows_match_library(self, capsys):
        x = complex(-2, 0.5)
        code, out, _ = run(capsys, "map", "--x", "-2+0.5i", "--y-mod", "15",
                           "--order", "12", "--grid-arg-steps", "31")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 31
        for theta, region, dominant, on_anti, p1, p2 in rows:
            y = 15.0 * cmath.exp(1j * float(theta))
            stokes = stokes_classification(y)
            assert region == classify_region(normalize(x, y)).value
            assert dominant == stokes.dominant.value
            assert on_anti == str(stokes.on_anti_stokes)
            assert p1 == repr(abs(pearcey_branch(1, x, y, 12)))
            assert p2 == repr(abs(pearcey_branch(2, x, y, 12)))

    def test_one_table_per_sweep(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_table(*args)
        monkeypatch.setattr(cli, "build_table", counted)
        code, _, _ = run(capsys, "map", "--x", "1", "--y-mod", "20")
        assert code == 0
        assert len(calls) == 1

    def test_failure_writes_nothing(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        code, _, err = run(capsys, "map", "--x", "1", "--y-mod", "20",
                           "--order", "65", "--out", str(target))
        assert code == 3
        assert "cap" in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["--x", "1", "--y-mod", "nan"], ["--x", "1", "--y-mod", "inf"],
        ["--x", "nan", "--y-mod", "20"]])
    def test_non_finite_input_rejected(self, capsys, argv):
        code, out, err = run(capsys, "map", *argv)
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_validation(self, capsys):
        for argv in (["map", "--x", "1", "--y-mod", "20",
                      "--grid-arg-steps", "2"],
                     ["map", "--x", "1", "--y-mod", "-5"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        code, _, _ = run(capsys, "map", "--x", "-2", "--y-mod", "15",
                         "--grid-arg-steps", "5", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 6
