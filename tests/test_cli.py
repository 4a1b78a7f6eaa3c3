import csv
import io
import json
import pathlib
import time

import numpy as np
import pytest

from envlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_tables(text):
    """Read the sectioned CSV back into {name: (columns, rows)}."""
    tables = {}
    current = None
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        if row[0] == "table":
            current = row[1]
            tables[current] = {"columns": None, "rows": []}
        elif tables[current]["columns"] is None:
            tables[current]["columns"] = row
        else:
            tables[current]["rows"].append(row)
    return tables


class TestEinselect:
    def test_columns_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "einselect", "--amplitudes", "0.6,0.8")
        assert code == 0
        tables = parse_tables(out)
        t = tables["einselect"]
        assert t["columns"] == ["branch_index", "population",
                                "offdiag_max", "mi_sae_bits"]
        pops = [float(r[1]) for r in t["rows"]]
        np.testing.assert_allclose(pops, [0.36, 0.64], atol=1e-9)
        assert all(float(r[2]) < 1e-12 for r in t["rows"])

    def test_single_branch_no_correlations(self, capsys):
        code, out, _ = run_cli(capsys, "einselect", "--amplitudes", "1,0")
        assert code == 0
        t = parse_tables(out)["einselect"]
        for r in t["rows"]:
            assert float(r[2]) < 1e-12
            assert float(r[3]) < 1e-12


class TestRedundancy:
    def test_ratio_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "redundancy", "--amplitudes", "1,1", "--env-count", "6")
        assert code == 0
        t = parse_tables(out)["redundancy"]
        assert t["columns"] == ["fragment_index", "mi_bits",
                                "cumulative_bits", "ratio"]
        assert len(t["rows"]) == 6
        assert abs(float(t["rows"][-1][3]) - 6.0) < 1e-9
        assert abs(float(t["rows"][-1][2]) - 6.0) < 1e-9


class TestBorn:
    def test_commensurate_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes",
            f"{np.sqrt(2/3)},{np.sqrt(1/3)}")
        assert code == 0
        t = parse_tables(out)["born"]
        assert t["columns"] == ["outcome_index", "p_counting",
                                "p_amplitude_squared", "abs_gap"]
        got = [float(r[1]) for r in t["rows"]]
        np.testing.assert_allclose(got, [2 / 3, 1 / 3], atol=1e-9)
        assert all(float(r[3]) < 1e-9 for r in t["rows"])

    def test_incommensurate_falls_back_to_bounds(self, capsys):
        p = np.cos(1.0) ** 2
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes",
            f"{np.sqrt(p)},{np.sqrt(1 - p)}", "--m-cap", "200")
        assert code == 0
        tables = parse_tables(out)
        assert "born" not in tables
        t = tables["bounds"]
        assert t["columns"] == ["m_used", "outcome_index", "lower",
                                "upper", "width"]
        ms = sorted({int(r[0]) for r in t["rows"]})
        assert ms == [100, 1000, 10000]
        for r in t["rows"]:
            assert float(r[4]) <= 2 / int(r[0]) + 1e-12

    def test_m_1000_counts_below_default_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes",
            "0.0316227766016838,0.9994998749374609")
        assert code == 0
        rows = parse_tables(out)["born"]["rows"]
        assert [r[1] for r in rows] == ["0.001", "0.999"]

    def test_unequal_terms_rejected_quickly(self, capsys):
        # the loose tolerance admits M = 8909, whose terms are unequal
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "0.5774,0.8165",
            "--tolerance", "1e-6")
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert json.loads(err)["fields"]["scenario"].startswith(
            "NotEqualAmplitude: ")

    @pytest.mark.parametrize("amps, want", [
        ("1,0", [("1", "1"), ("0", "0")]),
        ("0,0.6,0.8", [("0", "0"), ("0.36", "0.36"), ("0.64", "0.64")]),
    ])
    def test_zero_amplitude_outcomes_reported(self, capsys, amps, want):
        code, out, _ = run_cli(capsys, "born", "--amplitudes", amps)
        assert code == 0
        tables = parse_tables(out)
        assert "born" not in tables
        rows = tables["bounds"]["rows"]
        assert [r[0] for r in rows] == [m for m in ("100", "1000", "10000")
                                        for _ in want]
        assert [r[1] for r in rows] == [str(k) for k in range(len(want))] * 3
        assert [(r[2], r[3]) for r in rows] == want * 3
        assert [r[4] for r in rows] == ["0"] * len(rows)

    def test_bounds_denominator_beyond_dimension_guard(self, capsys):
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes", "0.54030231,0.84147098",
            "--bounds-m", "1000000")
        assert code == 0
        rows = parse_tables(out)["bounds"]["rows"]
        assert [(r[0], r[4]) for r in rows] == [("1000000", "1e-06")] * 2

    def test_explicit_bounds_request(self, capsys):
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--bounds-m", "50")
        assert code == 0
        tables = parse_tables(out)
        assert {int(r[0]) for r in tables["bounds"]["rows"]} == {50}


class TestEnvariance:
    def test_verdict_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "envariance", "--amplitudes", "1,1")
        assert code == 0
        t = parse_tables(out)["envariance"]
        verdicts = {r[0]: r for r in t["rows"]}
        assert int(verdicts["schmidt_phase"][1]) == 1
        assert float(verdicts["schmidt_phase"][2]) < 1e-10
        assert int(verdicts["system_swap_01"][1]) == 1

    def test_random_unitary_fails_on_skewed_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "envariance", "--amplitudes", "0.9,0.435889894354")
        assert code == 0
        t = parse_tables(out)["envariance"]
        verdicts = {r[0]: r for r in t["rows"]}
        assert int(verdicts["random_system_unitary"][1]) == 0
        assert float(verdicts["random_system_unitary"][3]) > 1e-10


class TestCascade:
    def test_pointer_vs_conjugate(self, capsys):
        code, out, _ = run_cli(
            capsys, "cascade", "--amplitudes", "1,1", "--env-count", "3")
        assert code == 0
        t = parse_tables(out)["cascade"]
        assert len(t["rows"]) == 3
        for r in t["rows"]:
            assert abs(float(r[1]) - 1.0) < 1e-9
            assert float(r[2]) < 1e-9


class TestPlumbing:
    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "redundancy", "--amplitudes", "1,1",
            "--env-count", "-3")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize("kind", ["born", "einselect", "envariance",
                                      "redundancy", "cascade"])
    @pytest.mark.parametrize("amps", ["nan,1", "inf,1", "1,-inf"])
    def test_non_finite_amplitudes(self, capsys, kind, amps):
        code, _, err = run_cli(capsys, kind, "--amplitudes", amps)
        assert code == 2
        assert json.loads(err)["fields"] == {
            "amplitudes": "amplitudes must be finite"}

    @pytest.mark.parametrize("flag, value, field", [
        ("--amplitudes", "abc", "amplitudes"),
        ("--env-count", "x", "env_count"),
        ("--overlap", "x", "overlap"),
        ("--m-cap", "1.5", "m_cap"),
        ("--tolerance", "1e-", "tolerance"),
        ("--bounds-m", "10,a", "bounds_m"),
        ("--format", "xml", "format"),
    ])
    def test_bad_flag_value(self, capsys, flag, value, field):
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", flag, value)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert list(doc["fields"]) == [field]

    def test_one_token_negative_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "einselect", "--amplitudes=-0.6,0.8")
        assert code == 0
        pops = [float(r[1]) for r in parse_tables(out)["einselect"]["rows"]]
        np.testing.assert_allclose(pops, [0.36, 0.64], atol=1e-9)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, capsys, tol):
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--tolerance", tol)
        assert code == 2
        assert json.loads(err)["fields"] == {
            "tolerance": "tolerance must be finite"}

    def test_non_finite_config_amplitudes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"amplitudes": [NaN, 1]}')
        code, _, err = run_cli(capsys, "born", "--config", str(cfg))
        assert code == 2
        assert "amplitudes" in json.loads(err)["fields"]

    def test_missing_amplitudes(self, capsys):
        code, _, err = run_cli(capsys, "born")
        assert code == 2
        assert "amplitudes" in json.loads(err)["fields"]

    def test_dimension_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("ENVLAB_DIM_GUARD", "8")
        code, _, err = run_cli(
            capsys, "redundancy", "--amplitudes", "1,1",
            "--env-count", "8")
        assert code == 3
        assert json.loads(err)["error"] == "dimension_guard"

    def test_io_failure_exit_code(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--out", str(target))
        assert code == 4
        assert json.loads(err)["error"] == "io"

    def test_bad_dimension_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ENVLAB_DIM_GUARD", "abc")
        code, _, err = run_cli(capsys, "born", "--amplitudes", "1,1")
        assert code == 2
        assert list(json.loads(err)["fields"]) == ["ENVLAB_DIM_GUARD"]

    @pytest.mark.parametrize("doc, field", [
        ({"amplitudes": [1, 1], "env_count": "x"}, "env_count"),
        ({"amplitudes": "1,1"}, "amplitudes"),
        ([1, 1], "config"),
    ])
    def test_mistyped_config(self, capsys, tmp_path, doc, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "redundancy", "--config", str(cfg))
        assert code == 2
        assert list(json.loads(err)["fields"]) == [field]

    def test_failed_write_leaves_no_temp_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()         # replacing a directory by a file fails
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--out", str(target))
        assert code == 4
        assert json.loads(err)["error"] == "io"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    def test_csv_reruns_byte_identical(self, capsys):
        argv = ("redundancy", "--amplitudes", "0.6,0.8", "--env-count", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_identical_modulo_duration(self, capsys):
        argv = ("born", "--amplitudes", "1,1", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("duration_s"), b.pop("duration_s")
        assert a == b

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"amplitudes": [1, 1], "env_count": 2, "format": "csv"}))
        code, out, _ = run_cli(
            capsys, "redundancy", "--config", str(cfg), "--env-count", "4")
        assert code == 0
        assert len(parse_tables(out)["redundancy"]["rows"]) == 4

    def test_bad_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(
            capsys, "born", "--config", str(cfg))
        assert code == 2
        assert "config" in json.loads(err)["fields"]

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "p_counting" in target.read_text()


GOLDEN = pathlib.Path(__file__).parent / "golden"

# the six README examples; tests/golden holds their reference stdout
README_EXAMPLES = {
    "einselect": ("einselect", "--amplitudes", "0.6,0.8"),
    "redundancy": ("redundancy", "--amplitudes", "1,1", "--env-count", "8"),
    "born_commensurate": ("born", "--amplitudes",
                          "0.816496580927726,0.5773502691896258"),
    "born_bounds": ("born", "--amplitudes", "0.54030231,0.84147098"),
    "envariance": ("envariance", "--amplitudes", "1,1"),
    "cascade": ("cascade", "--amplitudes", "1,1", "--env-count", "3"),
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_matches_golden_csv(capsys, name):
    code, out, _ = run_cli(capsys, *README_EXAMPLES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.csv").read_text()
