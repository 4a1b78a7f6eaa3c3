import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import pathlib
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from envlab import cli, envariance, errors, tensor_core
from envlab.cli import main
from envlab.info_measures import redundancy_report
from envlab.measurement_models import branch_records, cascade_environment
from oracles import (
    build_branch_state,
    dense_basis_conditioned_mutual_information,
)
from test_reachability import traced_table


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

    def test_rows_cumulative(self):
        cfg = cli.ScenarioConfig(kind="redundancy", amplitudes=[0.6, 0.8],
                                 env_count=3, overlap=0.3)
        rows = cli.run_scenario(cfg).tables["redundancy"]["rows"]
        state = branch_records("S", cfg.unit_amplitudes(), "A",
                               ["E1", "E2", "E3"], 0.3)
        report = redundancy_report(state, "S", ["E1", "E2", "E3"])
        mis = report.per_fragment_mi
        assert rows == [[i, mi, cum, report.ratio] for i, (mi, cum)
                        in enumerate(zip(mis, itertools.accumulate(mis)))]

    @pytest.mark.parametrize("amps, env_count", [
        ("1,0", "8"), ("1,1e-7", "8"), ("1,0", "0")])
    def test_zero_system_entropy(self, capsys, amps, env_count):
        # one outcome holds all the weight (1e-7 is below KERNEL_TOL's
        # entropy): the ratio I_total / H(S) is undefined
        code, out, err = run_cli(capsys, "redundancy", "--amplitudes", amps,
                                 "--env-count", env_count)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "validation", "fields": {
            "amplitudes": "system entropy is zero; ratio undefined"}}


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
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes", "0.5774,0.8165",
            "--tolerance", "1e-6")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        tables = parse_tables(out)
        assert "born" not in tables
        assert [r[0] for r in tables["bounds"]["rows"]] == \
            ["100", "100", "1000", "1000", "10000", "10000"]

    def test_unequal_terms_at_default_tolerance_give_bounds(self, capsys):
        # p_0 = 0.01 + 5e-11: the scan accepts M = 100 within 1e-10, but
        # the terms sqrt(p_k / m_k) differ by 2.5e-10 > STATE_TOL
        code, out, err = run_cli(
            capsys, "born", "--amplitudes", "0.10000000025,0.994987437081494")
        assert (code, err) == (0, "")
        tables = parse_tables(out)
        assert "born" not in tables
        rows = tables["bounds"]["rows"]
        assert [r[:4] for r in rows[:2]] == [["100", "0", "0.01", "0.02"],
                                             ["100", "1", "0.98", "0.99"]]

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

    @pytest.mark.parametrize("argv, golden", [
        (("born", "--amplitudes", "0.816496580927726,0.5773502691896258"),
         "born_commensurate"),
        (("born", "--amplitudes", "0.54030231,0.84147098"), "born_bounds"),
        (("born", "--amplitudes=0,0.6,0.8", "--bounds-m", "2,3,7"), None),
        (("born", "--amplitudes=1,1", "--bounds-m", "4"), None),
    ])
    def test_one_scan_and_no_schmidt_decomposition(self, capsys, monkeypatch,
                                                   argv, golden):
        # CLI amplitudes are Schmidt coefficients already: counting and
        # bounding read |a_k|^2 after a single denominator scan
        def refuse(*args, **kwargs):
            raise AssertionError("born built or decomposed a Schmidt state")

        scan = envariance.find_commensurate_denominator
        scans = []

        def counted_scan(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(envariance, "schmidt_decompose", refuse)
        monkeypatch.setattr(cli, "build_branch_state", refuse)
        monkeypatch.setattr(envariance, "find_commensurate_denominator",
                            counted_scan)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(scans) == 1
        if golden is not None:
            assert out == (GOLDEN / f"{golden}.csv").read_text()

    def test_explicit_bounds_request(self, capsys):
        code, out, _ = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--bounds-m", "50")
        assert code == 0
        tables = parse_tables(out)
        assert {int(r[0]) for r in tables["bounds"]["rows"]} == {50}

    def test_bounds_m_below_the_outcome_count(self, capsys, monkeypatch):
        # a field error before the denominator scan; a zero amplitude
        # does not count against M
        def refuse(*args, **kwargs):
            raise AssertionError("the denominator scan ran")

        monkeypatch.setattr(envariance, "find_commensurate_denominator",
                            refuse)
        code, out, err = run_cli(capsys, "born", "--amplitudes",
                                 "0.3,0.5,0.7,0.1", "--bounds-m", "3,7")
        assert code == 2
        assert out == ""
        assert list(json.loads(err)["fields"]) == ["bounds_m"]
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "born", "--amplitudes", "0.3,0.5,0,0.1",
                               "--bounds-m", "3")
        assert code == 0
        assert [r[:2] for r in parse_tables(out)["bounds"]["rows"]] == [
            ["3", str(k)] for k in range(4)]

    def test_default_bounds_reach_the_outcome_count(self, capsys):
        # 150 incommensurate outcomes: the default M = 100 is too small
        amps = np.random.default_rng(150).uniform(0.1, 1.0, size=150)
        code, out, err = run_cli(capsys, "born", "--amplitudes",
                                 ",".join(map(str, amps.tolist())))
        assert (code, err) == (0, "")
        tables = parse_tables(out)
        assert "born" not in tables
        assert [r[0] for r in tables["bounds"]["rows"]] == \
            ["1000"] * 150 + ["10000"] * 150

    def test_many_outcomes_scan_a_large_cap_quickly(self, capsys):
        # 5,000 outcomes, no denominator up to 10^5: only the M that the
        # smallest outcome fits reach the full rule, so the miss takes well
        # under a second, and it prints what a scan with no candidate does
        amps = ",".join(["1"] * 4999 + ["1.1"])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "born", "--amplitudes", amps,
                                 "--m-cap", "100000", "--bounds-m", "10000")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert run_cli(capsys, "born", "--amplitudes", amps, "--m-cap", "1",
                       "--bounds-m", "10000") == (0, out, "")
        tables = parse_tables(out)
        assert list(tables) == ["bounds"]
        assert len(tables["bounds"]["rows"]) == 5000

    def test_a_commensurate_first_outcome_scans_a_large_cap_quickly(
            self, capsys):
        # p_0 = 1/2 exactly fits every even M, but the smallest of the 5,000
        # outcomes fits about one candidate in 5,000, so the miss to 10^5
        # takes well under a second; its stdout is pinned by digest
        amps = ",".join(["70.70509175441327"] + ["1"] * 4998 + ["1.1"])
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "born", "--amplitudes", amps,
                                 "--m-cap", "100000", "--bounds-m", "10000")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ae8f9b89aeac8de217dedd3bdf56a466b01ed9d37e8bbe9b8592996c02f8643e")
        assert list(parse_tables(out)) == ["bounds"]

    def test_no_default_bounds_past_the_largest(self, capsys):
        amps = np.random.default_rng(10001).uniform(0.1, 1.0, size=10001)
        code, out, err = run_cli(capsys, "born", "--amplitudes",
                                 ",".join(map(str, amps.tolist())))
        assert (code, out) == (2, "")
        assert json.loads(err)["fields"] == {"bounds_m": (
            "no default bounding denominator reaches the 10001 outcomes")}


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

    @pytest.mark.parametrize("amps, svds", [
        # the scenario's decomposition, and the polar factor of the one
        # true verdict, the Schmidt phase
        (np.random.default_rng(64).normal(size=64), 2),
        # every unitary is envariant for equal amplitudes: three polar
        # factors
        (np.ones(64), 4),
    ], ids=["random", "equal"])
    def test_the_state_is_decomposed_once(self, capsys, monkeypatch, amps,
                                          svds):
        svd, shapes = np.linalg.svd, []

        def recorded_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        code, _, _ = run_cli(capsys, "envariance", "--amplitudes=" + ",".join(
            map(str, amps.tolist())))
        assert code == 0
        assert shapes.count((64, 64)) == svds


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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d, n_env", [(2, n) for n in range(7)]
                             + [(3, n) for n in range(5)])
    def test_matches_dense_oracle(self, d, n_env, kind):
        amps = {(2, "real"): [0.6, -0.8], (2, "complex"): [0.5, 0.3 - 0.7j],
                (3, "real"): [0.5, -0.6, 0.62],
                (3, "complex"): [0.4j, 0.5 + 0.2j, -0.7]}[d, kind]
        cfg = cli.ScenarioConfig("cascade", amps, env_count=n_env)
        got = cli.run_scenario(cfg).tables["cascade"]["rows"]
        # the dense state: E_i's records c-shifted onto ready F_i
        immediate = [f"E{i + 1}" for i in range(n_env)]
        distant = [f"F{i + 1}" for i in range(n_env)]
        state = build_branch_state("S", cfg.unit_amplitudes(), None, immediate)
        for label in distant:
            state = tensor_core.attach_ready(state, label, d)
        state = cascade_environment(state, immediate, distant)
        r = np.arange(d)
        fourier = np.exp(2j * np.pi * np.outer(r, r) / d) / np.sqrt(d)
        want = [[i] + [dense_basis_conditioned_mutual_information(
                    state, ("S",), (label,), basis)
                    for basis in (np.eye(d), fourier)]
                for i, label in enumerate(distant)]
        assert len(got) == n_env
        np.testing.assert_allclose(np.reshape(got, (-1, 3)),
                                   np.reshape(want, (-1, 3)),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("amps, n_env, code, dim", [
        ("1,1", 9, 0, None),
        ("1,1", 10, 3, 2 ** 21),
        ("1,1", 11, 3, 2 ** 23),
        ("1,1,1", 5, 0, None),
        ("1,1,1", 6, 3, 3 ** 13),
    ])
    def test_guard_on_nominal_dimension(self, capsys, monkeypatch, amps,
                                        n_env, code, dim):
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        got, out, err = run_cli(capsys, "cascade", "--amplitudes", amps,
                                "--env-count", str(n_env))
        assert got == code
        if dim is None:
            assert len(parse_tables(out)["cascade"]["rows"]) == n_env
        else:
            assert json.loads(err) == {
                "error": "dimension_guard",
                "detail": f"total dimension {dim} exceeds guard {2 ** 20}"}

    @pytest.mark.parametrize("d, code", [(2 ** 20, 0), (2 ** 20 + 1, 3)])
    def test_no_environment_builds_no_state(self, capsys, monkeypatch,
                                            tmp_path, d, code):
        # at N = 0 the guard checks d^(2N+1) = d, so it admits 2^20
        # amplitudes; the empty table needs none of the d x d tables
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        cfg = tmp_path / "cfg.json"
        amps = np.random.default_rng(37).normal(size=d)
        cfg.write_text(json.dumps({"amplitudes": amps.tolist(),
                                   "env_count": 0}))
        start = time.perf_counter()
        got, out, err = run_cli(capsys, "cascade", "--config", str(cfg))
        assert time.perf_counter() - start < 2.0
        assert got == code
        if code == 0:
            assert out == ("table,cascade\nfragment_index,"
                           "pointer_basis_mi_bits,conjugate_basis_mi_bits\n")
            assert err == ""
        else:
            assert json.loads(err) == {
                "error": "dimension_guard",
                "detail": f"total dimension {d} exceeds guard {2 ** 20}"}


# malformed command lines: (argv, field, pattern of its message); later
# Pythons word the list of choices differently
MALFORMED = [
    (("born", "--amplitudes", "-0.5,0.8"), "amplitudes",
     "expected one argument"),
    (("born", "--amplitudes", "1,1", "--bogus", "3"), "arguments",
     "unrecognized arguments: --bogus 3"),
    ((), "kind", "required"),
    (("nosuch", "--amplitudes", "1,1"), "kind", "invalid choice: 'nosuch'.*"),
    # a flag of another scenario
    (("born", "--amplitudes", "1,1", "--env-count", "50"), "arguments",
     "unrecognized arguments: --env-count 50"),
    # -h is no field: its one-token form with a value
    (("born", "--amplitudes", "1,1", "-hx"), "arguments",
     "argument -h/--help: ignored explicit argument 'x'"),
]


class TestPlumbing:
    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "redundancy", "--amplitudes", "1,1",
            "--env-count", "-3")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_unknown_scenario_kind(self):
        # argparse admits only the known subcommands, so a config object
        # is the one way to name another
        with pytest.raises(cli.ValidationFailure) as info:
            cli.ScenarioConfig(kind="x", amplitudes=[0.6, 0.8]).validate()
        assert info.value.messages == {"kind": "unknown scenario 'x'"}

    def test_library_error_is_a_scenario_field(self, capsys, monkeypatch):
        def refuse(cfg):
            raise errors.PlanMismatch("no plan fits")

        reads = cli._PIPELINES["born"][1]
        monkeypatch.setitem(cli._PIPELINES, "born", (refuse, reads))
        code, out, err = run_cli(capsys, "born", "--amplitudes", "1,1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "validation",
            "fields": {"scenario": "PlanMismatch: no plan fits"}}

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
        kind = "redundancy" if field in ("env_count", "overlap") else "born"
        code, _, err = run_cli(
            capsys, kind, "--amplitudes", "1,1", flag, value)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert list(doc["fields"]) == [field]

    @pytest.mark.parametrize("key", ["amplitudes", "bounds_m", "m_cap",
                                     "format", "out"])
    def test_flag_given_only_the_option_terminator(self, capsys, monkeypatch,
                                                   tmp_path, key):
        # argparse reads --key=-- as the empty list, not as text
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "born", "--amplitudes", "1,1",
                                 f"--{key.replace('_', '-')}=--")
        assert (code, out) == (2, "")
        assert json.loads(err)["fields"] == {
            key: "expected one argument, got []"}
        assert list(tmp_path.iterdir()) == []

    def test_one_token_negative_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "einselect", "--amplitudes=-0.6,0.8")
        assert code == 0
        pops = [float(r[1]) for r in parse_tables(out)["einselect"]["rows"]]
        np.testing.assert_allclose(pops, [0.36, 0.64], atol=1e-9)

    @pytest.mark.parametrize("tol, message", [
        ("nan", "tolerance must be finite"),
        ("inf", "tolerance must be finite"),
        ("0", "tolerance must be positive"),
        ("-1e-10", "tolerance must be positive"),
    ], ids=["nan", "inf", "0", "-1e-10"])
    def test_non_finite_tolerance(self, capsys, tol, message):
        # one token, as a value that starts with a minus sign must be
        code, _, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", f"--tolerance={tol}")
        assert code == 2
        assert json.loads(err)["fields"] == {"tolerance": message}

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

    @pytest.mark.parametrize("kind, n, code, limit_mib", [
        # the guard rejects d = 2000 before the d x d record kets are built
        ("einselect", 2000, 3, 1),
        # the denominator scan holds one block of candidates per step
        ("born", 5000, 0, 16),
    ])
    def test_peak_memory_of_many_amplitudes(self, capsys, kind, n, code,
                                            limit_mib):
        tracemalloc.start()
        try:
            got, out, _ = run_cli(capsys, kind, "--amplitudes",
                                  ",".join(["1"] * n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == code
        assert peak < limit_mib * 2 ** 20
        if code == 0:
            assert len(parse_tables(out)[kind]["rows"]) == n

    def test_dimension_guard_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("ENVLAB_DIM_GUARD", "8")
        code, _, err = run_cli(
            capsys, "redundancy", "--amplitudes", "1,1",
            "--env-count", "8")
        assert code == 3
        assert json.loads(err)["error"] == "dimension_guard"

    @pytest.mark.parametrize("amps, n_env, code, dim", [
        ("1,1", 18, 0, None),
        ("1,1", 19, 3, 2 ** 21),
        ("1,1,1", 10, 0, None),
        ("1,1,1", 12, 3, 3 ** 14),
        # from 2^63 on, an int64 product would wrap below the guard
        ("1,1", 61, 3, 2 ** 63),
        ("1,1", 62, 3, 2 ** 64),
        pytest.param("1,1", 1000, 3, 2 ** 1002, id="1,1-1000-3-2^1002"),
        ("1,1,1", 38, 3, 3 ** 40),
    ])
    def test_redundancy_guard_on_nominal_dimension(
            self, capsys, monkeypatch, amps, n_env, code, dim):
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        got, out, err = run_cli(capsys, "redundancy", "--amplitudes", amps,
                                "--env-count", str(n_env), "--overlap", "0.3")
        assert got == code
        if dim is None:
            assert len(parse_tables(out)["redundancy"]["rows"]) == n_env
        else:
            assert json.loads(err) == {
                "error": "dimension_guard",
                "detail": f"total dimension {dim} exceeds guard {2 ** 20}"}

    @pytest.mark.parametrize("kind, n_env, shown", [
        # d^(N+2) for redundancy, d^(2N+1) for cascade, with d = 2
        ("redundancy", 14282, str(2 ** 14284)),       # 4300 digits
        ("redundancy", 14283, "about 10^4300"),       # 4301 digits
        ("redundancy", 14285, "about 10^4301"),
        ("redundancy", 10 ** 6, "about 10^301031"),
        ("redundancy", 10 ** 18, None),
        ("cascade", 7142, "about 10^4300"),
        ("cascade", 10 ** 18, None),
    ])
    def test_guard_past_printable_dimension(self, capsys, monkeypatch, kind,
                                            n_env, shown):
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, kind, "--amplitudes", "1,1",
                               "--env-count", str(n_env))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "dimension_guard"
        assert doc["detail"].endswith(f" exceeds guard {2 ** 20}")
        if shown is not None:
            assert doc["detail"] == (
                f"total dimension {shown} exceeds guard {2 ** 20}")

    @pytest.mark.parametrize("kind, digits, via, shown", [
        # past float range m log10(d) is not formed: the detail shows the
        # base-10 logarithm of the exponent, (N+2) log10 2 for redundancy
        # and (2N+1) log10 2 for cascade
        ("redundancy", 400, "flag", "10^(10^398.48)"),
        ("redundancy", 4300, "flag", "10^(10^4298.48)"),
        ("redundancy", 400, "config", "10^(10^398.48)"),
        ("cascade", 400, "flag", "10^(10^398.78)"),
        ("cascade", 4300, "flag", "10^(10^4298.78)"),
        ("cascade", 400, "config", "10^(10^398.78)"),
    ])
    def test_guard_past_float_range(self, capsys, monkeypatch, tmp_path,
                                    kind, digits, via, shown):
        monkeypatch.delenv("ENVLAB_DIM_GUARD", raising=False)
        n_env = 10 ** (digits - 1)
        argv = ("--amplitudes", "1,1", "--env-count", str(n_env))
        if via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"amplitudes": [1, 1],
                                       "env_count": n_env}))
            argv = ("--config", str(cfg))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, kind, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "dimension_guard",
            "detail": f"total dimension about {shown} exceeds guard {2 ** 20}"}

    @pytest.mark.parametrize("argv, field", [
        (("--amplitudes", "0.6,0.8", "--bounds-m", str(10 ** 20)), "bounds_m"),
        (("--amplitudes", "0.6,0.8", "--bounds-m", str(2 ** 53 + 1)),
         "bounds_m"),
        (("--amplitudes", "1e200,1e200"), "amplitudes"),
    ])
    def test_beyond_float_range_rejected(self, capsys, argv, field):
        code, out, err = run_cli(capsys, "born", *argv)
        assert code == 2
        assert out == ""
        assert list(json.loads(err)["fields"]) == [field]

    def test_denominator_cap_is_bounded(self, capsys):
        # incommensurate: without the bound the scan would run to the cap
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "born", "--amplitudes",
                                 "0.54030231,0.84147098", "--tolerance",
                                 "1e-17", "--m-cap", str(10 ** 9))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert json.loads(err)["fields"] == {
            "m_cap": "denominator cap must be <= 10^7"}
        code, _, _ = run_cli(capsys, "born", "--amplitudes", "1,1",
                             "--m-cap", str(10 ** 7))
        assert code == 0
        code, out, err = run_cli(capsys, "born", "--amplitudes", "1,1",
                                 "--m-cap", "0")
        assert (code, out) == (2, "")
        assert json.loads(err)["fields"] == {
            "m_cap": "denominator cap must be >= 1"}

    @pytest.mark.parametrize("tolerance, m_cap, code", [
        ("1e-8", 10 ** 7, 0),
        ("1.0000001e-8", 10 ** 7, 2),
        ("1e-5", 10 ** 4, 0),
        ("1e-5", 10 ** 4 + 1, 2),
    ])
    def test_tolerance_times_cap_is_bounded(self, capsys, tolerance, m_cap,
                                            code):
        # past tolerance x m_cap = 0.1 an outcome keeps over a fifth of
        # the scanned M, and past 1/2 every one of them
        got, out, err = run_cli(capsys, "born", "--amplitudes",
                                "0.54030231,0.84147098", "--tolerance",
                                tolerance, "--m-cap", str(m_cap))
        assert got == code
        if code:
            assert out == ""
            assert json.loads(err)["fields"] == {
                "tolerance": "tolerance x m_cap must be <= 0.1"}

    def test_largest_bounds_denominator(self, capsys):
        code, out, _ = run_cli(capsys, "born", "--amplitudes", "0.6,0.8",
                               "--bounds-m", str(2 ** 53))
        assert code == 0
        rows = parse_tables(out)["bounds"]["rows"]
        assert [r[2:4] for r in rows] == [["0.36", "0.36"], ["0.64", "0.64"]]

    @pytest.mark.parametrize("argv, field", [m[:2] for m in MALFORMED])
    def test_malformed_command_line(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "validation"
        assert list(doc["fields"]) == [field]

    @pytest.mark.parametrize("argv, field, message", MALFORMED)
    def test_command_line_messages(self, capsys, argv, field, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert re.fullmatch(message, json.loads(err)["fields"][field])

    @pytest.mark.parametrize("argv", [("-h",), ("born", "-h")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: envlab")

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

    @pytest.mark.parametrize("kind", ["einselect", "redundancy", "born",
                                      "envariance", "cascade"])
    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_dimension_guard_below_one(self, capsys, monkeypatch, kind,
                                       guard):
        monkeypatch.setenv("ENVLAB_DIM_GUARD", guard)
        code, out, err = run_cli(capsys, kind, "--amplitudes", "1,1")
        assert (code, out) == (2, "")
        assert json.loads(err)["fields"] == {
            "ENVLAB_DIM_GUARD": f"ENVLAB_DIM_GUARD: must be >= 1, got {guard}"}

    def test_dimension_guard_past_the_int_digit_limit(self, capsys,
                                                      monkeypatch):
        # an integer, but longer than int() reads: the message names the
        # limit and does not echo the value
        limit = sys.get_int_max_str_digits()
        monkeypatch.setenv("ENVLAB_DIM_GUARD", "9" * (limit + 1))
        code, _, err = run_cli(capsys, "born", "--amplitudes", "1,1")
        assert code == 2
        detail = json.loads(err)["fields"]["ENVLAB_DIM_GUARD"]
        assert f"({limit} digits)" in detail and "9" * 20 not in detail

    @pytest.mark.parametrize("doc, field", [
        ({"amplitudes": [1, 1], "env_count": "x"}, "env_count"),
        ({"amplitudes": "1,1"}, "amplitudes"),
        ([1, 1], "config"),
        # a misspelt field, not dropped in favour of the default
        ({"amplitudes": [1, 1], "envcount": 3}, "envcount"),
        # a field that only another scenario reads
        ({"amplitudes": [1, 1], "m_cap": 5}, "m_cap"),
        # null is a value of the wrong type, not the default
        ({"amplitudes": [1, 1], "env_count": None}, "env_count"),
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

    @pytest.mark.parametrize("name, content", [
        ("cfg.json", b"{not json"),
        ("cfg.json", b"\xff\xfe{}"),                         # not UTF-8
        ("cfg.json", b'{"amplitudes": ' + b"1" * 4301 + b"}"),  # int digits
        ("cfg.json", b"[" * 100000 + b"]" * 100000),          # nesting depth
        ("cfg\0.json", None),                                 # NUL in path
    ], ids=["malformed", "not_utf8", "long_int", "deep", "nul_path"])
    def test_bad_config_json(self, capsys, tmp_path, name, content):
        cfg = tmp_path / name
        if content is not None:
            cfg.write_bytes(content)
        code, _, err = run_cli(
            capsys, "born", "--config", str(cfg))
        assert code == 2
        assert "config" in json.loads(err)["fields"]

    def test_empty_out_rejected_before_the_run(self, capsys, monkeypatch,
                                               tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "count_spectrum", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "born", "--amplitudes", "1,1", "--out", "")
        assert (code, out) == (2, "")
        assert list(json.loads(err)["fields"]) == ["out"]
        assert list(tmp_path.iterdir()) == []

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
    code, out, err = run_cli(capsys, *README_EXAMPLES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.csv").read_text()
    assert err == ""


# nonzero record overlap, where each fragment holds less than H(S)
OVERLAP_EXAMPLES = {
    "redundancy_overlap_0.3": ("redundancy", "--amplitudes", "0.6,-0.8",
                               "--env-count", "6", "--overlap", "0.3"),
    "redundancy_overlap_0.9": ("redundancy", "--amplitudes", "0.5,0.6,0.62",
                               "--env-count", "5", "--overlap", "0.9"),
    "einselect_overlap_0.9": ("einselect", "--amplitudes", "0.3,0.4,0.5,0.7",
                              "--overlap", "0.9"),
}


@pytest.mark.parametrize("name", sorted(OVERLAP_EXAMPLES))
def test_overlap_example_matches_golden_csv(capsys, name):
    code, out, _ = run_cli(capsys, *OVERLAP_EXAMPLES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.csv").read_text()


# the -h pages; tests/golden/help_<name>.txt holds each at COLUMNS=80
HELP_PAGES = {"envlab": ("-h",), **{kind: (kind, "-h") for kind in cli._READS}}


@pytest.mark.parametrize("name", sorted(HELP_PAGES))
def test_help_text_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")     # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        main(list(HELP_PAGES[name]))
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{name}.txt").read_text()


def test_each_table_has_one_header_in_csv_and_json(capsys):
    emitted = set()
    for argv in README_EXAMPLES.values():
        _, out, _ = run_cli(capsys, *argv)
        _, doc, _ = run_cli(capsys, *argv, "--format", "json")
        from_csv, from_json = parse_tables(out), json.loads(doc)["tables"]
        assert list(from_json) == list(from_csv)
        for name, table in from_json.items():
            assert table["columns"] == from_csv[name]["columns"] \
                == list(cli._COLUMNS[name])
        emitted |= set(from_csv)
    assert emitted == set(cli._COLUMNS)


def test_records_scenarios_build_no_dense_state(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense state or reduction was built")

    monkeypatch.setattr(tensor_core.PureState, "__init__", refuse)
    for name, module in list(sys.modules.items()):
        if name == "envlab" or name.startswith("envlab."):
            for fn in ("partial_trace", "relative_states", "controlled_shift"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    for name in ("einselect", "redundancy", "cascade"):
        code, out, _ = run_cli(capsys, *README_EXAMPLES[name])
        assert code == 0
        assert out == (GOLDEN / f"{name}.csv").read_text()


def system_entropy_gap(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    return float(json.loads(out)["residuals"]["system_entropy_gap"])


IMPERFECT_REDUNDANCY = ("redundancy", "--amplitudes", "1,1", "--env-count",
                        "1", "--overlap", "0.9")


@pytest.mark.parametrize("argv", [README_EXAMPLES["redundancy"],
                                  IMPERFECT_REDUNDANCY])
def test_system_entropy_gap_is_roundoff(capsys, argv):
    assert system_entropy_gap(capsys, argv) <= 1e-12


def test_system_entropy_gap_sees_a_kernel_fault(capsys, monkeypatch):
    real = tensor_core._density

    # the Gram product over the traced labels leaves out the apparatus:
    # S is always kept, so a traced label of its class can only be A
    def without_apparatus(state, counts):
        counts = list(counts)
        apparatus = state._classes[state.layout.index("A")]
        if counts[apparatus]:
            counts[apparatus] -= 1
        return real(state, counts)

    monkeypatch.setattr(tensor_core, "_density", without_apparatus)
    assert system_entropy_gap(capsys, IMPERFECT_REDUNDANCY) > 1e-3


@pytest.mark.parametrize("argv, densities, eigensolves", [
    # H(S), then H(E_i) and H(S, E_i) alike for every i
    (("redundancy", "--amplitudes", "0.6,0.8", "--env-count", "16",
      "--overlap", "0.3"), 3, 3),
    # H(S) once; each basis measures every F_i alike: one density and
    # two outcome spectra per basis
    (("cascade", "--amplitudes", "0.6,0.8", "--env-count", "8"), 3, 5),
    (("einselect", "--amplitudes", "0.6,0.8"), 1, 1),
])
def test_each_distinct_branch_spectrum_is_computed_once(
        capsys, monkeypatch, argv, densities, eigensolves):
    calls = {"density": 0, "eigvalsh": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(tensor_core, "_density",
                        counted("density", tensor_core._density))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted("eigvalsh", np.linalg.eigvalsh))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"density": densities, "eigvalsh": eigensolves}


@pytest.mark.parametrize("argv", [
    ("redundancy", "--amplitudes", "0.6,0.8", "--env-count", "200",
     "--overlap", "0.3"),
    ("cascade", "--amplitudes", "0.6,0.8", "--env-count", "50"),
])
def test_a_kept_result_resolves_no_label_set(capsys, monkeypatch, argv):
    """No lookup splits the layout by name: neither the first computation
    of a result (the branch kernels split none, as test_label_rule pins)
    nor any later lookup of the kept result."""
    monkeypatch.setenv("ENVLAB_DIM_GUARD", str(10 ** 400))
    calls, real = [], tensor_core.SpaceLayout.split

    def counting(layout, labels):
        calls.append(labels)
        return real(layout, labels)

    monkeypatch.setattr(tensor_core.SpaceLayout, "split", counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("modules, name, argv, env_counts", [
    # an entropy is summed once per distinct spectrum
    ((tensor_core,), "_entropy_bits",
     ("redundancy", "--amplitudes", "0.6,0.8", "--overlap", "0.3"), (20, 200)),
    # a basis is checked once per average computed
    ((tensor_core,), "_basis_rows",
     ("cascade", "--amplitudes", "0.6,0.8"), (5, 50)),
])
def test_a_kept_result_is_looked_up_without_numpy_work(
        capsys, monkeypatch, modules, name, argv, env_counts):
    """A lookup that hits a kept result sums no entropy and checks no
    basis, so the calls made do not grow with the environment count."""
    monkeypatch.setenv("ENVLAB_DIM_GUARD", str(10 ** 400))
    calls, real = [], getattr(modules[0], name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    made = []
    for n in env_counts:
        calls.clear()
        code, _, _ = run_cli(capsys, *argv, "--env-count", str(n))
        assert code == 0
        made.append(len(calls))
    assert made[0] == made[1] > 0


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps each name of its ``TRACED`` table,
    found with getattr on ``envlab.<module>``."""
    traced = traced_table()
    assert traced
    missing = [f"{module}.{name}" for module, names in traced.items()
               for name in names
               if not hasattr(importlib.import_module(f"envlab.{module}"),
                              name)]
    assert missing == []


# values per item type of cli._FIELDS, valid or not for a field; valid
# integers stay at most 10^4, as a denominator scan to 10^7 takes a second
VALUES = {
    int: [-2, 0, 1, 2, 3, 5, 8, 100, 10 ** 4, 10 ** 7 + 1, 2 ** 53 + 1],
    float: [0.0, 0.3, 0.6, 0.8, 1.0, -0.5, 1.5, 1e-6, 1e-300, 1e300,
            float("nan"), float("inf")],
    str: ["csv", "json", "xml", ""],
}
# text that no item type reads, or not all of them; none starts with -h,
# which prints the usage and exits 0 through SystemExit, as documented
TEXT = ["x", "1.5", "1e-", "1,,x", "-", "--", "-0.5,0.8", "0x10"]
# neither a flag nor a config field of any scenario; --delta is planned
UNKNOWN = ["bogus", "delta"]
# the fields a failure may name besides those the scenario reads
OTHER_FIELDS = {"kind", "config", "arguments", "scenario", "ENVLAB_DIM_GUARD"}


def _values(key):
    """Values of ``key``'s item type (int for an unknown key); for a list
    field, lists of none, one, two and four of them."""
    item_type, is_list, _ = cli._FIELDS.get(key, (int, False, None))
    items = VALUES[item_type]
    if not is_list:
        return items
    return [[]] + [[x] for x in items] + [list(pair) for pair in
                                         zip(items, items[1:])] + [items[:4]]


def _flags(key):
    """The command-line tokens of ``key`` with each value, read or not:
    first ``--key value`` for each value of its type, then the rest."""
    flag = "--" + key.replace("_", "-")
    texts = [",".join(map(str, v)) if isinstance(v, list) else str(v)
             for v in _values(key)] + TEXT
    return [[flag, t] for t in texts] + [[f"{flag}={t}"] for t in texts]


def _config_docs(key):
    """One-field config documents for ``key``, its value of the field's
    type or not (null among the others)."""
    return [{key: v} for v in _values(key) + TEXT + [True, [1, "x"], None]]


# --out names a file in the test's directory or in one that does not
# exist, stdout or nothing, as a flag or a config field; it is drawn with
# ENVLAB_DIM_GUARD, and each is left unset in about half the draws
_OUTS = [None] * 9 + [(where, target) for where in ("flag", "config")
                      for target in ("report", "no/report", "-", "")] \
    + [("config", 3)]
_OUTS_AND_GUARDS = [(out, guard) for out in _OUTS
                    for guard in [None] * 4 + ["64", "0", "-5", "abc"]]


def _invocations(kind):
    """(kind, argv, config document, (--out, ENVLAB_DIM_GUARD)) for one
    scenario name.  Each part is one choice from a list, which Hypothesis
    draws several times faster than a list of varying length.  A
    scenario's own fields come three times as often as each field of any
    scenario and the unknown ones; half the draws add no flag and half
    no document."""
    own = [k for k in cli._READS.get(kind, ["amplitudes"]) if k != "out"]
    keys = own * 3 + [k for k in cli._FIELDS if k != "out"] + UNKNOWN
    flags = [tokens for key in keys for tokens in _flags(key)]
    docs = [doc for key in keys for doc in _config_docs(key)] + [[1, 1]]
    amplitudes = _flags("amplitudes")[:len(_values("amplitudes"))] + [[]]
    return st.tuples(
        st.sampled_from(amplitudes),
        st.sampled_from([[]] * len(flags) + flags),
        st.sampled_from([None] * len(docs) + docs),
        st.sampled_from(_OUTS_AND_GUARDS),
    ).map(lambda t: (kind, [kind, *t[0], *t[1]], t[2], t[3]))


# built once: a strategy built during a draw is validated again each time
INVOCATIONS = st.one_of([_invocations(kind)
                         for kind in [*cli._READS, "nosuch"]])


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(invocation=INVOCATIONS)
def test_cli_contract(tmp_path_factory, invocation):
    """Every command line drawn from the scenario table ends in a
    documented exit code with the documented output: one JSON document
    on stderr naming fields the scenario reads or the config names, and
    on success its tables under their headers."""
    kind, argv, doc, (out, guard) = invocation
    here = tmp_path_factory.getbasetemp() / "cli_contract"
    here.mkdir(exist_ok=True)
    if out is not None:
        where, target = out
        if target in ("report", "no/report"):
            target = str(here / target)
        if where == "flag":
            argv = argv + ["--out", target]
        elif isinstance(doc, dict):
            doc = {**doc, "out": target}
    if doc is not None:
        (here / "cfg.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(here / "cfg.json")]
    stdout, stderr = io.StringIO(), io.StringIO()
    # set by hand: monkeypatch is not undone between Hypothesis examples
    saved = os.environ.get("ENVLAB_DIM_GUARD")
    os.environ["ENVLAB_DIM_GUARD"] = guard or ""    # empty: the default
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["ENVLAB_DIM_GUARD"]
        else:
            os.environ["ENVLAB_DIM_GUARD"] = saved
    (here / "cfg.json").unlink(missing_ok=True)
    report = here / "report"
    written = report.read_text() if report.exists() else None
    report.unlink(missing_ok=True)
    assert list(here.iterdir()) == []        # no temporary file is left
    assert code in (0, 2, 3, 4)
    if code:
        assert (stdout.getvalue(), written) == ("", None)
        error = json.loads(stderr.getvalue())
        assert error["error"] == {2: "validation", 3: "dimension_guard",
                                  4: "io"}[code]
        fields = error.get("fields", {})
        named = set(doc) if isinstance(doc, dict) else set()
        assert set(fields) <= set(cli._READS.get(kind, ())) | named \
            | OTHER_FIELDS
        return
    assert stderr.getvalue() == ""
    text = stdout.getvalue() if written is None else written
    assert written is None or stdout.getvalue() == ""
    tables = (json.loads(text)["tables"] if text.startswith("{")
              else parse_tables(text))
    assert tables
    for name, table in tables.items():
        assert table["columns"] == list(cli._COLUMNS[name])
