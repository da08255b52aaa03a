"""CLI behaviours: JSON output, exit codes, sweep determinism and caching."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neumann_widths
from neumann_widths import NotFound, cli, min_guaranteed_n_beta
from neumann_widths.cli import SWEEP_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWidthCommand:
    def test_width_with_verify(self, capsys):
        code, out, _ = run(capsys, "width", "--q", "0.5", "--beta", "1", "--n", "1",
                           "--verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["width"] == pytest.approx(0.656135, abs=1e-6)
        assert doc["verify"]["delta"] <= 1e-10

    def test_theta_field_exact_half(self, capsys):
        code, out, _ = run(capsys, "width", "--q", "0.5", "--beta", "0", "--n", "1")
        assert code == 0
        assert json.loads(out)["theta_n"] == 0.5

    def test_q_out_of_range(self, capsys):
        code, out, err = run(capsys, "width", "--q", "1.2", "--beta", "0", "--n", "1")
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "validation"
        assert "q" in doc["error"]["message"]


class TestThresholdCommand:
    def test_case_split_returns_one(self, capsys):
        code, out, _ = run(capsys, "threshold", "--q", "0.15", "--beta", "2")
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_scanned_value(self, capsys):
        code, out, _ = run(capsys, "threshold", "--q", "0.2")
        assert code == 0
        assert json.loads(out)["n"] == 13

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "threshold", "--q", "0.2", "--trace")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["trace"]) == 12
        assert doc["trace"][-1]["budget"]["holds"] is True
        assert doc["trace"][0]["n"] == 2

    def test_not_found_exit_code(self, capsys):
        code, _, err = run(capsys, "threshold", "--q", "0.9", "--cap", "3000")
        assert code == 3
        assert json.loads(err)["error"]["code"] == "not-found"

    @pytest.mark.parametrize("beta", ["inf", "-inf", "nan"])
    def test_non_finite_beta_is_validation_error(self, capsys, beta):
        code, out, err = run(capsys, "threshold", "--q", "0.1", f"--beta={beta}")
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "validation"
        assert doc["error"]["message"] == f"beta must be finite, got {float(beta)}"


class TestVerifyCy2nCommand:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "verify-cy2n", "--q", "0.2", "--beta", "0",
                           "--n", "13")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert len(doc["pattern"]) == 26

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_explicit_shift_with_bad_n_is_validation_error(self, capsys, n):
        code, out, err = run(capsys, "verify-cy2n", "--q", "0.3", "--beta", "0",
                             "--n", n, "--y", "0.1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["message"] == f"n must be a positive integer, got {n}"

    def test_past_underflow_edge_is_numerical_error(self, capsys):
        code, out, err = run(capsys, "verify-cy2n", "--q", "0.01", "--beta", "0",
                             "--n", "90")
        assert code == 4
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "numerical"
        assert "underflows to zero at n=90" in doc["error"]["message"]

    def test_far_past_underflow_edge_names_the_limit(self, capsys):
        # |lambda_n| itself is zero here, not only its square
        code, out, err = run(capsys, "verify-cy2n", "--q", "0.01", "--beta", "0",
                             "--n", "300")
        assert code == 4
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "numerical"
        assert "underflows to zero at n=300" in doc["error"]["message"]


# one command per subcommand path, and an argument error that exits 2
PARSER_CALLS = (("verify-cy2n", "--q", "0.2", "--beta", "0.5", "--n", "10"),
                ("width", "--q", "0.3", "--beta", "1", "--n", "4"),
                ("width", "--q", "abc", "--beta", "0", "--n", "1"))


def main_in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    def test_one_parser_same_bytes_as_separate_processes(self, capsys):
        cli.build_parser.cache_clear()
        in_process = [main_in_process(capsys, argv) for argv in PARSER_CALLS]
        assert cli.build_parser.cache_info().misses == 1
        env = {**os.environ,
               "PYTHONPATH": str(Path(neumann_widths.__file__).parents[1])}
        for argv, got in zip(PARSER_CALLS, in_process):
            proc = subprocess.run([sys.executable, "-m", "neumann_widths", *argv],
                                  capture_output=True, text=True, env=env, check=False)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in in_process] == [0, 0, 2]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (("width", "--q", "abc", "--beta", "0", "--n", "1"), "invalid float value: 'abc'"),
        (("threshold", "--q", "0.1", "--beta", "-inf"), "beta must be finite"),
        (("width", "--q", "0.5"), "required: --beta, --n"),
        (("cvd", "--q", "0.5", "--beta", "0", "--epsilon", "2"), "invalid choice: 2"),
        (("bogus",), "invalid choice: 'bogus'"),
        ((), "required: command"),
    ])
    def test_bad_flags_are_validation_errors(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "validation"
        assert message in doc["error"]["message"]

    @pytest.mark.parametrize("value", ["-1e-3", "-1.", "-2E0", "-.5"])
    def test_negative_float_is_a_value(self, capsys, value):
        spaced = run(capsys, "width", "--q", "0.3", "--beta", value, "--n", "2")
        joined = run(capsys, "width", "--q", "0.3", f"--beta={value}", "--n", "2")
        assert spaced[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize("argv", [("--help",), ("cvd", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: neumann-widths")


class TestCvdCommand:
    def test_builtin_vectors_signs(self, capsys):
        code, out, _ = run(capsys, "cvd", "--q", "0.21", "--beta", "0")
        assert code == 0
        doc = json.loads(out)
        dets = doc["determinants"]
        assert dets["negative_nodes"]["value"] < 0.0 < dets["positive_nodes"]["value"]
        assert dets["negative_nodes"]["significant"]

    def test_vectors_file(self, capsys, tmp_path):
        payload = {"x": [[1, 18], [1, 9], [1, 6]],
                   "y": [[13, 36], [11, 30], [67, 180]]}
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "cvd", "--q", "0.21", "--beta", "0",
                           "--vectors", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["determinants"]["custom"]["value"] == pytest.approx(
            -2.7490707450445169e-10, rel=1e-5)

    def test_vectors_file_echoed_as_given(self, capsys, tmp_path):
        # not in lowest terms: the file's own fractions come back
        payload = {"x": [[100, 3600], [1000, 3600], [4000, 3600]],
                   "y": [[0, 1], [1, 4], [7, 4]]}
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = run(capsys, "cvd", "--q", "0.5", "--beta", "0",
                           "--vectors", str(path))
        assert code == 0
        assert json.loads(out)["determinants"]["custom"]["nodes"] == payload

    @pytest.mark.parametrize("payload", [
        {"x": 1, "y": 2},
        {"x": [[1, 0]], "y": [[1, 2]]},
        {"x": [["1", 18]], "y": [[1, 2]]},
        [[1, 18]],
        {"x": [[10**400, 1]], "y": [[1, 2]]},
    ])
    def test_malformed_vectors_file(self, capsys, tmp_path, payload):
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "cvd", "--q", "0.21", "--beta", "0",
                             "--vectors", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    def test_witness_search(self, capsys):
        code, out, _ = run(capsys, "cvd", "--q", "0.21", "--beta", "0",
                           "--witness-search", "--search-budget", "5000")
        assert code == 0
        doc = json.loads(out)
        assert doc["det_negative"]["value"] < 0.0 < doc["det_positive"]["value"]

    @pytest.mark.parametrize("budget,code,error,message", [
        ("0", 2, "validation", "search_budget must be >= 1, got 0"),
        ("-5", 2, "validation", "search_budget must be >= 1, got -5"),
        ("1", 3, "not-found", "observed range [-2.452e-02, -2.452e-02]"),
        # the node sets drawn for a budget of 2 or more are unchanged
        ("3", 3, "not-found", "observed range [-2.452e-02, -4.390e-03]"),
    ])
    def test_small_search_budget(self, capsys, budget, code, error, message):
        got, out, err = run(capsys, "cvd", "--q", "0.5", "--beta", "0",
                            "--witness-search", "--search-budget", budget)
        assert (got, out) == (code, "")
        doc = json.loads(err)["error"]
        assert doc["code"] == error and message in doc["message"]


def sweep_config(tmp_path, **overrides):
    cfg = {
        "q_list": [0.3, 0.5],
        "beta_list": [0.0, 1.0],
        "n_list": [1, 2],
        "output": str(tmp_path / "out.csv"),
        "format": "csv",
        "verify": True,
        "oracle_grid": 256,
        "nq_cap": 5000,
        "cache_dir": str(tmp_path / "cache"),
    }
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


class TestSweepCommand:
    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        cfg_path, cfg = sweep_config(tmp_path)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        first = (tmp_path / "out.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0].split(",") == SWEEP_COLUMNS
        assert len(lines) == 1 + 2 * 2 * 2

        # identical config re-runs byte-identically (and through the cache)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        assert (tmp_path / "out.csv").read_bytes() == first
        assert any((tmp_path / "cache").rglob("*.json"))

    def test_timestamp_header_toggle(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        text = (tmp_path / "out.csv").read_text(encoding="utf-8")
        assert text.startswith("# generated-at ")

    def test_row_contents(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["q"]) == 0.3
        assert row["cy2n_holds"] in ("true", "false")
        assert float(row["width"]) > 0.0

    def test_nq_flag_semantics(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.15, 0.3], beta_list=[0.0],
                                   n_list=[1], verify=False)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        by_q = {float(r["q"]): r for r in rows}
        assert by_q[0.15]["nq_flag"] == "true"   # below the integer-beta cutoff
        assert by_q[0.3]["nq_flag"] == "false"   # scanned threshold is 42

    def test_json_format(self, capsys, tmp_path):
        cfg_path, cfg = sweep_config(tmp_path, format="json",
                                     output=str(tmp_path / "out.json"), verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        doc = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert len(doc["rows"]) == 8
        assert set(SWEEP_COLUMNS) <= set(doc["rows"][0].keys()) | {"oracle_delta"}

    def test_oracle_delta_small(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.5], beta_list=[0.5],
                                   n_list=[2], oracle_grid=2048)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["oracle_delta"]) <= 1e-10

    def test_bad_config_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"q_list": [], "beta_list": [0.0],
                                    "n_list": [1]}), encoding="utf-8")
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert json.loads(err)["error"]["code"] == "validation"

    def test_n_range_config(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.4], beta_list=[0.0],
                                   verify=False, n_list=None)
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        del cfg["n_list"]
        cfg["n_range"] = [2, 5]
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["2", "3", "4", "5"]

    def test_n_range_with_step(self, capsys, tmp_path):
        cfg_path, cfg = sweep_config(tmp_path, q_list=[0.4], beta_list=[0.0], verify=False)
        del cfg["n_list"]
        cfg["n_range"] = [1, 7, 3]
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        assert [ln.split(",")[2] for ln in lines[1:]] == ["1", "4", "7"]

    def test_interrupt_flushes_finished_rows(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.ENV_WORKERS, raising=False)
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)
        sweep_job, done = cli._sweep_job, []

        def interrupted_on_third(task):
            if len(done) == 2:
                raise KeyboardInterrupt
            done.append(task)
            return sweep_job(task)
        monkeypatch.setattr(cli, "_sweep_job", interrupted_on_third)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 130
        assert out == ""
        assert err == "interrupted: flushed 2 of 8 rows\n"
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert [(float(r["q"]), float(r["beta"]), int(r["n"])) for r in rows] == [
            (job["q"], job["beta"], job["n"]) for job, _ in done]
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 2

    def test_past_underflow_edge_leaves_cy2n_cell_empty(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.01], beta_list=[0.0],
                                   n_list=[79, 90], verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert [r["cy2n_holds"] for r in rows] == ["true", ""]

    def test_boolean_flags(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=False, no_timestamp=True)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 0
        text = (tmp_path / "out.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert text.startswith("q,")
        assert {r["oracle_delta"] for r in rows} == {""}

    def test_worker_pool_matches_serial(self, capsys, tmp_path, monkeypatch):
        cfg_path, _ = sweep_config(tmp_path, verify=False)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        serial = (tmp_path / "out.csv").read_bytes()
        (tmp_path / "out.csv").unlink()
        for f in (tmp_path / "cache").rglob("*.json"):
            f.unlink()
        monkeypatch.setenv("NEUMANN_WIDTHS_WORKERS", "2")
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert (tmp_path / "out.csv").read_bytes() == serial


def per_row_csv(cfg_path):
    """The sweep CSV built row by row, each row scanning its own threshold."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for job in cli._load_sweep_config(str(cfg_path))["_jobs"]:
        try:
            threshold = min_guaranteed_n_beta(job["q"], job["beta"],
                                              n_cap=job["nq_cap"]).n
        except NotFound:
            threshold = None
        row = cli._sweep_job((job, threshold))
        writer.writerow([cli._format_cell(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue().encode("utf-8")


class TestSweepThresholds:
    # q below both cutoffs, between them, scanned, and beyond nq_cap; two
    # integer and two non-integer beta
    OVERRIDES = dict(q_list=[0.15, 0.197, 0.3, 0.9], beta_list=[0.0, 0.5, 1.0, 1.5],
                     n_list=[1, 2, 50], verify=False, nq_cap=3000)

    def test_one_scan_per_key_and_none_from_cache(self, capsys, tmp_path, monkeypatch):
        cfg_path, _ = sweep_config(tmp_path, **self.OVERRIDES)
        calls = []

        def counting(q, beta, n_cap):
            calls.append((q, beta % 1.0 == 0.0, n_cap))
            return min_guaranteed_n_beta(q, beta, n_cap=n_cap)
        monkeypatch.setattr(cli, "min_guaranteed_n_beta", counting)
        assert run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")[0] == 0
        assert sorted(calls) == sorted({(q, integer, 3000)
                                        for q in self.OVERRIDES["q_list"]
                                        for integer in (False, True)})
        calls.clear()
        assert run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")[0] == 0
        assert calls == []

    def test_csv_matches_per_row_thresholds(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, **self.OVERRIDES)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        got = (tmp_path / "out.csv").read_bytes()
        assert got == per_row_csv(cfg_path)
        flags = {ln.split(",")[9] for ln in got.decode().splitlines()[1:]}
        assert flags == {"true", "false", ""}


class TestSweepInputErrors:
    @pytest.mark.parametrize("overrides", [
        {"beta_list": [0.0, "half"]},
        {"q_list": ["0.3"]},
        {"n_list": [1, "two"]},
        {"nq_cap": "lots"},
        {"n_list": [1e400]},  # JSON numbers too large for a float read as inf
        {"oracle_grid": 1e400},
        {"nq_cap": 1e400},
        {"workers": 1e400},
        {"policy": {"max_terms": 1e400}},
        # refused, not converted: strings, booleans, infinities, and
        # fractions where an integer is expected
        {"n_list": [2.7]},
        {"n_list": [2.5]},
        {"n_list": ["3"]},
        {"n_list": [True]},
        {"beta_list": ["0.5"]},
        {"beta_list": [True]},
        {"oracle_grid": 4096.9},
        {"nq_cap": "5000"},
        {"workers": 1.5},
        {"policy": {"max_terms": 10.5}},
        {"policy": {"abs_tol": "1e-13"}},
        {"policy": {"abs_tol": 1e400}},
        {"oracle_refine_tol": True},
    ])
    def test_non_numeric_config_value(self, capsys, tmp_path, overrides):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    @pytest.mark.parametrize("overrides", [
        {"verify": "false"},
        {"verify": 0},
        {"no_timestamp": "false"},
        {"no_timestamp": 1},
    ])
    def test_flag_that_is_not_a_boolean(self, capsys, tmp_path, overrides):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"
        assert not (tmp_path / "out.csv").exists()

    def test_integral_numbers_keep_their_cache_keys(self, tmp_path):
        # keys pinned from the float-converting loader: an integral float
        # such as 1e5 is still the integer, and no valid key changed
        pinned = ["1d1e10b7cb6b14e4", "9ae2e52dd38ab68f", "d8953d09b76313b0",
                  "6a4d5f1b54d1b84e", "afa405cc38d24ddb", "a8e068cbe30bb751",
                  "5de866d702fd02a0", "3eb4708995938440"]
        for max_terms, nq_cap in ((1e5, 5e3), (100_000, 5000)):
            path = tmp_path / "keys.json"
            path.write_text(json.dumps(
                {"q_list": [0.3, 0.5], "beta_list": [0, 1.5], "n_list": [1, 20],
                 "policy": {"abs_tol": 1e-13, "max_terms": max_terms},
                 "oracle_grid": 256, "nq_cap": nq_cap}), encoding="utf-8")
            jobs = cli._load_sweep_config(str(path))["_jobs"]
            assert [cli._job_key(job)[:16] for job in jobs] == pinned

    def test_non_numeric_workers_env(self, capsys, tmp_path, monkeypatch):
        cfg_path, _ = sweep_config(tmp_path)
        monkeypatch.setenv("NEUMANN_WIDTHS_WORKERS", "abc")
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "validation"
        assert "NEUMANN_WIDTHS_WORKERS" in doc["error"]["message"]

    @pytest.mark.parametrize("overrides", [
        {"q_list": 0.3},
        {"n_list": 3},
        {"n_list": None, "n_range": 5},
        {"n_list": None, "n_range": [1, 3, 0]},
        {"policy": []},
        {"format": 5},
        {"output": 5},
        {"cache_dir": 5},
        {"n_list": None, "n_range": [1, 3.5]},
    ])
    def test_config_of_wrong_shape(self, capsys, tmp_path, overrides):
        cfg_path, cfg = sweep_config(tmp_path, **overrides)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"


# Stdout, stderr and exit code of cli.main on a width grid, threshold traces,
# sign checks and determinants (a built-in pair, a node file that takes the
# exact fallback, a witness search), recorded in-process.  A change meant to
# keep every output leaves these bytes as they are; an intended output change
# rewrites the file and says why.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


class TestGoldenOutputs:
    @pytest.mark.parametrize("case", GOLDEN["cases"],
                             ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN["cases"])])
    def test_replay(self, capsys, tmp_path, case):
        vectors = tmp_path / "nodes.json"
        vectors.write_text(json.dumps(GOLDEN["vectors"]), encoding="utf-8")
        argv = [str(vectors) if a == "{vectors}" else a for a in case["argv"]]
        assert run(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])
