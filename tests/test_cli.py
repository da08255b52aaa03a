"""CLI behaviours: JSON output, exit codes, sweep determinism and caching."""

import csv
import io
import json

import pytest

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


class TestVerifyCy2nCommand:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "verify-cy2n", "--q", "0.2", "--beta", "0",
                           "--n", "13")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert len(doc["pattern"]) == 26

    def test_past_underflow_edge_is_numerical_error(self, capsys):
        code, out, err = run(capsys, "verify-cy2n", "--q", "0.01", "--beta", "0",
                             "--n", "90")
        assert code == 4
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "numerical"
        assert "underflows to zero at n=90" in doc["error"]["message"]


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
        {"policy": []},
        {"format": 5},
        {"output": 5},
        {"cache_dir": 5},
    ])
    def test_config_of_wrong_shape(self, capsys, tmp_path, overrides):
        cfg_path, cfg = sweep_config(tmp_path, **overrides)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"
