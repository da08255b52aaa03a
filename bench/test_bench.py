"""Self-tests of the benchmark: deterministic generators, valid metric names,
oracles that reject planted wrong results, and the timing and trace
arithmetic.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import csv
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from neumann_widths import cli, cvd  # noqa: E402
from neumann_widths.kernels import NeumannParams  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_threshold_oracle_regressions():
    t = oracles.Thresholds()
    assert t.first(0.2, 1_000_000) == 13
    assert t.first(0.5, 1_000_000) == 1717
    assert t.first(0.65, workloads.SWEEP_NQ_CAP) is None
    assert t.guaranteed(0.15, 2.0, 100) == 1


def test_underflow_edge():
    assert workloads.underflow_edge(0.2) == 226
    assert workloads.underflow_edge(0.5) == 521


def test_ladder_stops_before_the_edge_and_the_probe_starts_at_it():
    for q in (0.05, 0.2, 0.27):
        edge = workloads.underflow_edge(q)
        rungs = workloads.ladder(q)
        assert len(rungs) == workloads.LADDER_RUNGS
        assert rungs[0] == workloads.LADDER_START and rungs[-1] == edge - 1
        assert rungs == sorted(set(rungs))
        probe = workloads.past_edge(q)
        assert probe[0] == edge and probe[-1] <= workloads.PROBE_REACH * edge


def _det(q, beta, nodes):
    p = NeumannParams(q, beta)
    res = cvd.det_D(cvd.neumann_evaluator(p), nodes, kernel_pair=cvd.neumann_pair_evaluator(p))
    return {"value": res.value, "error_estimate": res.error_estimate,
            "significant": res.significant}


def test_det_oracle_rejects_flipped_sign():
    neg, _ = cvd.builtin_witnesses()
    det = _det(0.21, 0.0, neg)
    assert oracles.check_det(0.21, 0.0, list(neg.x), list(neg.y), det) is None
    flipped = dict(det, value=-det["value"])
    assert oracles.check_det(0.21, 0.0, list(neg.x), list(neg.y), flipped)


def test_witness_value_oracle():
    neg, _ = cvd.builtin_witnesses()
    det = _det(0.21, 1.0, neg)
    assert oracles.check_witness_value(det) is None
    assert oracles.check_witness_value(dict(det, value=-2.26e-8))


def _sweep_csv(cfg, tmp_path):
    cfg = dict(cfg, output=str(tmp_path / "out.csv"), cache_dir=str(tmp_path / "cache"),
               workers=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", io.StringIO())
        assert cli.main(["sweep", "--config", str(path), "--no-timestamp"]) == 0
    return cfg, (tmp_path / "out.csv").read_text()


def _edit(text, row, column, fn):
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = fn(rows[row + 1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_sweep_oracle_rejects_perturbed_width_and_flag(tmp_path):
    cfg = {"q_list": [0.3], "beta_list": [0.0, 0.7], "n_list": [2, 45],
           "nq_cap": 1000}
    cfg, text = _sweep_csv(cfg, tmp_path)
    t = oracles.Thresholds()
    assert oracles.check_sweep_csv(cfg, text, t) == [None] * 4
    for factor in (1 + 1e-9, 1 - 1e-9):
        bad = _edit(text, 1, "width", lambda v: repr(float(v) * factor))
        assert oracles.check_sweep_csv(cfg, bad, t)[1]
    bad = _edit(text, 3, "nq_flag", lambda v: "false" if v == "true" else "true")
    assert oracles.check_sweep_csv(cfg, bad, t)[3]


def test_cy2n_oracle_rejects_wrong_verdict(capsys):
    assert cli.main(["verify-cy2n", "--q", "0.2", "--beta", "0", "--n", "13"]) == 0
    doc = json.loads(capsys.readouterr().out)
    t = oracles.Thresholds()
    assert oracles.check_cy2n(0.2, 13, doc, t) is None
    assert oracles.check_cy2n(0.2, 13, dict(doc, holds=not doc["holds"]), t)
    flipped = dict(doc, signs=[-s for s in doc["signs"][:1]] + doc["signs"][1:])
    assert oracles.check_cy2n(0.2, 13, flipped, t)


def test_self_time_subtracts_children():
    procs = [{"spans": [["cli.main", 0.0, 10.0, -1, None],
                        ["cvd.det_D", 1.0, 5.0, 0, {"order": 3, "dd": True,
                                                    "significant": True}],
                        ["kernels.eval_neumann", 2.0, 3.0, 1, None]],
              "counts": {"kernels.eval_neumann_pair": 4}, "theta_cache": [1, 3]}]
    m = tracing.layer_metrics(procs, traced_wall=10.0)
    assert m["cli.main.self_share"] == pytest.approx(0.6)
    assert m["cvd.det_D.order3.self_share"] == pytest.approx(0.3)
    assert m["kernels.eval_neumann.self_share"] == pytest.approx(0.1)
    assert m["cvd.det_D.dd_ratio"] == 1.0
    assert m["widths.solve_theta.cache_hit_ratio"] == 0.25
    assert m["kernels.eval_neumann_pair.calls"] == 4


def test_input_time_is_the_median_of_its_adjusted_pass_times():
    ops = [run.Op((0, 0), 2.0, "ok", "", pass_no=0), run.Op((0, 0), 4.0, "ok", "", pass_no=1),
           run.Op((0, 0), 9.0, "ok", "", pass_no=2), run.Op((0, 1), 1.0, "ok", "", pass_no=0),
           run.Op((0, 1), 1.0, "exit3", "", pass_no=1)]
    scale = {0: 1.0, 1: 0.5, 2: 1.0}
    assert run.per_input(ops, scale) == [(1, 2.0)]  # (0, 1) failed once: left out
    assert run.per_input(ops) == [(1, 4.0)]
    m = run.timing_metrics(ops[:3], ops[:3], scale)
    assert m["ops_per_s"] == m["cached_ops_per_s"] == 0.5
    assert m["op_p50_ms"] == m["op_p90_ms"] == 2000.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
