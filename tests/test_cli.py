"""CLI behaviours: JSON output, exit codes, sweep determinism and caching."""

import csv
import io
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import neumann_widths
from neumann_widths import cli, cvd, thresholds
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

    @pytest.mark.parametrize("beta,theta", [(0.3, 0.65), (1.98, 0.49)])
    def test_subnormal_q_pow_n_takes_the_limit_root(self, capsys, beta, theta):
        # q^320 = 1e-320 is subnormal: theta is the nu = 0 limit beta/2 + 1/2 mod 1
        code, out, _ = run(capsys, "width", "--q", "0.1", "--beta", str(beta), "--n", "320")
        assert code == 0
        assert json.loads(out)["theta_n"] == theta

    @pytest.mark.parametrize("command", ["width", "verify-cy2n"])
    def test_q_within_1e_8_of_one_is_a_numerical_error(self, capsys, command):
        code, out, err = run(capsys, command, "--q", "0.999999999", "--beta", "0.3", "--n", "3")
        assert (code, out) == (4, "")
        doc = json.loads(err)["error"]
        assert doc["code"] == "numerical"
        assert "float limit of about 1e-8" in doc["message"]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="needs /proc/self/status for the child's VmHWM")
    def test_verify_near_one_q_stays_small(self):
        """The oracle holds O(terms + grid) memory: at q = 0.9999 a
        (terms, grid) array would be 180211 x 4096 doubles, 5.5 GiB."""
        # the child reports its own peak (VmHWM, reset by exec): a child's
        # ru_maxrss from wait4 carries the forking parent's peak, pytest's
        proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE, "width", "--q", "0.9999",
                               "--beta", "0.5", "--n", "1", "--verify"],
                              capture_output=True, text=True, env=_package_env(), check=False)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr.splitlines()[-1]) < 150 * 1024  # KiB
        assert json.loads(proc.stdout)["verify"]["delta"] <= 1e-10

    def test_cli_import_leaves_numpy_fft_unloaded(self):
        proc = subprocess.run([sys.executable, "-c", "import sys, neumann_widths.cli; "
                               "print('numpy.fft' in sys.modules)"],
                              capture_output=True, text=True, env=_package_env(), check=True)
        assert proc.stdout.strip() == "False"


def _package_env():
    return {**os.environ, "PYTHONPATH": str(Path(neumann_widths.__file__).parents[1])}


# Runs ``python -m neumann_widths <args>`` and writes, at exit, the names of
# the imported modules as a JSON list on the last line of stderr.
_MODULES_PROBE = ("import atexit, json, runpy, sys\n"
                  "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
                  "runpy.run_module('neumann_widths', run_name='__main__')\n")

# Runs ``python -m neumann_widths <args>`` and writes, at exit, its own peak
# resident memory in KiB (VmHWM of /proc/self/status) as the last line of
# stderr.
_PEAK_PROBE = ("import atexit, runpy, sys\n"
               "def peak():\n"
               "    with open('/proc/self/status') as status:\n"
               "        line = next(l for l in status if l.startswith('VmHWM:'))\n"
               "    print(line.split()[1], file=sys.stderr)\n"
               "atexit.register(peak)\n"
               "runpy.run_module('neumann_widths', run_name='__main__')\n")


def _loaded_modules(*argv) -> set[str]:
    """The modules ``python -m neumann_widths <argv>`` imported, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv],
                          capture_output=True, text=True, env=_package_env(), check=False)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


# loaded only by a command that computes, or, for datetime, writes a timestamp
HEAVY_MODULES = {"numpy", "dataclasses", "inspect", "datetime"}
NUMERICAL_MODULES = {f"neumann_widths.{name}" for name in (
    "kernels", "widths", "thresholds", "sk_spline", "cvd", "oracles")}
# loaded only by a sweep: its cache keys and its CSV
SWEEP_MODULES = {"hashlib", "_hashlib", "csv", "_csv"}


@pytest.fixture
def exact_width_calls(monkeypatch):
    """The n of every ``cli.exact_width`` call, through a patched wrapper."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return neumann_widths.exact_width(*args, **kwargs)
    monkeypatch.setattr(cli, "exact_width", counting)
    return calls


class TestLazyNumerics:
    """Startup and the cache path run without numpy or ``dataclasses``; each
    command imports only the numerical modules it calls, whose names in
    ``cli`` load on first use and never replace a name bound before."""

    @pytest.mark.parametrize("argv", [["--help"], ["width", "--help"], ["sweep", "--help"]])
    def test_help_imports_no_numpy(self, argv):
        loaded = _loaded_modules(*argv)
        assert not loaded & (HEAVY_MODULES | NUMERICAL_MODULES | SWEEP_MODULES)

    def test_sweep_from_cache_imports_no_numpy(self, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=True, n_list=[1, 3])
        argv = ("sweep", "--config", str(cfg_path), "--no-timestamp")
        cold = _loaded_modules(*argv)  # every row is computed
        assert cold & NUMERICAL_MODULES == NUMERICAL_MODULES - {"neumann_widths.cvd"}
        assert "numpy" in cold
        csv_bytes = (tmp_path / "out.csv").read_bytes()
        assert not _loaded_modules(*argv) & (HEAVY_MODULES | NUMERICAL_MODULES)
        assert (tmp_path / "out.csv").read_bytes() == csv_bytes

    def test_timestamp_loads_datetime(self, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=False, n_list=[1])
        argv = ("sweep", "--config", str(cfg_path))
        _loaded_modules(*argv)
        warm = _loaded_modules(*argv)
        assert "datetime" in warm and not warm & (HEAVY_MODULES - {"datetime"})
        assert (tmp_path / "out.csv").read_text(encoding="utf-8").startswith("# generated-at ")

    @pytest.mark.parametrize("argv,modules", [
        (("cvd", "--q", "0.21", "--beta", "0"), {"kernels", "cvd"}),
        (("threshold", "--q", "0.5", "--beta", "0.5", "--trace"), {"kernels", "thresholds"}),
        (("width", "--q", "0.5", "--beta", "0", "--n", "3"), {"kernels", "widths"}),
        (("width", "--q", "0.5", "--beta", "0", "--n", "3", "--verify"),
         {"kernels", "widths", "oracles"}),
        (("verify-cy2n", "--q", "0.5", "--beta", "0", "--n", "3"),
         {"kernels", "widths", "thresholds", "sk_spline"}),
    ], ids=["cvd", "threshold", "width", "width-verify", "verify-cy2n"])
    def test_command_imports_only_what_it_calls(self, argv, modules):
        loaded = _loaded_modules(*argv)
        assert loaded & NUMERICAL_MODULES == {f"neumann_widths.{name}" for name in modules}
        assert not loaded & SWEEP_MODULES

    # the names bench/tracing.py wraps in cli's namespace
    @pytest.mark.parametrize("name", ["exact_width", "min_guaranteed_n_beta", "verify_cy2n",
                                      "supnorm_square_conv", "verdict"])
    def test_traced_names_are_the_package_functions(self, name):
        assert getattr(cli, name) is getattr(neumann_widths, name)

    @pytest.mark.parametrize("name", ["main", "_sweep_job"])
    def test_traced_entry_points_resolve(self, name):
        assert getattr(cli, name).__module__ == cli.__name__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    def test_patched_exact_width_is_what_a_serial_sweep_calls(self, capsys, tmp_path,
                                                              exact_width_calls):
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)
        assert run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")[0] == 0
        assert exact_width_calls == [1, 2] * 4

    def test_name_bound_before_first_use_is_kept(self):
        script = ("import json, sys\n"
                  "from neumann_widths import cli\n"
                  "cli.exact_width = lambda *args: sys.exit(7)\n"
                  "cli.main(['width', '--q', '0.3', '--beta', '0', '--n', '2'])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=_package_env(), check=False)
        assert proc.returncode == 7

    def test_sweep_job_in_a_fresh_interpreter(self, tmp_path):
        """A spawned pool worker imports cli and runs ``_sweep_job`` only."""
        cfg_path, _ = sweep_config(tmp_path)
        job = cli._load_sweep_config(str(cfg_path))["_jobs"][3]
        script = ("import json, sys\n"
                  "from neumann_widths import cli\n"
                  "print(json.dumps(cli._sweep_job(json.loads(sys.argv[1]))))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(job)],
                              capture_output=True, text=True, env=_package_env(), check=True)
        assert json.loads(proc.stdout) == cli._sweep_job(job)


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
        # the verdicts at n_q - 1 and n_q, which fix n_q = 13
        assert len(doc["trace"]) == 2
        assert doc["trace"][-1]["budget"]["holds"] is True
        assert doc["trace"][0]["n"] == 12
        assert doc["trace"][0]["budget"]["holds"] is False

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

    @pytest.mark.parametrize("n", ["90", "300"])
    def test_past_underflow_edge_returns_a_verdict(self, capsys, n):
        # |lambda_n|^2 underflows from n = 80 at q = 0.01, and |lambda_n|
        # itself at n = 300; the threshold there is 1, so the condition holds
        code, out, err = run(capsys, "verify-cy2n", "--q", "0.01", "--beta", "0", "--n", n)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["holds"] is True and doc["unresolved"] == 0

    def test_paper_threshold_at_half(self, capsys):
        # n_q = 1717 at q = 0.5, far past the old underflow edge (521)
        code, out, _ = run(capsys, "verify-cy2n", "--q", "0.5", "--beta", "0", "--n", "1717")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True and doc["unresolved"] == 0
        assert len(doc["signs"]) == 2 * 1717


# one command per subcommand path, an argument error that exits 2, the help
# and usage errors the top-level parser reports, and the argv shapes a
# command's own parser must read as the top-level parse did
PARSER_CALLS = (("verify-cy2n", "--q", "0.2", "--beta", "0.5", "--n", "10"),
                ("width", "--q", "0.3", "--beta", "1", "--n", "4"),
                ("width", "--q", "abc", "--beta", "0", "--n", "1"),
                ("--help",),
                ("cvd", "--help"),
                (),
                ("bogus",),
                ("--", "width", "--q", "0.3", "--beta", "1", "--n", "4"),
                ("width", "--q", "0.3", "--beta", "1", "--n", "4", "--bogus"),
                ("width", "--q", "0.3", "--beta", "1", "--n", "4", "extra"),
                ("cvd", "--q", "0.21", "--beta", "1", "--search", "3", "--witness-search"),
                ("width", "--q=0.5", "--beta", "0.3", "--n", "2"),
                ("width", "--q", "0.3", "--beta", "-1e-3", "--n", "2"),
                ("cvd", "--q", "0.5", "--beta", "0", "--vectors", "nodes.json",
                 "--witness-search"))


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
        for argv, got in zip(PARSER_CALLS, in_process):
            proc = subprocess.run([sys.executable, "-m", "neumann_widths", *argv],
                                  capture_output=True, text=True, env=_package_env(),
                                  check=False)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 2, 2, 2, 2, 2, 0, 0, 0, 2]

    def test_one_parse_same_bytes_as_the_top_level_parse(self, capsys, monkeypatch):
        # the top-level parser hands a command's tokens to that command's
        # parser, so parsing them there alone gives the same namespace and
        # the same errors
        one_parse = [main_in_process(capsys, argv) for argv in PARSER_CALLS]
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert [main_in_process(capsys, argv) for argv in PARSER_CALLS] == one_parse

    def test_a_call_naming_a_command_never_runs_the_top_level_parse(self, capsys, monkeypatch):
        top, calls = cli.build_parser(), []
        parse = top.parse_known_args
        monkeypatch.setattr(top, "parse_known_args",
                            lambda *args, **kwargs: calls.append(args) or parse(*args, **kwargs))
        for argv in PARSER_CALLS:
            main_in_process(capsys, argv)
        assert [list(args[0]) for args in calls] == [
            list(argv) for argv in PARSER_CALLS if not argv or argv[0] not in top.commands]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (("width", "--q", "abc", "--beta", "0", "--n", "1"), "invalid float value: 'abc'"),
        (("threshold", "--q", "0.1", "--beta", "-inf"), "beta must be finite"),
        (("width", "--q", "0.5"), "required: --beta, --n"),
        (("cvd", "--q", "0.5", "--beta", "0", "--epsilon", "2"), "invalid choice: 2"),
        (("bogus",), "invalid choice: 'bogus'"),
        ((), "required: command"),
        (("threshold", "--q", "0.5", "--cap", "0"), "n_cap must be >= 1, got 0"),
        (("threshold", "--q", "0.5", "--cap", "-3"), "n_cap must be >= 1, got -3"),
        (("threshold", "--q", "0.1", "--beta", "0", "--cap", "0"), "n_cap must be >= 1"),
        (("width", "--q", "0.5", "--beta", "0.3", "--n", "5", "--abs-tol", "inf"),
         "abs_tol must be a positive finite number, got inf"),
        # tokens a command leaves over are reported in the top-level parser's words
        (("width", "--q", "0.5", "--beta", "0", "--n", "3", "--bogus"),
         "neumann-widths: unrecognized arguments: --bogus"),
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

    @pytest.mark.parametrize("flags", [("--witness-search", "--vectors", "{path}"),
                                       ("--vectors", "{path}", "--witness-search")],
                             ids=["search-first", "vectors-first"])
    def test_vectors_with_witness_search_is_refused(self, capsys, tmp_path, flags):
        # a search ignores node files, so naming one with it is a usage error
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps({"x": [[1, 18], [1, 9], [1, 6]],
                                    "y": [[13, 36], [11, 30], [67, 180]]}), encoding="utf-8")
        code, out, err = run(capsys, "cvd", "--q", "0.5", "--beta", "0",
                             *(str(path) if f == "{path}" else f for f in flags))
        assert (code, out) == (2, "")
        doc = json.loads(err)["error"]
        assert doc["code"] == "validation" and "not allowed with argument" in doc["message"]

    @pytest.mark.parametrize("l", ["1", "2"])
    @pytest.mark.parametrize("beta", ["0", "0.5", "1"])
    @pytest.mark.parametrize("q", ["0.05", "0.3", "0.7", "0.95"])
    def test_witnesses_round_trip_through_vectors(self, capsys, tmp_path, q, beta, l):
        # each printed witness, read back as a node file, gives the search's
        # determinant bytes
        code, out, _ = run(capsys, "cvd", "--q", q, "--beta", beta, "--l", l,
                           "--witness-search", "--search-budget", "2000", "--seed", "37")
        assert code == 0
        doc = json.loads(out)
        fields = ("value", "error_estimate", "significant")
        for label in ("negative", "positive"):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(doc["witnesses"][label]), encoding="utf-8")
            code, out, _ = run(capsys, "cvd", "--q", q, "--beta", beta, "--vectors", str(path))
            assert code == 0
            custom = json.loads(out)["determinants"]["custom"]
            assert custom["nodes"] == doc["witnesses"][label]
            assert [json.dumps(custom[f]) for f in fields] == [
                json.dumps(doc[f"det_{label}"][f]) for f in fields]

    def test_search_reports_witnesses(self, capsys):
        code, out, _ = run(capsys, "cvd", "--q", "0.21", "--beta", "0",
                           "--witness-search", "--search-budget", "5000")
        assert code == 0
        doc = json.loads(out)
        assert doc["det_negative"]["value"] < 0.0 < doc["det_positive"]["value"]

    def test_order_5_search_at_the_builtin_q(self, capsys):
        # the order-3 built-in witnesses seed only l = 1; at l = 2 the search
        # starts from random 5-node vectors
        code, out, _ = run(capsys, "cvd", "--q", "0.21", "--beta", "0", "--l", "2",
                           "--witness-search", "--search-budget", "2000")
        assert code == 0
        doc = json.loads(out)
        for label in ("negative", "positive"):
            nodes = cvd.NodeVectors.from_json_dict(doc["witnesses"][label])
            assert nodes.size == 5
        assert doc["det_negative"]["value"] < 0.0 < doc["det_positive"]["value"]

    @pytest.mark.parametrize("epsilon", [1, -1])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.95])
    def test_witness_determinants_are_the_searchs(self, capsys, monkeypatch, q, epsilon):
        # the printed determinants are det_D's at the witnesses: the search's
        # own, negated at eps = -1, and det_D runs only inside the search
        calls = {"search": 0, "outside": 0}
        inside = []
        det_d, search = cvd.det_D, cvd.cvd_witness

        def counting_det_d(*args, **kwargs):
            calls["search" if inside else "outside"] += 1
            return det_d(*args, **kwargs)

        def flagged_search(*args, **kwargs):
            inside.append(True)
            try:
                return search(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(cvd, "det_D", counting_det_d)
        monkeypatch.setattr(cvd, "cvd_witness", flagged_search)
        code, out, _ = run(capsys, "cvd", "--q", str(q), "--beta", "0.5", "--epsilon",
                           str(epsilon), "--witness-search", "--search-budget", "2000")
        assert code == 0
        doc = json.loads(out)
        kernel = cvd.neumann_evaluator(cvd.NeumannParams(q, 0.5))
        for label in ("negative", "positive"):
            nodes = cvd.NodeVectors.from_json_dict(doc["witnesses"][label])
            res = det_d(kernel, nodes, epsilon=epsilon)
            assert doc[f"det_{label}"] == {"value": res.value,
                                           "error_estimate": res.error_estimate,
                                           "significant": res.significant}
        assert calls["search"] >= 2
        assert calls["outside"] == 0

    def test_near_one_q_without_the_fallback(self, capsys):
        # closed-form entries serve any q < 1; the series would need more
        # than 10^6 terms at q = 0.99999
        code, out, _ = run(capsys, "cvd", "--q", "0.99999", "--beta", "0.5")
        assert code == 0
        dets = json.loads(out)["determinants"].values()
        assert all(d["significant"] and not d["used_extended"] for d in dets)

    @pytest.mark.parametrize("q,code", [(0.9999, 0), (0.99999, 4)])
    def test_near_one_q_exact_fallback(self, capsys, tmp_path, q, code):
        # the exact fallback reads the series words: at q = 0.9999 K is
        # 333331, and from q = 0.99999 the series is TolUnreachable
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps(GOLDEN["vectors"]), encoding="utf-8")
        got, out, err = run(capsys, "cvd", "--q", str(q), "--beta", "1",
                            "--vectors", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["determinants"]["custom"]["used_extended"]
        else:
            assert json.loads(err)["error"]["code"] == "numerical"
            assert "eval_neumann" in err

    @pytest.mark.parametrize("pair", [[1, math.inf], [1, -math.inf], [math.inf, 1],
                                      [1, math.nan], [-math.inf, 18]])
    def test_non_finite_node_pair_is_validation_error(self, capsys, tmp_path, pair):
        # [1, Infinity] once became the node 0.0 and was echoed as Infinity
        path = tmp_path / "nodes.json"
        path.write_text(json.dumps({"x": [pair, [1, 9], [1, 6]],
                                    "y": [[13, 36], [11, 30], [67, 180]]}), encoding="utf-8")
        code, out, err = run(capsys, "cvd", "--q", "0.21", "--beta", "0",
                             "--vectors", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "validation"

    @pytest.mark.parametrize("budget,code,error,message", [
        ("0", 2, "validation", "search_budget must be >= 1, got 0"),
        ("-5", 2, "validation", "search_budget must be >= 1, got -5"),
        ("1", 3, "not-found", "observed range [-2.452e-02, -2.452e-02]"),
        ("2", 3, "not-found", "observed range [-2.452e-02, -3.357e-03]"),
    ])
    def test_small_search_budget(self, capsys, budget, code, error, message):
        got, out, err = run(capsys, "cvd", "--q", "0.5", "--beta", "0",
                            "--witness-search", "--search-budget", budget)
        assert (got, out) == (code, "")
        doc = json.loads(err)["error"]
        assert doc["code"] == error and message in doc["message"]

    def test_budget_of_three_finds_the_frozen_witnesses(self, capsys):
        # the third sample is the first significant positive one, so budget 3
        # returns the witnesses of the same search at budget 2000
        case = json.loads((Path(__file__).parent / "cvd_witness_frozen.json")
                          .read_text(encoding="utf-8"))[7]
        assert (case["kernel"], case["l"], case["rng_seed"], case["builtin_seeds"]) == (
            ["neumann", [0.5, 0.0]], 1, 0, False)
        code, out, _ = run(capsys, "cvd", "--q", "0.5", "--beta", "0",
                           "--witness-search", "--search-budget", "3")
        assert code == 0
        assert json.loads(out)["witnesses"] == {
            label: case[label]["nodes"] for label in ("negative", "positive")}


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


def cache_log(cache_dir: Path) -> Path:
    """The sweep's cache log, which must be the only entry of ``cache_dir``."""
    (log,) = cache_dir.iterdir()
    assert log.name == f"{cli._code_fingerprint()}.jsonl"
    return log


def log_lines(cache_dir: Path) -> list[bytes]:
    """The nonempty lines of the cache log: every record starts a new line."""
    return [line for line in cache_log(cache_dir).read_bytes().split(b"\n") if line]


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
        assert len(log_lines(tmp_path / "cache")) == 8

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

    @pytest.mark.parametrize("n_range, n_values", [
        ([5, 1, -1], [5, 4, 3, 2, 1]), ([5, 1, -2], [5, 3, 1]), ([9, 1, -4], [9, 5, 1]),
        ([6, 1, -2], [6, 4, 2]), ([1, 6, 3], [1, 4])])
    def test_n_range_includes_its_stop_for_either_sign_of_step(self, tmp_path, n_range,
                                                               n_values):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.4], beta_list=[0.0], n_list=None,
                                   n_range=n_range)
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        del cfg["n_list"]
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        jobs = cli._load_sweep_config(str(cfg_path))["_jobs"]
        assert [job["n"] for job in jobs] == n_values

    def test_interrupt_flushes_finished_rows(self, capsys, tmp_path, monkeypatch):
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)
        sweep_job, done = cli._sweep_job, []

        def interrupted_on_third(job):
            if len(done) == 2:
                raise KeyboardInterrupt
            done.append(job)
            return sweep_job(job)
        monkeypatch.setattr(cli, "_sweep_job", interrupted_on_third)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 130
        assert out == ""
        assert err == "interrupted: flushed 2 of 8 rows\n"
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert [(float(r["q"]), float(r["beta"]), int(r["n"])) for r in rows] == [
            (job["q"], job["beta"], job["n"]) for job in done]
        assert len(log_lines(tmp_path / "cache")) == 2

    def test_past_underflow_edge_fills_cy2n_cell(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.01], beta_list=[0.0],
                                   n_list=[79, 90], verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert [r["cy2n_holds"] for r in rows] == ["true", "true"]

    def test_unresolved_midpoints_read_undecided(self, capsys, tmp_path):
        # the resolved signs alternate, and 113 of the 500 midpoints are
        # unresolved: verify-cy2n says "holds": true
        cfg_path, _ = sweep_config(tmp_path, q_list=[0.9], beta_list=[0.0], n_list=[250],
                                   verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text())))
        assert [r["cy2n_holds"] for r in rows] == ["undecided"]

    def test_boolean_flags(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=False)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        text = (tmp_path / "out.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert text.startswith("q,")
        assert {r["oracle_delta"] for r in rows} == {""}

    def test_worker_pool_matches_serial(self, capsys, tmp_path):
        # 18 rows: 2 workers take them in chunks of 3
        grid = dict(verify=False, q_list=[0.3, 0.5, 0.7], n_list=[1, 2, 3])
        cfg_path, _ = sweep_config(tmp_path, **grid)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        serial = (tmp_path / "out.csv").read_bytes()
        (tmp_path / "out.csv").unlink()
        cache_log(tmp_path / "cache").unlink()  # or the rows come from the cache
        cfg_path, _ = sweep_config(tmp_path, workers=2, **grid)
        run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert (tmp_path / "out.csv").read_bytes() == serial


    @pytest.mark.parametrize("workers, cached_n, n_list, started", [
        (2, [1], [1, 2], []), (4, [], [1, 2], [2])])
    def test_no_more_workers_than_pending_rows(self, capsys, tmp_path, monkeypatch,
                                               workers, cached_n, n_list, started):
        if cached_n:
            cfg_path, _ = sweep_config(tmp_path, verify=False, q_list=[0.3],
                                       beta_list=[0.0], n_list=cached_n)
            run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        pools = []

        class RecordingPool:
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize=1):
                return map(func, items)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        cfg_path, _ = sweep_config(tmp_path, verify=False, q_list=[0.3], beta_list=[0.0],
                                   n_list=n_list, workers=workers)
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 0
        assert pools == started
        assert len(log_lines(tmp_path / "cache")) == len(n_list)

class TestSweepCache:
    def sweep(self, capsys, cfg_path) -> bytes:
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert (code, err) == (0, "")
        return (cfg_path.parent / "out.csv").read_bytes()

    def test_entries_live_under_the_code_fingerprint(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, verify=False)
        self.sweep(capsys, cfg_path)
        fingerprint = cli._code_fingerprint()
        assert fingerprint.startswith(f"{neumann_widths.__version__}-")
        # one file, no temp files or subdirectories, one line per row
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{fingerprint}.jsonl"]
        keys = {cli._job_key(job) for job in cli._load_sweep_config(str(cfg_path))["_jobs"]}
        entries = dict(line.decode().split("\t") for line in log_lines(tmp_path / "cache"))
        assert entries.keys() == keys
        assert all(json.loads(row).keys() == set(SWEEP_COLUMNS) for row in entries.values())

    @pytest.mark.parametrize("payload", [b'{"q": 0.3', b'{"q": 1}', b"[]", b"", b"\xff{"],
                             ids=["truncated", "missing-columns", "not-an-object", "empty",
                                  "not-utf8"])
    def test_unreadable_entry_is_computed_again(self, capsys, tmp_path, payload):
        cfg_path, _ = sweep_config(tmp_path, verify=False)
        cold = self.sweep(capsys, cfg_path)
        log = cache_log(tmp_path / "cache")
        lines = log.read_bytes().split(b"\n")
        key, row = lines[1].split(b"\t")
        lines[1] = key + b"\t" + payload
        log.write_bytes(b"\n".join(lines))
        assert self.sweep(capsys, cfg_path) == cold
        # the row was appended again, and that line is the one read back
        assert log_lines(tmp_path / "cache")[-1] == key + b"\t" + row

    def test_torn_last_line_is_computed_again(self, capsys, tmp_path, exact_width_calls):
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)
        cold = self.sweep(capsys, cfg_path)
        log = cache_log(tmp_path / "cache")
        whole = log.read_bytes()
        last = whole.split(b"\n")[-1]
        log.write_bytes(whole[:len(whole) - len(last) // 2])  # killed mid-write
        assert self.sweep(capsys, cfg_path) == cold
        assert len(exact_width_calls) == 8 + 1
        lines = log_lines(tmp_path / "cache")
        assert len(lines) == 9 and lines[-1] == last
        assert self.sweep(capsys, cfg_path) == cold
        assert len(exact_width_calls) == 9

    def test_short_write_stops_the_sweep(self, capsys, tmp_path, monkeypatch):
        # a record written only in part is reported, not passed over
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)

        class ShortFile(io.FileIO):
            def write(self, data):
                return super().write(data[:len(data) // 2])

        path_open = Path.open
        monkeypatch.setattr(Path, "open", lambda path, mode="r", *args, **kwargs: (
            ShortFile(path, mode) if mode == "ab" else path_open(path, mode, *args, **kwargs)))
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")
        assert code == 2 and "short write" in err
        monkeypatch.undo()
        [torn] = log_lines(tmp_path / "cache")
        self.sweep(capsys, cfg_path)  # the torn record is a miss
        lines = log_lines(tmp_path / "cache")
        assert len(lines) == 9 and lines[0] == torn

    def test_concurrent_sweeps_share_one_log(self, tmp_path):
        # more sweeps than cores, all appending to one log
        names = ("a", "b", "c")
        procs = []
        for name in names:
            (tmp_path / name).mkdir()
            cfg_path, _ = sweep_config(tmp_path / name, verify=False, workers=1,
                                       n_list=[1, 2, 3], cache_dir=str(tmp_path / "cache"))
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "neumann_widths", "sweep", "--config", str(cfg_path),
                 "--no-timestamp"], env=_package_env(), stdout=subprocess.DEVNULL))
        assert [proc.wait(timeout=120) for proc in procs] == [0] * len(names)
        outputs = {(tmp_path / name / "out.csv").read_bytes() for name in names}
        assert len(outputs) == 1
        lines = log_lines(tmp_path / "cache")
        assert 12 <= len(lines) <= 12 * len(names)
        keys = set()
        for line in lines:
            key, row = line.split(b"\t")
            assert json.loads(row).keys() == set(SWEEP_COLUMNS)
            keys.add(key)
        assert len(keys) == 12 and all(len(key) == 64 for key in keys)

    @staticmethod
    def edited_copy_fingerprint(tmp_path, module) -> str:
        """The fingerprint of a copy of the package, checked equal to this
        one's, after a newline is appended to ``<module>.py``."""
        copy = tmp_path / "neumann_widths"
        shutil.copytree(Path(cli.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def fingerprint():
            return subprocess.run(
                [sys.executable, "-c", "from neumann_widths import cli; "
                                       "print(cli._code_fingerprint())"],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(tmp_path)}).stdout.strip()
        assert fingerprint() == cli._code_fingerprint()
        with (copy / f"{module}.py").open("a", encoding="utf-8") as f:
            f.write("\n")
        return fingerprint()

    @pytest.mark.parametrize("module", ["kernels", "widths", "oracles", "cli"])
    def test_fingerprint_follows_numerical_sources(self, tmp_path, module):
        assert self.edited_copy_fingerprint(tmp_path, module) != cli._code_fingerprint()

    def test_fingerprint_ignores_modules_no_row_calls(self, tmp_path):
        assert self.edited_copy_fingerprint(tmp_path, "cvd") == cli._code_fingerprint()

    def test_fingerprint_miss_computes_every_row(self, capsys, tmp_path, monkeypatch,
                                                 exact_width_calls):
        cfg_path, _ = sweep_config(tmp_path, verify=False, workers=1)
        cold = self.sweep(capsys, cfg_path)
        assert len(exact_width_calls) == 8
        assert self.sweep(capsys, cfg_path) == cold
        assert len(exact_width_calls) == 8
        fingerprint = cli._code_fingerprint()
        monkeypatch.setattr(cli, "_code_fingerprint", lambda: "0.0.0-other")
        assert self.sweep(capsys, cfg_path) == cold
        assert len(exact_width_calls) == 16
        logs = sorted((tmp_path / "cache").iterdir())
        assert [p.name for p in logs] == ["0.0.0-other.jsonl", f"{fingerprint}.jsonl"]
        assert [p.read_bytes().count(b"\n") for p in logs] == [8, 8]


def per_row_csv(cfg_path):
    """The sweep CSV built row by row, one ``_sweep_job`` call per job."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for job in cli._load_sweep_config(str(cfg_path))["_jobs"]:
        row = cli._sweep_job(job)
        writer.writerow([cli._format_cell(row[c]) for c in SWEEP_COLUMNS])
    return buf.getvalue().encode("utf-8")


class TestSweepThresholds:
    # q below both cutoffs, between them, scanned, and beyond nq_cap; two
    # integer and two non-integer beta
    OVERRIDES = dict(q_list=[0.15, 0.197, 0.3, 0.9], beta_list=[0.0, 0.5, 1.0, 1.5],
                     n_list=[1, 2, 50], verify=False, nq_cap=3000)

    def test_one_scan_per_key_and_none_from_cache(self, capsys, tmp_path):
        cfg_path, _ = sweep_config(tmp_path, workers=1, **self.OVERRIDES)
        scans = thresholds._min_n_cached
        scans.cache_clear()
        assert run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")[0] == 0
        # one bisection per q past its cutoff: 0.197, 0.3 and 0.9, not 0.15
        assert scans.cache_info().misses == 3
        scans.cache_clear()
        assert run(capsys, "sweep", "--config", str(cfg_path), "--no-timestamp")[0] == 0
        assert scans.cache_info()[:2] == (0, 0)  # no row asked for a threshold

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
        {"oracle_refine_tol": 0},
        {"oracle_refine_tol": -1e-13},
        {"workers": 0},
        {"workers": -3},
        {"nq_cap": 0},
        {"nq_cap": -3},
    ])
    def test_non_numeric_config_value(self, capsys, tmp_path, overrides):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"

    @pytest.mark.parametrize("policy", [{"abs_tol": 0}, {"abs_tol": -1e-13},
                                        {"max_terms": 0}])
    def test_bad_policy_is_refused_before_any_row(self, capsys, tmp_path, policy):
        cfg_path, _ = sweep_config(tmp_path, policy=policy)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "validation"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("overrides", [
        {"n_list": [0]},
        {"n_list": [1, 0], "workers": 2},
        {"n_list": None, "n_range": [-2, 1]},
        {"oracle_grid": 10},
        {"q_list": [0.3, 1.5]},
        {"nq_cap": 0},
        {"oracle_refine_tol": 0},
        # keys the loader does not read, and both sources of n
        {"nqcap": 5},
        {"worker": 4},
        {"no_timestamp": True},
        {"policy": {"abs_tl": 1e-13}},
        {"n_range": [1, 4]},
    ])
    def test_bad_value_is_refused_before_any_row(self, capsys, tmp_path, monkeypatch,
                                                 overrides):
        # the config check refuses it before any numerical module loads
        def no_numerics(*names):
            raise AssertionError(f"loaded {names} for a bad config")
        monkeypatch.setattr(cli, "_load_numerics", no_numerics)
        cfg_path, cfg = sweep_config(tmp_path, **overrides)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "validation"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("overrides, named", [
        ({"nqcap": 5, "worker": 4, "n_lst": [9]}, "nqcap, worker, n_lst"),
        ({"no_timestamp": True}, "no_timestamp"),
        ({"policy": {"abs_tl": 1e-13, "max_terms": 1000}}, "policy.abs_tl"),
    ])
    def test_unknown_keys_are_named(self, capsys, tmp_path, overrides, named):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "code": "validation", "message": f"sweep config has unknown keys: {named}"}

    @pytest.mark.parametrize("overrides", [
        {"verify": "false"},
        {"verify": 0},
    ])
    def test_flag_that_is_not_a_boolean(self, capsys, tmp_path, overrides):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "validation"
        assert not (tmp_path / "out.csv").exists()

    def test_integral_numbers_keep_their_cache_keys(self, tmp_path):
        # an integral float such as 1e5 keys as the integer: both configs
        # give the same eight pinned keys
        pinned = ["de014765867b0b6c", "1f4ad427addcd0d3", "a0a5ff9f9eae6ef0",
                  "d5cfebf75636f8b0", "711eb9d62ec6d098", "1431b02fb1ffd13d",
                  "6505647dd62ae0df", "32cf21a0c89137e4"]
        for max_terms, nq_cap in ((1e5, 5e3), (100_000, 5000)):
            path = tmp_path / "keys.json"
            path.write_text(json.dumps(
                {"q_list": [0.3, 0.5], "beta_list": [0, 1.5], "n_list": [1, 20],
                 "policy": {"abs_tol": 1e-13, "max_terms": max_terms},
                 "oracle_grid": 256, "nq_cap": nq_cap}), encoding="utf-8")
            jobs = cli._load_sweep_config(str(path))["_jobs"]
            assert [cli._job_key(job)[:16] for job in jobs] == pinned

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
