#!/usr/bin/env python3
"""neumann-widths benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {sweep,cy2n-ladder,cvd-dets} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; the program is imported from ./src and
driven only through its CLI (``cli.main`` in-process, or a subprocess for
the sweep).  Inputs are generated from the seed (bench/workloads.py) and
every output is checked by an independent oracle (bench/oracles.py) after
the timed region.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print every metric with its unit,
the failure classes, the oracle verdicts, the seed with a digest of the
generated inputs, and the environment.  With --trace 0 the metrics are the
end-to-end ones, with op times adjusted to a reference host speed (see
end_to_end_run; the unadjusted figures are printed too); with --trace 1 they
are the per-layer ones of a traced run over a fixed number of passes
(bench/tracing.py).  A JSON copy of the result goes to bench/_results/.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"

SETUP_SPAWNS = 11
CACHED_PASSES = 3  # sweep invocations served from the cache per cold one
TRACE_PASSES = {"sweep": 2, "cy2n-ladder": 1, "cvd-dets": 4}
CHILD_TIMEOUT_S = 150
REFERENCE_ITERATIONS = 2300  # about 1 ms of pure Python on a 2.1 GHz core
REFERENCE_S = 1e-3  # the reference loop's nominal time: the unit of host speed
SWEEP_REFERENCE_SAMPLES = 16  # reference loops before each sweep invocation

END_TO_END = {
    "ops_per_s": "op/s",
    "cached_ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One executed op: a CLI call, or for the sweep one whole invocation."""

    key: tuple  # identity of the generated input: (round, index)
    seconds: float
    outcome: str  # "ok", the uncaught exception's class, or "exit<code>"
    out: str  # stdout text (the sweep: the CSV)
    rows: int = 1  # ops this record stands for (rows of a sweep)
    pass_no: int = 0
    rejected: int = 0  # of those, outputs the oracle rejected
    reason: str | None = None

    @property
    def ok_rows(self) -> int:
        return self.rows - self.rejected if self.outcome == "ok" else 0


# ---- running the program ---------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NEUMANN_WIDTHS_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str]) -> tuple[float, int, str, str]:
    """(wall seconds, exit code, stdout, stderr); kills the whole process
    group, pool workers included, if it overruns."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return time.perf_counter() - start, proc.returncode, out, err


def call_cli(argv: list[str]) -> tuple[float, str, str]:
    """One in-process CLI call: (seconds, outcome, stdout)."""
    from neumann_widths import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call so trace wrappers apply
        outcome = "ok" if code == 0 else f"exit{code}"
    except Exception as exc:  # a failed op is counted; the run goes on
        outcome = type(exc).__name__
    return time.perf_counter() - start, outcome, out.getvalue()


def reference_seconds() -> float:
    """Wall time of a fixed loop of float and complex arithmetic that runs
    no program code: how fast this host runs Python at this moment."""
    start = time.perf_counter()
    acc, z = 0.0, complex(0.3, 0.4)
    for i in range(REFERENCE_ITERATIONS):
        acc += math.cos(i * 1e-3) * abs(z * z) + cmath.phase(z * i)
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median wall time of a fresh interpreter reaching a ready CLI."""
    cmd = [sys.executable, "-m", "neumann_widths", "--help"]
    run_child(cmd)  # warm the bytecode and file caches once
    times = []
    for _ in range(SETUP_SPAWNS):
        seconds, code, _, err = run_child(cmd)
        if code != 0:
            raise RuntimeError(f"--help exited {code}: {err.strip()}")
        times.append(seconds)
    return statistics.median(times)


# ---- workloads -------------------------------------------------------------

def pass_numbers(seconds: float | None, n_passes: int | None):
    """Pass numbers for a loop over the input set: ``n_passes`` of them, or
    new passes for as long as ``seconds`` have not passed (at least one)."""
    start, p = time.perf_counter(), 0
    while (p < n_passes) if n_passes is not None else (
            p == 0 or time.perf_counter() - start < seconds):
        yield p
        p += 1


class InProcess:
    """A closed loop with one caller: each op is one ``cli.main`` call."""

    def __init__(self, thresholds: oracles.Thresholds):
        self.thresholds = thresholds
        self.unexpected: list[str] = []
        self.reference: defaultdict[int, list[float]] = defaultdict(list)  # per pass
        self._verdicts: dict[tuple, str | None] = {}
        self.peak_rss_kb = 0

    def prepare(self, r: int, ops: list) -> None:
        pass

    def check_ops(self, ops: list[Op], rounds: list) -> None:
        """Run the oracle once per distinct (input, output) and mark rejected
        ops; every failed op is recorded as unexpected."""
        for op in ops:
            given = rounds[op.key[0]][op.key[1]]
            if op.outcome != "ok":
                self.unexpected.append(f"{op.outcome} on {given}")
                continue
            memo = (op.key, op.out)
            if memo not in self._verdicts:
                self._verdicts[memo] = self.verdict(given, op.out)
            op.reason = self._verdicts[memo]
            op.rejected = int(op.reason is not None)

    def verdict(self, given, out: str) -> str | None:
        """The oracle's reason to reject ``out``, or None."""
        try:
            return self.check(given, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def run(self, rounds: list, seconds: float) -> tuple[list[Op], list[Op]]:
        """(first calls, repeated calls): whole passes over every round
        until ``seconds`` have passed.

        Each call is made twice in a row.  The first finds the theta-solve
        cache emptied, as a fresh CLI process would; the second finds the
        program's in-memory caches warm.  Both lists span the same stretch
        of the run.  The reference loop is timed before each pair.

        ``peak_rss_kb`` is read after the first pass: later the op records
        this loop keeps would count too, growing with the program's speed."""
        from neumann_widths import widths

        for r, ops in enumerate(rounds):
            self.prepare(r, ops)
        first, again = [], []
        for p in pass_numbers(seconds, None):
            if p == 1:
                self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for r, ops in enumerate(rounds):
                for i, op in enumerate(ops):
                    argv = self.argv(op, (r, i))
                    widths._solve_theta_cached.cache_clear()
                    self.reference[p].append(reference_seconds())
                    for sink in (first, again):
                        sink.append(Op((r, i), *call_cli(argv), pass_no=p))
        if not self.peak_rss_kb:
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return first, again

    def run_traced(self, rounds: list, n_passes: int, tracer: tracing.Tracer
                   ) -> tuple[list[Op], list[Op]]:
        """(plain ops, traced ops) over ``n_passes`` passes: each call made
        once without and once with the wrappers, in alternating order, the
        theta-solve cache emptied before each so that neither call warms the
        other."""
        from neumann_widths import widths

        for r, ops in enumerate(rounds):
            self.prepare(r, ops)
        plain, traced = [], []
        for r, ops in list(enumerate(rounds)) * n_passes:
            for i, op in enumerate(ops):
                argv = self.argv(op, (r, i))
                for with_trace in (False, True) if i % 2 == 0 else (True, False):
                    widths._solve_theta_cached.cache_clear()
                    if with_trace:
                        tracer.install(tracing.modules())
                    try:
                        seconds_op, outcome, out = call_cli(argv)
                    finally:
                        tracer.uninstall()
                    (traced if with_trace else plain).append(Op((r, i), seconds_op, outcome, out))
        return plain, traced


class Ladder(InProcess):
    name = "cy2n-ladder"

    def argv(self, op, key):
        q, beta, n = op
        return ["verify-cy2n", "--q", repr(q), "--beta", repr(beta), "--n", str(n)]

    def check(self, op, out: str) -> str | None:
        q, _, n = op
        return oracles.check_cy2n(q, n, json.loads(out), self.thresholds)

    def probe_past_edge(self, rounds: list) -> Counter:
        """Call verify-cy2n on every ladder's past-edge rungs, untimed and
        outside the workload's ops, so the large-n defect stays visible.

        Returns the outcomes by class: "ok", "ZeroDivisionError",
        "SingularSystem" (exit 4) or "other".  An "ok" verdict goes through
        the oracle; a rejected one, or an "other" failure, is unexpected."""
        outcomes = Counter()
        ladders = sorted({(q, beta) for ops in rounds for q, beta, _ in ops})
        for q, beta in ladders:
            for n in workloads.past_edge(q):
                op = (q, beta, n)
                _, outcome, out = call_cli(self.argv(op, None))
                if outcome == "ok":
                    reason = self.verdict(op, out)
                    if reason:
                        self.unexpected.append(f"past-edge {op}: {reason}")
                elif outcome not in ("ZeroDivisionError", "exit4"):
                    self.unexpected.append(f"past-edge {outcome} on {op}")
                    outcome = "other"
                outcomes["SingularSystem" if outcome == "exit4" else outcome] += 1
        return outcomes


class Dets(InProcess):
    name = "cvd-dets"

    def node_file(self, key) -> Path:
        return WORK / "nodes" / f"{key[0]}-{key[1]}.json"

    def prepare(self, r, ops):
        for i, op in enumerate(ops):
            if op["kind"] == "vectors":
                path = self.node_file((r, i))
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(op["nodes"]), encoding="utf-8")

    def argv(self, op, key):
        argv = ["cvd", "--q", repr(op["q"]), "--beta", repr(op["beta"])]
        if op["kind"] == "vectors":
            argv += ["--vectors", str(self.node_file(key))]
        elif op["kind"] == "search":
            argv += ["--witness-search", "--search-budget",
                     str(workloads.WITNESS_SEARCH_BUDGET), "--seed", str(op["seed"])]
        return argv

    def check(self, op, out: str) -> str | None:
        doc = json.loads(out)
        q, beta = op["q"], op["beta"]
        if op["kind"] == "search":
            checks = [(doc["witnesses"][label], doc[f"det_{label}"], sign)
                      for label, sign in (("negative", -1), ("positive", 1))]
        elif op["kind"] == "vectors":  # against the nodes the file holds
            checks = [(op["nodes"], doc["determinants"]["custom"], 0)]
        else:
            checks = [(d["nodes"], d, 0) for d in doc["determinants"].values()]
        for nodes, det, sign in checks:
            if sign and not (det["significant"] and det["value"] * sign > 0):
                return f"witness determinant {det['value']!r} lacks the claimed sign"
            x = [workloads.pi_multiple(*p) for p in nodes["x"]]
            y = [workloads.pi_multiple(*p) for p in nodes["y"]]
            reason = oracles.check_det(q, beta, x, y, det)
            if reason:
                return reason
        if op["kind"] == "pair" and (q, beta) == (0.21, 1.0):
            return oracles.check_witness_value(doc["determinants"]["negative_nodes"])
        return None


class Sweep:
    """The batch path: ``neumann-widths sweep`` as a subprocess with 2
    workers, cold in a fresh cache directory, then CACHED_PASSES times from
    that cache."""

    name = "sweep"

    def __init__(self, thresholds: oracles.Thresholds):
        self.thresholds = thresholds
        self.unexpected: list[str] = []
        self.reference: defaultdict[int, list[float]] = defaultdict(list)  # per pass

    def invoke(self, cfg_path: Path, out_path: Path, record_dir: Path | None) -> Op:
        cli_args = ["sweep", "--config", str(cfg_path), "--no-timestamp"]
        if record_dir is None:
            cmd = [sys.executable, "-m", "neumann_widths", *cli_args]
        else:
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(record_dir), *cli_args]
        out_path.unlink(missing_ok=True)
        seconds, code, _, _ = run_child(cmd)
        csv_text = out_path.read_text(encoding="utf-8") if code == 0 else ""
        return Op((), seconds, "ok" if code == 0 else f"exit{code}", csv_text)

    def run(self, rounds: list, seconds: float | None = None,
            n_passes: int | None = None, traced: bool = False, first: int = 0
            ) -> tuple[list[Op], list[Op], list[Path]]:
        """(cold ops, cached ops, record dirs): ``n_passes`` passes over the
        configs, or passes until ``seconds`` have passed; ``first`` numbers
        the passes' scratch directories apart."""
        cold, cached, dirs = [], [], []
        passes = pass_numbers(seconds, n_passes)
        for r, key in ((p + first, (k,)) for p in passes for k in range(len(rounds))):
            cfg = dict(rounds[key[0]])
            run_dir = WORK / f"sweep-{r}-{key[0]}{'-traced' if traced else ''}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            cfg["output"] = str(run_dir / "out.csv")
            cfg["cache_dir"] = str(run_dir / "cache")
            cfg_path = run_dir / "config.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            rows = len(cfg["q_list"]) * len(cfg["beta_list"]) * len(cfg["n_list"])
            phases = [("cold", cold)] + [(f"cached{i}", cached) for i in range(CACHED_PASSES)]
            for phase, sink in phases:
                record_dir = run_dir / f"records-{phase}" if traced else None
                self.reference[r] += [reference_seconds() for _ in range(SWEEP_REFERENCE_SAMPLES)]
                op = self.invoke(cfg_path, run_dir / "out.csv", record_dir)
                op.key, op.rows, op.pass_no = key, rows, r
                sink.append(op)
                if record_dir is not None:
                    dirs.append(record_dir)
        return cold, cached, dirs

    def check(self, rounds: list, cold: list[Op], cached: list[Op]) -> None:
        """Mark rejected rows: each cold CSV row by row, each cached CSV by
        byte identity with the cold one of its round."""
        for i, c in enumerate(cold):
            again = cached[i * CACHED_PASSES:(i + 1) * CACHED_PASSES]
            self.unexpected += [f"sweep {op.outcome} on round {op.key[0]}"
                                for op in (c, *again) if op.outcome != "ok"]
            if c.outcome == "ok":
                bad = [p for p in oracles.check_sweep_csv(rounds[c.key[0]], c.out,
                                                          self.thresholds) if p]
                c.rejected, c.reason = len(bad), (bad[0] if bad else None)
            for op in again:
                if op.outcome == "ok" and op.out != c.out:
                    op.rejected, op.reason = op.rows, "cached CSV differs from the cold CSV"


# ---- checking and summarising ----------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def failure_classes(ops: list[Op]) -> dict[str, int]:
    classes = Counter()
    for op in ops:
        if op.outcome != "ok":
            classes[op.outcome] += op.rows
        elif op.rejected:
            classes["oracle-rejected"] += op.rejected
    return dict(classes)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "loadavg": os.getloadavg()}


# ---- the two kinds of run --------------------------------------------------

def per_input(ops: list[Op], scale: dict[int, float] | None = None
              ) -> list[tuple[int, float]]:
    """(rows, seconds) of each input whose every op succeeded: the median
    over the run's passes of its op time, each multiplied by its pass's
    factor in ``scale`` if given."""
    failed = {op.key for op in ops if op.ok_rows < op.rows}
    times, rows = defaultdict(list), {}
    for op in ops:
        if op.key not in failed:
            times[op.key].append(op.seconds * (scale[op.pass_no] if scale else 1.0))
            rows[op.key] = op.rows
    return [(rows[k], statistics.median(v)) for k, v in times.items()]


def timing_metrics(timed: list[Op], repeat: list[Op], scale: dict[int, float] | None
                   ) -> dict[str, float]:
    """ops_per_s, cached_ops_per_s, op_p50_ms and op_p90_ms over the inputs."""
    first, again = per_input(timed, scale), per_input(repeat, scale)
    throughput = [sum(r for r, _ in xs) / sum(t for _, t in xs) if xs else 0.0
                  for xs in (first, again)]
    latencies = [t / r for r, t in first] or [0.0]  # none: `correct` says so
    return {"ops_per_s": throughput[0], "cached_ops_per_s": throughput[1],
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * percentile(latencies, 90)}


def end_to_end_run(wl, rounds: list, seconds: float) -> tuple[dict, list[Op], dict]:
    """(metrics, ops, the unadjusted timing metrics and the host speed).

    Every input is timed once per pass.  On a shared host the speed at
    which this process runs Python drifts by a third or more over minutes,
    as other tenants' load comes and goes, and often one speed holds for a
    whole run; no choice of samples within a run removes that.  So the
    reference loop is timed before every in-process call pair and 16 times
    before each sweep invocation, and each op time is multiplied by
    REFERENCE_S over the median reference time of its pass: times are
    given at the host speed where the reference loop takes REFERENCE_S.
    An input's time is its median over the passes."""
    setup_s = measure_setup()
    if isinstance(wl, Sweep):
        timed, repeat, _ = wl.run(rounds, seconds=seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        wl.check(rounds, timed, repeat)
    else:
        timed, repeat = wl.run(rounds, seconds=seconds)
        peak_kb = wl.peak_rss_kb
        wl.check_ops(timed + repeat, rounds)
        first = {op.key: op.out for op in timed}
        for op in repeat:
            if op.outcome == "ok" and not op.rejected and op.out != first.get(op.key, op.out):
                op.rejected, op.reason = 1, "repeat output differs from the first"
    reference = {p: statistics.median(v) for p, v in wl.reference.items()}
    metrics = timing_metrics(timed, repeat, {p: REFERENCE_S / t for p, t in reference.items()})
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_kb / 1024.0)
    detail = {"unadjusted": timing_metrics(timed, repeat, None),
              "reference_ms_per_pass": [1e3 * reference[p] for p in sorted(reference)]}
    return metrics, timed + repeat, detail


def traced_run(wl, rounds: list) -> tuple[dict, list[Op], list[dict]]:
    n = TRACE_PASSES[wl.name]
    if isinstance(wl, Sweep):  # whole passes, plain and traced in alternating order
        plain, traced, dirs = ([], []), ([], []), []
        for r in range(n):
            for with_trace in (False, True) if r % 2 == 0 else (True, False):
                cold, cached, d = wl.run(rounds, n_passes=1, traced=with_trace, first=r)
                sink = traced if with_trace else plain
                sink[0].extend(cold)
                sink[1].extend(cached)
                dirs += d
        wl.check(rounds, plain[0] + traced[0], plain[1] + traced[1])
        ops, traced_ops = plain[0] + plain[1] + traced[0] + traced[1], traced[0] + traced[1]
        untraced_s = sum(op.seconds for op in plain[0] + plain[1])
        traced_s = sum(op.seconds for op in traced_ops)
        procs = [p for d in dirs for p in tracing.load_records(d)]
        metrics = tracing.layer_metrics(procs, traced_s)
        cold_procs = [p for d in dirs if d.name == "records-cold"
                      for p in tracing.load_records(d)]
        lookups = sum(op.rows for op in traced_ops)
        metrics["cli.sweep.worker_busy_ratio"] = tracing.sweep_jobs(cold_procs)[1] / (
            workloads.SWEEP_WORKERS * sum(op.seconds for op in traced[0]))
        metrics["cli.sweep.cache_hit_ratio"] = (lookups - tracing.sweep_jobs(procs)[0]) / lookups
    else:
        record_dir = WORK / "records"
        tracer = tracing.Tracer(record_dir)
        plain, traced_ops = wl.run_traced(rounds, n, tracer)
        tracer.flush()
        procs = tracing.load_records(record_dir)
        untraced_s = sum(op.seconds for op in plain)
        traced_s = sum(op.seconds for op in traced_ops)
        metrics = tracing.layer_metrics(procs, traced_s)
        metrics["cli.sweep.worker_busy_ratio"] = 0.0
        metrics["cli.sweep.cache_hit_ratio"] = 0.0
        ops = plain + traced_ops
        wl.check_ops(ops, rounds)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics, ops, procs


def past_edge_metrics(outcomes: Counter) -> dict[str, float]:
    """Per-layer metrics of the past-edge probe (all 0 without one)."""
    probes = sum(outcomes.values())
    prefix = "sk_spline.verify_cy2n."
    return {prefix + "errors.ZeroDivisionError": outcomes["ZeroDivisionError"],
            prefix + "errors.SingularSystem": outcomes["SingularSystem"],
            prefix + "errors.other": outcomes["other"],
            prefix + "past_edge_failure_ratio":
                (probes - outcomes["ok"]) / probes if probes else 0.0}


# ---- entry point -----------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neumann_widths" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import neumann_widths

    if Path(neumann_widths.__file__).resolve().parent != SRC / "neumann_widths":
        sys.stderr.write(f"bench: imported {neumann_widths.__file__}, not the checkout's\n")
        return 2

    env = environment()
    rounds = workloads.generate(args.workload, args.seed)
    digest = hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()
    thresholds = oracles.Thresholds()
    wl = {"sweep": Sweep, "cy2n-ladder": Ladder, "cvd-dets": Dets}[args.workload](thresholds)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        detail = {}
        if args.trace:
            values, ops, procs = traced_run(wl, rounds)
            units = tracing.PER_LAYER
        else:
            values, ops, detail = end_to_end_run(wl, rounds, args.seconds)
            procs, units = None, END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    past_edge = wl.probe_past_edge(rounds) if isinstance(wl, Ladder) else Counter()
    values.update(past_edge_metrics(past_edge))

    attempted = sum(op.rows for op in ops)
    failed = attempted - sum(op.ok_rows for op in ops)
    rejected = [op.reason for op in ops if op.reason]
    classes = failure_classes(ops)
    correct = not rejected and not wl.unexpected and failed == 0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    result = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failure_classes": classes, "unexpected_failures": wl.unexpected[:20],
              "oracle_rejections": rejected[:20], "metrics": metrics, **detail}
    if past_edge:
        result["past_edge_outcomes"] = dict(past_edge)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if procs is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(procs), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256:{digest[:16]}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if detail:
        ref = detail["reference_ms_per_pass"]
        print(f"unadjusted (at the host speed of the run, reference loop {min(ref):.3f}-"
              f"{max(ref):.3f} ms over {len(ref)} passes): "
              + " ".join(f"{k} {v:.6g}" for k, v in detail["unadjusted"].items()))
    print(f"ops attempted {attempted}  failed {failed}  error_rate "
          f"{failed / attempted:.4f} ratio  classes {classes or 'none'}")
    print(f"oracle: {'all accepted' if not rejected else f'{len(rejected)} rejected, first: {rejected[0]}'}"
          f"; unexpected failures: {len(wl.unexpected)}")
    if past_edge:
        print("past the underflow edge (not counted as ops): "
              + " ".join(f"{k}={v}" for k, v in sorted(past_edge.items())))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
