"""Spans and counters recorded from outside the program.

``install`` replaces public functions in the namespaces that call them (for
example ``cli.min_guaranteed_n_beta`` or ``cvd.eval_neumann``) with wrappers
that record a span -- name, start, end, parent -- or, for functions called
hundreds of thousands of times, only a count.  Spans stay in memory.  A
process writes them out with ``flush``; sweep pool workers, which are
terminated without running exit hooks, flush after every job.

``layer_metrics`` turns the records of all processes into the per-layer
metrics named ``<module>.<function>.<stat>``.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

import oracles

# (module, attribute, layer name, kind): kind is "span" or "count".
WRAPS = (
    ("cli", "main", "cli.main", "span"),
    ("cli", "_sweep_job", "cli._sweep_job", "span"),
    ("cli", "exact_width", "widths.exact_width", "span"),
    ("cli", "min_guaranteed_n_beta", "thresholds.min_guaranteed_n_beta", "span"),
    ("cli", "verify_cy2n", "sk_spline.verify_cy2n", "span"),
    ("cli", "supnorm_square_conv", "oracles.supnorm_square_conv", "span"),
    ("cli", "verdict", "thresholds.verdict", "count"),
    ("thresholds", "verdict", "thresholds.verdict", "count"),
    ("widths", "solve_theta", "widths.solve_theta", "span"),
    ("sk_spline", "solve_theta", "widths.solve_theta", "span"),
    ("widths", "eval_gq", "kernels.eval_gq", "count"),
    ("sk_spline", "eval_pq", "kernels.eval_pq", "span"),
    ("cvd", "eval_neumann", "kernels.eval_neumann", "span"),
    ("cvd", "eval_neumann_pair", "kernels.eval_neumann_pair", "count"),
    ("cvd", "det_D", "cvd.det_D", "span"),
    ("cvd", "cvd_witness", "cvd.cvd_witness", "span"),
)


def _note(name, args, kwargs, result, error):
    """Span attributes the per-layer metrics need."""
    if name == "cvd.det_D":
        note = {"order": args[1].size}
        if result is not None:
            note.update(dd=result.used_extended, significant=result.significant)
        return note
    if name == "sk_spline.verify_cy2n":
        return {"n": args[1], "error": type(error).__name__ if error else None}
    if name == "thresholds.min_guaranteed_n_beta":
        return {"q": args[0], "integer_beta": args[1] % 1.0 == 0.0,
                "cap": kwargs.get("n_cap", args[2] if len(args) > 2 else 1_000_000)}
    return None


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._flushed = 0

    def _span_wrapper(self, orig, name):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # first span in a forked worker
                self._reset()
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = error = None
            rec[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                rec[4] = _note(name, args, kwargs, result, error)
                if name == "cli._sweep_job":
                    self.flush()
        return wrapper

    def _count_wrapper(self, orig, name):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def install(self, modules: dict) -> "Tracer":
        """Patch every entry of WRAPS; ``uninstall`` restores them."""
        for mod_name, attr, name, kind in WRAPS:
            module = modules[mod_name]
            orig = getattr(module, attr)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self._patches.append((module, attr, orig))
            setattr(module, attr, make(orig, name))
        return self

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def flush(self):
        """Append the spans recorded since the last flush, the counters and
        the theta-solve cache statistics to this process's record file."""
        from neumann_widths import widths

        info = widths._solve_theta_cached.cache_info()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"proc-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as f:
            for rec in self.spans[self._flushed:]:
                f.write(json.dumps({"span": rec}) + "\n")
            f.write(json.dumps({"counts": dict(self.counts),
                                "theta_cache": [info.hits, info.misses]}) + "\n")
        self._flushed = len(self.spans)


def modules() -> dict:
    """The program's modules whose namespaces the wrappers patch."""
    from neumann_widths import cli, cvd, sk_spline, thresholds, widths

    return {"cli": cli, "cvd": cvd, "sk_spline": sk_spline,
            "thresholds": thresholds, "widths": widths}


def load_records(out_dir: Path) -> list[dict]:
    """Per process: its spans, final counters and theta-cache statistics."""
    procs = []
    for path in sorted(Path(out_dir).glob("proc-*.jsonl")):
        spans, last = [], {"counts": {}, "theta_cache": [0, 0]}
        for line in path.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if "span" in doc:
                spans.append(doc["span"])
            else:
                last = doc
        procs.append({"spans": spans, **last})
    return procs


PER_LAYER = {
    # name: unit
    "cli.main.calls": "count",
    "cli.main.self_share": "ratio",
    "cli.sweep.cache_hit_ratio": "ratio",
    "cli.sweep.worker_busy_ratio": "ratio",
    "thresholds.min_guaranteed_n_beta.calls": "count",
    "thresholds.min_guaranteed_n_beta.self_share": "ratio",
    "thresholds.verdict.calls": "count",
    "thresholds.scan_useful_ratio": "ratio",
    "widths.exact_width.calls": "count",
    "widths.exact_width.self_share": "ratio",
    "widths.solve_theta.calls": "count",
    "widths.solve_theta.cache_hit_ratio": "ratio",
    "oracles.supnorm_square_conv.calls": "count",
    "oracles.supnorm_square_conv.self_share": "ratio",
    "sk_spline.verify_cy2n.calls": "count",
    "sk_spline.verify_cy2n.self_share": "ratio",
    "sk_spline.verify_cy2n.midpoints": "count",
    "sk_spline.verify_cy2n.errors.ZeroDivisionError": "count",
    "sk_spline.verify_cy2n.errors.SingularSystem": "count",
    "sk_spline.verify_cy2n.errors.other": "count",
    "sk_spline.verify_cy2n.past_edge_failure_ratio": "ratio",
    "kernels.eval_pq.calls": "count",
    "kernels.eval_pq.self_share": "ratio",
    "kernels.eval_neumann.calls": "count",
    "kernels.eval_neumann.self_share": "ratio",
    "kernels.eval_neumann_pair.calls": "count",
    "kernels.eval_gq.calls": "count",
    "cvd.det_D.order3.calls": "count",
    "cvd.det_D.order3.self_share": "ratio",
    "cvd.det_D.order5.calls": "count",
    "cvd.det_D.order5.self_share": "ratio",
    "cvd.det_D.order7.calls": "count",
    "cvd.det_D.order7.self_share": "ratio",
    "cvd.det_D.dd_ratio": "ratio",
    "cvd.det_D.significant_ratio": "ratio",
    "cvd.cvd_witness.calls": "count",
    "cvd.cvd_witness.dets_per_call": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(procs: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the records (the caller adds the run-level
    ones and those of the past-edge probe).

    ``*.self_share`` is a layer's self time, summed over every traced
    process, over the traced phase's wall time; in the sweep two workers run
    at once, so shares there can add up to more than 1.
    """
    calls, self_s = Counter(), Counter()
    det_flags = Counter()
    midpoints = 0
    scans = []
    witness_dets = 0
    counts = Counter()
    hits = misses = 0
    for proc in procs:
        spans = proc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, note in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, note) in enumerate(spans):
            key = name
            if name == "cvd.det_D":
                key = f"cvd.det_D.order{note['order']}"
                det_flags["dd"] += bool(note.get("dd"))
                det_flags["significant"] += bool(note.get("significant"))
                det_flags["all"] += 1
                if parent >= 0 and spans[parent][0] == "cvd.cvd_witness":
                    witness_dets += 1
            elif name == "sk_spline.verify_cy2n" and note["error"] is None:
                midpoints += 2 * note["n"]
            elif name == "thresholds.min_guaranteed_n_beta":
                cutoff = (oracles.INTEGER_BETA_Q_CUTOFF if note["integer_beta"]
                          else oracles.NONINTEGER_BETA_Q_CUTOFF)
                if note["q"] > cutoff:
                    scans.append((note["q"], note["integer_beta"], note["cap"]))
            calls[key] += 1
            self_s[key] += (end - start) - covered[i]
        counts.update(proc["counts"])
        hits += proc["theta_cache"][0]
        misses += proc["theta_cache"][1]

    out = {}
    for layer in ("cli.main", "thresholds.min_guaranteed_n_beta", "widths.exact_width",
                  "oracles.supnorm_square_conv", "sk_spline.verify_cy2n",
                  "kernels.eval_pq", "kernels.eval_neumann", "cvd.det_D.order3",
                  "cvd.det_D.order5", "cvd.det_D.order7"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = _ratio(self_s[layer], traced_wall)
    out["thresholds.verdict.calls"] = counts["thresholds.verdict"]
    out["thresholds.scan_useful_ratio"] = _ratio(len(set(scans)), len(scans))
    out["widths.solve_theta.calls"] = calls["widths.solve_theta"]
    out["widths.solve_theta.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["sk_spline.verify_cy2n.midpoints"] = midpoints
    out["kernels.eval_neumann_pair.calls"] = counts["kernels.eval_neumann_pair"]
    out["kernels.eval_gq.calls"] = counts["kernels.eval_gq"]
    out["cvd.det_D.dd_ratio"] = _ratio(det_flags["dd"], det_flags["all"])
    out["cvd.det_D.significant_ratio"] = _ratio(det_flags["significant"], det_flags["all"])
    out["cvd.cvd_witness.calls"] = calls["cvd.cvd_witness"]
    out["cvd.cvd_witness.dets_per_call"] = _ratio(witness_dets, calls["cvd.cvd_witness"])
    return out


def sweep_jobs(procs: list[dict]) -> tuple[int, float]:
    """(number of sweep jobs run, their summed duration in seconds)."""
    spans = [s for proc in procs for s in proc["spans"] if s[0] == "cli._sweep_job"]
    return len(spans), sum(end - start for _, start, end, _, _ in spans)
