"""Command-line surface: single-shot JSON commands and a CSV/JSON sweep runner.

Exit codes: 0 success, 2 validation error, 3 not-found, 4 numerical failure.
Errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from multiprocessing import Pool
from pathlib import Path

from . import cvd as cvd_mod
from .errors import DomainError, NeumannWidthsError, NotFound
from .kernels import DEFAULT_POLICY, EvalPolicy, NeumannParams
from .oracles import supnorm_square_conv
from .sk_spline import verify_cy2n
from .thresholds import (is_integer_beta, min_guaranteed_n, min_guaranteed_n_beta,
                         verdict)
from .widths import exact_width

SWEEP_COLUMNS = ["q", "beta", "n", "theta_n", "y0", "width", "gamma_n",
                 "sandwich_lo", "sandwich_hi", "nq_flag", "cy2n_holds",
                 "oracle_delta"]
_SCHEMA_VERSION = 1

ENV_WORKERS = "NEUMANN_WIDTHS_WORKERS"
ENV_CACHE_DIR = "NEUMANN_WIDTHS_CACHE_DIR"


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


def _policy_from_args(args) -> EvalPolicy:
    return EvalPolicy(abs_tol=args.abs_tol, max_terms=args.max_terms)


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abs-tol", type=float, default=DEFAULT_POLICY.abs_tol, dest="abs_tol")
    p.add_argument("--max-terms", type=int, default=DEFAULT_POLICY.max_terms, dest="max_terms")


def _width_fields(report) -> dict:
    """The WidthReport fields of a width row, q .. sandwich_hi in order."""
    return {"q": report.q, "beta": report.beta, "n": report.n,
            "theta_n": report.theta, "y0": report.y0, "width": report.width,
            "gamma_n": report.gamma_n, "sandwich_lo": report.sandwich_lo,
            "sandwich_hi": report.sandwich_hi}


def cmd_width(args) -> int:
    params = NeumannParams(args.q, args.beta)
    report = exact_width(params, args.n, _policy_from_args(args))
    out = {**_width_fields(report), "residual": report.residual,
           "branch": report.branch.value}
    if args.verify:
        max_abs, argmax = supnorm_square_conv(params, args.n)
        out["verify"] = {"supnorm": max_abs, "argmax": argmax,
                         "delta": abs(max_abs - report.width)}
    print(json.dumps(out))
    return 0


def cmd_threshold(args) -> int:
    if args.beta is not None:
        res = min_guaranteed_n_beta(args.q, args.beta, n_cap=args.cap)
    else:
        res = min_guaranteed_n(args.q, n_cap=args.cap)
    out = {"q": args.q, "n": res.n, "later_failures": list(res.later_failures)}
    if args.beta is not None:
        out["beta"] = args.beta
    if args.trace and res.n >= 2:
        out["trace"] = [{"n": v.n, "tail": vars(v.tail), "budget": vars(v.budget)}
                        for v in (verdict(args.q, n) for n in range(2, res.n + 1))]
    print(json.dumps(out))
    return 0


def cmd_verify_cy2n(args) -> int:
    params = NeumannParams(args.q, args.beta)
    res = verify_cy2n(params, args.n, y=args.y, policy=_policy_from_args(args))
    print(json.dumps({
        "q": args.q, "beta": args.beta, "n": args.n,
        "holds": res.holds, "epsilon": res.epsilon,
        "pattern": list(res.pattern), "signs": list(res.signs),
        "zero_tol": res.zero_tol,
    }))
    return 0


def cmd_cvd(args) -> int:
    params = NeumannParams(args.q, args.beta)
    kernel = cvd_mod.neumann_evaluator(params)
    out = {"q": args.q, "beta": args.beta, "epsilon": args.epsilon}

    if args.witness_search:
        seeds = list(cvd_mod.builtin_witnesses()) if args.q == cvd_mod.WITNESS_Q else []
        neg, pos = cvd_mod.cvd_witness(kernel, args.l, args.search_budget,
                                       rng_seed=args.seed, seeds=seeds)
        out["witnesses"] = {"negative": neg.to_json_dict(), "positive": pos.to_json_dict()}
        for label, nodes in (("negative", neg), ("positive", pos)):
            res = cvd_mod.det_D(kernel, nodes, epsilon=args.epsilon)
            out[f"det_{label}"] = {"value": res.value,
                                   "error_estimate": res.error_estimate,
                                   "significant": res.significant}
        print(json.dumps(out))
        return 0

    if args.vectors is not None:
        data = json.loads(Path(args.vectors).read_text(encoding="utf-8"))
        pairs = [("custom", cvd_mod.NodeVectors.from_json_dict(data))]
    else:  # built-in q = 0.21 witness pair
        neg, pos = cvd_mod.builtin_witnesses()
        pairs = [("negative_nodes", neg), ("positive_nodes", pos)]
    dets = {}
    for label, nodes in pairs:
        res = cvd_mod.det_D(kernel, nodes, epsilon=args.epsilon)
        dets[label] = {"nodes": nodes.to_json_dict(), "value": res.value,
                       "error_estimate": res.error_estimate,
                       "significant": res.significant,
                       "used_extended": res.used_extended}
    out["determinants"] = dets
    print(json.dumps(out))
    return 0


# ---- sweep -------------------------------------------------------------

def _job_key(job: dict) -> str:
    return hashlib.sha256(
        json.dumps(job, sort_keys=True).encode("utf-8")).hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / (key[2:] + ".json")


def _cache_store(cache_dir: Path, key: str, row: dict) -> None:
    path = _cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(row, f, sort_keys=True)
        os.replace(tmp, path)  # atomic insert
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sweep_job(task: tuple[dict, int | None]) -> dict:
    """One sweep row from (job, its threshold n or None when not found); must
    stay importable at module level for worker pools."""
    job, threshold = task
    params = NeumannParams(job["q"], job["beta"])
    n = job["n"]
    policy = EvalPolicy(job["abs_tol"], job["max_terms"])
    report = exact_width(params, n, policy)
    row = _width_fields(report)
    row["nq_flag"] = None if threshold is None else n >= threshold
    try:
        row["cy2n_holds"] = verify_cy2n(params, n, policy=policy).holds
    except NeumannWidthsError:
        row["cy2n_holds"] = None
    if job["verify"]:
        max_abs, _ = supnorm_square_conv(params, n, grid_points=job["oracle_grid"],
                                         refine_tol=job["oracle_refine_tol"])
        row["oracle_delta"] = abs(max_abs - report.width)
    else:
        row["oracle_delta"] = None
    return row


def _number(value, what: str, integral: bool = False):
    """A sweep config value, a finite JSON number (not a string or a boolean),
    as a float, or as an int where ``integral`` (1e6 is 1000000, 2.5 an error)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise DomainError(f"sweep config {what} must be a finite number, got {value!r}")
    if integral and value != int(value):
        raise DomainError(f"sweep config {what} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def _shaped(cfg: dict, key: str, shape: type, default=None):
    """``cfg[key]`` (``default`` when absent), which must be a ``shape``."""
    value = cfg.get(key, default)
    if not isinstance(value, shape):
        kind = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}[shape]
        raise DomainError(f"sweep config {key} must be {kind}, got {value!r}")
    return value


def _load_sweep_config(path: str) -> dict:
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise DomainError("a sweep config must be a JSON object")
    for key in ("q_list", "beta_list"):
        if not _shaped(cfg, key, list, []):
            raise DomainError(f"sweep config must set a nonempty {key}")
    for q in cfg["q_list"]:
        if isinstance(q, bool) or not isinstance(q, (int, float)) or not 0.0 < q < 1.0:
            raise DomainError(f"sweep q values must be numbers in (0, 1), got {q!r}")
    if "n_list" in cfg:
        n_values = [_number(n, "n_list entry", True) for n in _shaped(cfg, "n_list", list)]
    elif "n_range" in cfg:
        r = [_number(v, "n_range entry", True) for v in _shaped(cfg, "n_range", list)]
        if len(r) == 2:
            n_values = list(range(r[0], r[1] + 1))
        elif len(r) == 3 and r[2] != 0:
            n_values = list(range(r[0], r[1] + 1, r[2]))
        else:
            raise DomainError("n_range must be [start, stop] or [start, stop, step] "
                              "with a nonzero step")
    else:
        raise DomainError("sweep config must set n_list or n_range")
    if not n_values:
        raise DomainError("sweep n values are empty")
    betas = [_number(b, "beta_list entry") for b in cfg["beta_list"]]
    policy = _shaped(cfg, "policy", dict, {})
    shared = {
        "abs_tol": _number(policy.get("abs_tol", DEFAULT_POLICY.abs_tol), "policy abs_tol"),
        "max_terms": _number(policy.get("max_terms", DEFAULT_POLICY.max_terms),
                             "policy max_terms", True),
        "verify": _shaped(cfg, "verify", bool, True),
        "oracle_grid": _number(cfg.get("oracle_grid", 4096), "oracle_grid", True),
        "oracle_refine_tol": _number(cfg.get("oracle_refine_tol", 1e-13), "oracle_refine_tol"),
        "nq_cap": _number(cfg.get("nq_cap", 200_000), "nq_cap", True),
        "schema": _SCHEMA_VERSION}
    cfg["_jobs"] = [{"q": float(q), "beta": b, "n": n, **shared}
                    for q in cfg["q_list"] for b in betas for n in n_values]
    return cfg


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args.config)
    jobs = cfg["_jobs"]
    out_path = Path(_shaped(cfg, "output", str, "sweep_out.csv"))
    fmt = _shaped(cfg, "format", str, "csv").lower()
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt}")
    workers = _number(cfg.get("workers", 1), "workers", True)
    try:  # the environment's value is a string by nature
        workers = int(os.environ.get(ENV_WORKERS, workers))
    except ValueError:
        raise DomainError(f"{ENV_WORKERS} must be an integer, "
                          f"got {os.environ[ENV_WORKERS]!r}") from None
    cache_dir = Path(os.environ.get(ENV_CACHE_DIR, _shaped(cfg, "cache_dir", str, ".nw-cache")))
    stamp = not (_shaped(cfg, "no_timestamp", bool, False) or args.no_timestamp)

    keys = [_job_key(j) for j in jobs]
    rows: dict[int, dict] = {}
    pending: list[int] = []
    for i, key in enumerate(keys):
        path = _cache_path(cache_dir, key)
        if path.exists():
            rows[i] = json.loads(path.read_text(encoding="utf-8"))
        else:
            pending.append(i)

    def run_pending():
        # A threshold depends on q, the beta class and the cap only: scan
        # it once per distinct key among the rows still to compute.
        thresholds: dict[tuple, int | None] = {}
        tasks = []
        for i in pending:
            job = jobs[i]
            key = (job["q"], is_integer_beta(job["beta"]), job["nq_cap"])
            if key not in thresholds:
                try:
                    thresholds[key] = min_guaranteed_n_beta(job["q"], job["beta"],
                                                            n_cap=job["nq_cap"]).n
                except NotFound:
                    thresholds[key] = None
            tasks.append((job, thresholds[key]))
        if not tasks:
            return
        with Pool(processes=workers) if workers > 1 else contextlib.nullcontext() as pool:
            results = map(_sweep_job, tasks) if pool is None else pool.imap(_sweep_job, tasks)
            for i, row in zip(pending, results):
                rows[i] = row
                _cache_store(cache_dir, keys[i], row)

    interrupted = False
    try:
        run_pending()
    except KeyboardInterrupt:
        interrupted = True

    ordered = [rows[i] for i in sorted(rows)]
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with out_path.open("w", newline="", encoding="utf-8") as f:
            if stamp:
                f.write(f"# generated-at {generated_at}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(SWEEP_COLUMNS)
            for row in ordered:
                writer.writerow([_format_cell(row[c]) for c in SWEEP_COLUMNS])
    else:
        doc = {"rows": ordered}
        if stamp:
            doc["generated_at"] = generated_at
        out_path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    if interrupted:
        sys.stderr.write(f"interrupted: flushed {len(ordered)} of {len(jobs)} rows\n")
        return 130
    print(str(out_path))
    return 0


# ---- entry point --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors, so a bad
    flag value ends in the JSON error on stderr; subcommand parsers inherit
    the class.  ``--help`` still prints and exits 0.  Any token that starts
    like a negative float (-1e-3, -1., -.5, -inf, -nan) is a value, where
    argparse alone takes only digits with an optional point for one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process."""
    top = _Parser(prog="neumann-widths", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("width", help="exact width and asymptotic decomposition")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="also run the grid sup-norm oracle and report the delta")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("threshold", help="smallest index with guaranteed equalities")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("verify-cy2n", help="alternating midpoint sign condition")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--y", type=float, default=None,
                   help="shift; defaults to the peak shift y0")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_verify_cy2n)

    p = sub.add_parser("cvd", help="variation-diminishing determinant test")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--epsilon", type=int, default=1, choices=(1, -1))
    p.add_argument("--vectors", type=str, default=None,
                   help="JSON file of node vectors as rational multiples of pi "
                        "(default: the built-in q=0.21 witness pair)")
    p.add_argument("--witness-search", action="store_true")
    p.add_argument("--search-budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cvd)

    p = sub.add_parser("sweep", help="parameter sweep to CSV/JSON with caching")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    p.set_defaults(func=cmd_sweep)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        _emit_error("validation", str(exc))
        return 2
    except NotFound as exc:
        _emit_error("not-found", str(exc))
        return 3
    except NeumannWidthsError as exc:
        _emit_error("numerical", str(exc))
        return 4
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        _emit_error("validation", f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
