"""Command-line surface: single-shot JSON commands and a CSV/JSON sweep runner.

Exit codes: 0 success, 2 validation error, 3 not-found, 4 numerical failure.
Errors are emitted as one JSON object on stderr.

Each call is parsed once: the first token picks the command, and that
command's own parser reads the rest.  The top-level parser only prints
``--help`` and reports usage errors (no command, an unknown one, tokens a
command leaves over), in the words a full top-level parse would use.

Each command imports only the numerical modules it calls, on first use:
``--help`` and a sweep whose rows all come from the cache import none of
them (nor numpy, ``dataclasses`` or, with ``--no-timestamp``,
``datetime``); ``cvd`` loads ``kernels`` and ``cvd``, ``threshold``
``kernels`` and ``thresholds``, and a sweep with rows to compute every
numerical module but ``cvd``.  Only a sweep loads ``hashlib`` (its cache
keys) and ``csv``.  The name loader takes each name's module from the
package's name table, with no exception: ``cmd_cvd`` imports the ``cvd``
module itself, as ``cmd_sweep`` imports ``Pool``.  The config file is the
only source of a sweep's settings, but for ``--no-timestamp``; one function
reads them, refuses a key it does not read, and passes each value through
the library's own checks (``policy``) before any row runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import math
import re
import sys
from pathlib import Path

from . import _MODULE_OF, __version__
from .errors import DomainError, NeumannWidthsError, NotFound
from .policy import (DEFAULT_POLICY, EvalPolicy, _check_cap, _check_n, _check_oracle_grid,
                     _check_q)

SWEEP_COLUMNS = ["q", "beta", "n", "theta_n", "y0", "width", "gamma_n",
                 "sandwich_lo", "sandwich_hi", "nq_flag", "cy2n_holds",
                 "oracle_delta"]

# The keys a sweep config may set; ``policy`` sets ``abs_tol`` and ``max_terms``.
_SWEEP_KEYS = {"q_list", "beta_list", "n_list", "n_range", "policy", "output", "format",
               "workers", "verify", "oracle_grid", "oracle_refine_tol", "nq_cap", "cache_dir"}

# The names a sweep row calls; the sweep cache fingerprint hashes their modules.
_SWEEP_NAMES = ("NeumannParams", "exact_width", "min_guaranteed_n_beta", "verify_cy2n",
                "supnorm_square_conv")


def _load_numerics(*names: str) -> None:
    """Bind each of ``names`` that is still unbound, from its module in the
    package's name table; a name already bound, such as a wrapper set with
    ``setattr``, is what this module calls."""
    scope = globals()
    for name in names:
        if name not in scope:
            module = importlib.import_module(f".{_MODULE_OF[name]}", __package__)
            scope[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numerics(name)
    return globals()[name]


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
    _load_numerics("NeumannParams", "exact_width")
    params = NeumannParams(args.q, args.beta)
    report = exact_width(params, args.n, _policy_from_args(args))
    out = {**_width_fields(report), "residual": report.residual,
           "branch": report.branch.value}
    if args.verify:
        _load_numerics("supnorm_square_conv")
        max_abs, argmax = supnorm_square_conv(params, args.n)
        out["verify"] = {"supnorm": max_abs, "argmax": argmax,
                         "delta": abs(max_abs - report.width)}
    print(json.dumps(out))
    return 0


def cmd_threshold(args) -> int:
    _load_numerics("min_guaranteed_n", "min_guaranteed_n_beta", "verdict")
    if args.beta is not None:
        res = min_guaranteed_n_beta(args.q, args.beta, n_cap=args.cap)
    else:
        res = min_guaranteed_n(args.q, n_cap=args.cap)
    out = {"q": args.q, "n": res.n, "later_failures": list(res.later_failures)}
    if args.beta is not None:
        out["beta"] = args.beta
    if args.trace and res.n >= 2:
        # the verdict is monotone in n, so the ones at n_q - 1 and n_q fix n_q
        first = max(2, res.n - 1)
        out["trace"] = [{"n": v.n, "tail": vars(v.tail), "budget": vars(v.budget)}
                        for v in (verdict(args.q, n) for n in range(first, res.n + 1))]
    print(json.dumps(out))
    return 0


def cmd_verify_cy2n(args) -> int:
    _load_numerics("NeumannParams", "verify_cy2n")
    params = NeumannParams(args.q, args.beta)
    res = verify_cy2n(params, args.n, y=args.y, policy=_policy_from_args(args))
    print(json.dumps({
        "q": args.q, "beta": args.beta, "n": args.n,
        "holds": res.holds, "epsilon": res.epsilon,
        "pattern": res.pattern, "signs": res.signs,  # tuples write as JSON arrays
        "unresolved": res.unresolved, "bound": res.bound, "log10_scale": res.log10_scale,
    }))
    return 0


def _det_fields(res, epsilon: int) -> dict:
    """The JSON fields of ``res``, a determinant taken at eps = +1, at
    ``epsilon``: the order is odd, so eps = -1 negates the value alone."""
    return {"value": epsilon * res.value, "error_estimate": res.error_estimate,
            "significant": res.significant}


def cmd_cvd(args) -> int:
    from . import cvd

    kernel = cvd.neumann_evaluator(cvd.NeumannParams(args.q, args.beta))
    out = {"q": args.q, "beta": args.beta, "epsilon": args.epsilon}

    if args.witness_search:
        # the built-in witnesses are order-3 nodes, so they seed only l = 1
        seeds = cvd.builtin_witnesses() if args.q == cvd.WITNESS_Q and args.l == 1 else ()
        found = dict(zip(("negative", "positive"), cvd.cvd_witness(
            kernel, args.l, args.search_budget, args.seed, seeds)))
        out["witnesses"] = {label: nodes.to_json_dict() for label, (nodes, _) in found.items()}
        for label, (_, res) in found.items():
            out[f"det_{label}"] = _det_fields(res, args.epsilon)
        print(json.dumps(out))
        return 0

    if args.vectors is not None:
        data = json.loads(Path(args.vectors).read_text(encoding="utf-8"))
        pairs = [("custom", cvd.NodeVectors.from_json_dict(data))]
    else:  # built-in q = 0.21 witness pair
        neg, pos = cvd.builtin_witnesses()
        pairs = [("negative_nodes", neg), ("positive_nodes", pos)]
    dets = {}
    for label, nodes in pairs:
        res = cvd.det_D(kernel, nodes)
        dets[label] = {"nodes": nodes.to_json_dict(), **_det_fields(res, args.epsilon),
                       "used_extended": res.used_extended}
    out["determinants"] = dets
    print(json.dumps(out))
    return 0


# ---- sweep -------------------------------------------------------------

def _job_key(job: dict) -> str:
    import hashlib  # the sweep path alone hashes

    return hashlib.sha256(
        json.dumps(job, sort_keys=True).encode("utf-8")).hexdigest()


@functools.cache
def _code_fingerprint() -> str:
    """``<version>-<digest>``: the package version and a sha256 of the
    source bytes of the modules a sweep row calls (those of ``_SWEEP_NAMES``)
    and of this one, which builds the rows, read as files, not imported.
    The sweep cache is one log, ``<cache_dir>/<fingerprint>.jsonl``, so rows
    computed by other code are never served."""
    import hashlib

    digest = hashlib.sha256()
    for module in sorted({*(_MODULE_OF[name] for name in _SWEEP_NAMES), "cli"}):
        digest.update(Path(__file__).with_name(f"{module}.py").read_bytes())
    return f"{__version__}-{digest.hexdigest()[:16]}"


def _cached_rows(log: Path, keys: set[str]) -> dict[str, dict]:
    """Per key of ``keys``, the last line of the sweep log that reads as its
    row: the 64-hex job key, a tab and the row's JSON.  Only the lines of
    wanted keys are decoded; one that is torn, not UTF-8, not JSON or lacks
    a column is passed over, so its row is computed again and appended."""
    try:
        lines = log.read_bytes().split(b"\n")
    except FileNotFoundError:
        return {}
    found: dict[str, dict] = {}
    for line in reversed(lines):
        key = line[:64].decode("latin-1")
        if key in keys and key not in found and line[64:65] == b"\t":
            with contextlib.suppress(ValueError):
                row = json.loads(line[65:].decode("utf-8"))
                if isinstance(row, dict) and row.keys() == set(SWEEP_COLUMNS):
                    found[key] = row
    return found


def _sweep_job(job: dict) -> dict:
    """The sweep row of ``job``, a function of the job alone; must stay
    importable at module level for worker pools."""
    _load_numerics(*_SWEEP_NAMES)  # a spawned worker starts from a fresh import
    params = NeumannParams(job["q"], job["beta"])
    n = job["n"]
    policy = EvalPolicy(job["abs_tol"], job["max_terms"])
    report = exact_width(params, n, policy)
    row = _width_fields(report)
    try:
        row["nq_flag"] = n >= min_guaranteed_n_beta(job["q"], job["beta"],
                                                    n_cap=job["nq_cap"]).n
    except NotFound:
        row["nq_flag"] = None
    try:
        res = verify_cy2n(params, n, policy=policy)
        # resolved signs that alternate say nothing of the unresolved ones
        row["cy2n_holds"] = "undecided" if res.holds and res.unresolved else res.holds
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
    """Every setting of the sweep config at ``path``, checked: the jobs under
    ``"_jobs"``, ``output``, ``format``, ``workers`` and ``cache_dir``."""
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise DomainError("a sweep config must be a JSON object")
    policy = _shaped(cfg, "policy", dict, {})
    unknown = [*(key for key in cfg if key not in _SWEEP_KEYS),
               *(f"policy.{key}" for key in policy if key not in ("abs_tol", "max_terms"))]
    if unknown:
        raise DomainError(f"sweep config has unknown keys: {', '.join(unknown)}")
    for key in ("q_list", "beta_list"):
        if not _shaped(cfg, key, list, []):
            raise DomainError(f"sweep config must set a nonempty {key}")
    qs = [_number(q, "q_list entry") for q in cfg["q_list"]]
    for q in qs:
        _check_q(q)
    if ("n_list" in cfg) == ("n_range" in cfg):
        raise DomainError("sweep config must set exactly one of n_list and n_range")
    if "n_list" in cfg:
        n_values = [_number(n, "n_list entry", True) for n in _shaped(cfg, "n_list", list)]
    else:
        r = [_number(v, "n_range entry", True) for v in _shaped(cfg, "n_range", list)]
        if len(r) == 2:
            r.append(1)
        if len(r) != 3 or r[2] == 0:
            raise DomainError("n_range must be [start, stop] or [start, stop, step] "
                              "with a nonzero step")
        start, stop, step = r  # stop is included for either sign of step
        n_values = list(range(start, stop + (1 if step > 0 else -1), step))
    if not n_values:
        raise DomainError("sweep n values are empty")
    _check_n(min(n_values))  # every n is >= 1 iff the smallest is
    betas = [_number(b, "beta_list entry") for b in cfg["beta_list"]]
    shared = {
        "abs_tol": _number(policy.get("abs_tol", DEFAULT_POLICY.abs_tol), "policy abs_tol"),
        "max_terms": _number(policy.get("max_terms", DEFAULT_POLICY.max_terms),
                             "policy max_terms", True),
        "verify": _shaped(cfg, "verify", bool, True),
        "oracle_grid": _number(cfg.get("oracle_grid", 4096), "oracle_grid", True),
        "oracle_refine_tol": _number(cfg.get("oracle_refine_tol", 1e-13), "oracle_refine_tol"),
        "nq_cap": _number(cfg.get("nq_cap", 200_000), "nq_cap", True)}
    _check_cap(shared["nq_cap"])
    _check_oracle_grid(shared["oracle_grid"], shared["oracle_refine_tol"])
    EvalPolicy(shared["abs_tol"], shared["max_terms"])
    fmt = _shaped(cfg, "format", str, "csv").lower()
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt}")
    workers = _number(cfg.get("workers", 1), "workers", True)
    if workers < 1:
        raise DomainError(f"sweep config workers must be at least 1, got {workers}")
    return {"_jobs": [{"q": q, "beta": b, "n": n, **shared}
                      for q in qs for b in betas for n in n_values],
            "output": Path(_shaped(cfg, "output", str, "sweep_out.csv")), "format": fmt,
            "workers": workers, "cache_dir": Path(_shaped(cfg, "cache_dir", str, ".nw-cache"))}


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def cmd_sweep(args) -> int:
    settings = _load_sweep_config(args.config)
    jobs, out_path, cache_dir = settings["_jobs"], settings["output"], settings["cache_dir"]

    log = cache_dir / f"{_code_fingerprint()}.jsonl"
    keys = [_job_key(j) for j in jobs]
    cached = _cached_rows(log, set(keys))
    rows = {i: cached[key] for i, key in enumerate(keys) if key in cached}
    pending = [i for i in range(len(jobs)) if i not in rows]

    interrupted = False
    try:
        if pending:
            _load_numerics(*_SWEEP_NAMES)  # before the pool forks, so workers inherit it
            workers = min(settings["workers"], len(pending))  # no worker without a row
            if workers > 1:
                from multiprocessing import Pool
            cache_dir.mkdir(parents=True, exist_ok=True)
            with (Pool(processes=workers) if workers > 1 else contextlib.nullcontext() as pool,
                  log.open("ab", buffering=0) as sink):
                todo = [jobs[i] for i in pending]
                # a few chunks per worker: rows differ in cost, and each
                # chunk is one round trip to a worker
                results = (map(_sweep_job, todo) if pool is None else
                           pool.imap(_sweep_job, todo, math.ceil(len(todo) / (4 * workers))))
                for i, row in zip(pending, results):
                    rows[i] = row
                    # one unbuffered write per row, appended whole; its
                    # leading newline ends any line a killed sweep left torn
                    record = f"\n{keys[i]}\t{json.dumps(row, sort_keys=True)}".encode("utf-8")
                    if sink.write(record) != len(record):
                        raise OSError(f"short write to the sweep cache {log}")
    except KeyboardInterrupt:
        interrupted = True

    ordered = [rows[i] for i in sorted(rows)]
    if not args.no_timestamp:
        import datetime  # only a written timestamp loads it
        generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if settings["format"] == "csv":
        import csv

        with out_path.open("w", newline="", encoding="utf-8") as f:
            if not args.no_timestamp:
                f.write(f"# generated-at {generated_at}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(SWEEP_COLUMNS)
            for row in ordered:
                writer.writerow([_format_cell(row[c]) for c in SWEEP_COLUMNS])
    else:
        doc = {"rows": ordered}
        if not args.no_timestamp:
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
    ``main`` call in the process; ``commands`` maps each command's name to
    its own parser."""
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
    nodes = p.add_mutually_exclusive_group()
    nodes.add_argument("--vectors", type=str, default=None,
                       help="JSON file of node vectors as rational multiples of pi "
                            "(default: the built-in q=0.21 witness pair)")
    nodes.add_argument("--witness-search", action="store_true")
    p.add_argument("--search-budget", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cvd)

    p = sub.add_parser("sweep", help="parameter sweep to CSV/JSON with caching")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp")
    p.set_defaults(func=cmd_sweep)
    top.commands = dict(sub.choices)  # the subparsers action's public name map
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed once, by the parser of the command its first token
    names.  The top-level parser runs only where that token names no
    command (``--help``, no token, an unknown command), and reports the
    tokens a command leaves over in its own words, as a full top-level
    parse would: ``neumann-widths: unrecognized arguments: ...``."""
    top = build_parser()
    command = top.commands.get(argv[0]) if argv else None
    if command is None:
        return top.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
