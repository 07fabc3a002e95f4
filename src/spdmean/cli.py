"""Command-line front end.

Three subcommands:

* ``mean`` — compute the Karcher mean of the matrices in a JSON
  ensemble file and write the mean plus a trace CSV.
* ``bench`` — run an experiment spec (a JSON file or the name of a
  bundled spec) and write the report CSV with its JSON sidecar.
* ``check`` — run the table of paper checks in
  :mod:`spdmean.selfcheck` (the acceptance criteria's functions at small
  counts) and print a pass/fail line per check.

Exit codes: 0 success/converged, 1 input error, 2 a solve that did not
converge or failed (also any failed ``bench`` run), 3 failed
consistency check.
"""

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .bench import ExperimentSpec, run_experiment, write_report
from .errors import DomainError, SpdMeanError
from .karcher import Ensemble
from .selfcheck import run_checks
from .solvers import (DEFAULT_GRAD_TOL_PER_MAT, SOLVERS, STATUS_CONVERGED, SolverConfig,
                      arithmetic_mean_init)


class InputError(Exception):
    """A malformed or invalid input file (exit code 1)."""


def _load_json(path):
    """Parse a UTF-8 JSON file; any failure to read or parse is an InputError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise InputError(f"{path} is not valid JSON: {exc}")


def _numbers_only(entry) -> bool:
    """True when nested lists hold JSON numbers only, not booleans or strings."""
    if isinstance(entry, list):
        return all(_numbers_only(v) for v in entry)
    return isinstance(entry, (int, float)) and not isinstance(entry, bool)


def read_ensemble(path) -> Ensemble:
    """Parse ``{"dim": p, "matrices": [...]}`` into a validated ensemble.

    Only the file format is checked here; ``Ensemble.from_matrices``
    validates the matrices and names the first bad one. A JSON boolean
    or string inside a matrix is not a number, even where numpy could
    convert it.
    """
    data = _load_json(Path(path))
    if not isinstance(data, dict) or "dim" not in data or "matrices" not in data:
        raise InputError(f"{path} must be an object with 'dim' and 'matrices'")
    p = data["dim"]
    raw = data["matrices"]
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise InputError("'dim' must be a positive integer")
    if not isinstance(raw, list) or not raw:
        raise InputError("'matrices' must be a nonempty list")
    mats = []
    for i, entry in enumerate(raw):
        try:
            if not _numbers_only(entry):  # numpy would convert true and "2.0"
                raise TypeError
            a = np.asarray(entry, dtype=float)
        except (ValueError, TypeError, OverflowError):  # ragged rows, huge integers
            raise InputError(f"matrix {i} is not an array of numbers")
        if a.shape != (p, p):
            raise InputError(f"matrix {i} has shape {a.shape}, expected ({p}, {p})")
        mats.append(a)
    try:
        return Ensemble.from_matrices(mats)
    except SpdMeanError as exc:
        raise InputError(str(exc))


def write_ensemble(path, mats) -> None:
    """Write matrices in the ensemble JSON schema, 17 significant digits."""
    payload = {
        "dim": int(mats[0].shape[0]),
        "matrices": [
            [[float(f"{v:.17g}") for v in row] for row in np.asarray(a)]
            for a in mats
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _write_trace_csv(path, trace) -> None:
    with open(path, "w") as fh:
        fh.write("iter,objective,grad_norm,log_error,elapsed\n")
        for t in trace:
            fh.write(f"{t.iter},{t.objective:.17g},{t.grad_norm:.17g},"
                     f"{t.log_error:.17g},{t.elapsed:.6g}\n")


def cmd_mean(args) -> int:
    try:
        ensemble = read_ensemble(args.input)
        cfg = SolverConfig(max_iters=args.max_iters, grad_tol=args.tol,
                           nu=args.nu, c=args.c)
    except (InputError, SpdMeanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = SOLVERS[args.solver](ensemble, cfg, arithmetic_mean_init(ensemble))
    except SpdMeanError as exc:
        print(f"error: {args.solver} solve failed: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".mean.json")
    write_ensemble(out, [result.mean])
    _write_trace_csv(out.with_suffix(".trace.csv"), result.trace)
    print(f"{result.status}: {result.iters_used} iterations, "
          f"final grad norm {result.trace[-1].grad_norm:.3g}")
    print(f"mean written to {out}")
    return 0 if result.status == STATUS_CONVERGED else 2


def _resolve_spec_path(name: str):
    path = Path(name)
    if path.exists():
        return path
    for file_name in (name, name + ".json"):
        bundled = resources.files("spdmean").joinpath("specs", file_name)
        if bundled.is_file():
            return bundled
    raise InputError(f"spec file {name!r} not found (and no bundled spec matches)")


def cmd_bench(args) -> int:
    out_base = args.out or Path(args.spec).stem
    try:
        spec_path = _resolve_spec_path(args.spec)
        if Path(f"{out_base}.json").resolve() == Path(str(spec_path)).resolve():
            raise InputError(f"the report sidecar {out_base}.json would overwrite the spec "
                             f"file {spec_path}; choose another output base with --out")
        data = _load_json(spec_path)
        try:
            spec = ExperimentSpec.from_dict(data)
            if args.seed is not None:
                spec = ExperimentSpec.from_dict({**spec.to_dict(), "seed": args.seed})
            report = run_experiment(spec)  # raises only on duplicate solver ids
        except DomainError as exc:
            raise InputError(f"invalid experiment spec: {exc}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_report(report, str(out_base))
    for msg in report.errors:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"report written to {out_base}.csv (+ {out_base}.json)")
    return 2 if report.errors else 0


def cmd_check(_args) -> int:
    results = run_checks()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdmean",
        description="Karcher means of symmetric positive definite matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="compute the mean of an ensemble file")
    p_mean.add_argument("input", help="ensemble JSON file")
    p_mean.add_argument("--solver", choices=sorted(SOLVERS), default="mm")
    p_mean.add_argument("--nu", type=float, default=SolverConfig.nu,
                        help="start step size for gradient descent")
    p_mean.add_argument("--c", type=float, default=SolverConfig.c,
                        help="backtracking factor in (0, 1)")
    p_mean.add_argument("--tol", type=float, default=SolverConfig.grad_tol, help=(
        f"gradient-sum norm tolerance (default {DEFAULT_GRAD_TOL_PER_MAT:g} * n)"))
    p_mean.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p_mean.add_argument("--out", default=None, help="output mean JSON path")
    p_mean.set_defaults(func=cmd_mean)

    p_bench = sub.add_parser("bench", help="run an experiment spec")
    p_bench.add_argument("spec", help="spec JSON path or bundled spec name")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="override the spec's seed")
    p_bench.add_argument("--out", default=None, help="output base path")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="run the paper checks at small counts")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
