"""Command-line front end.

Three subcommands:

* ``mean`` — compute the Karcher mean of the matrices in a JSON
  ensemble file and write the mean plus a trace CSV.
* ``bench`` — run an experiment spec (a JSON file or the name of a
  bundled spec) and write the report CSV with its JSON sidecar.
* ``check`` — run the table of paper checks in
  :mod:`spdmean.selfcheck` (the acceptance criteria's functions at small
  counts) and print a pass/fail line per check.

Exit codes: 0 success/converged, 1 invalid input or an output that
cannot be written, 2 a solve that did not converge or failed (also any
failed ``bench`` run), 3 failed consistency check. :func:`main` prints
every input and output error, ``--out`` included, and a ``MemoryError``
as one ``error: …`` line: a fault in a file's content is the library's
:class:`SpdMeanError`, one in a path an ``OSError``. ``check`` reports a
check that raises as its FAIL line, so no subcommand ends in a
traceback. ``mean`` checks only its file's ``dim`` and prints the
library's refusal of its matrices as is (:func:`read_ensemble`).
Only this module writes files: ``mean`` and ``bench`` check every output
(:func:`_check_out`) before they solve and write all or none (:func:`_write_files`).
"""

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bench import ExperimentSpec, report_to_csv, run_experiment
from .errors import DimensionMismatch, DomainError, SpdMeanError
from .karcher import Ensemble
from .selfcheck import run_checks
from .solvers import (DEFAULT_GRAD_TOL_PER_MAT, LS_FACTOR, LS_MAX_J, SOLVERS, STATUS_CONVERGED,
                      SolverConfig, arithmetic_mean_init)


def _load_json(path):
    """Parse a UTF-8 JSON file; a file that does not parse is a DomainError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc


def read_ensemble(path) -> Ensemble:
    """Parse ``{"dim": p, "matrices": [...]}`` into a validated ensemble.

    Only ``dim`` is checked here, a positive integer. ``Ensemble.from_matrices`` reads
    ``matrices``, and its refusal is the error: of anything but a nonempty sequence of
    matrices, or of the first bad matrix (a JSON boolean, string or null is not a number).
    Then ``dim`` must match (DimensionMismatch).
    """
    data = _load_json(Path(path))
    if not isinstance(data, dict) or "dim" not in data or "matrices" not in data:
        raise DomainError(f"{path} must be an object with 'dim' and 'matrices'")
    p = data["dim"]
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise DomainError("'dim' must be a positive integer")
    ensemble = Ensemble.from_matrices(data["matrices"])
    if ensemble.dim != p:
        raise DimensionMismatch(f"matrix 0 has shape {ensemble.mats[0].shape}, expected ({p}, {p})")
    return ensemble


def ensemble_to_json(mats) -> str:
    """The ensemble JSON schema's text, each entry as its shortest round-trip repr."""
    return json.dumps({"dim": int(mats[0].shape[0]),
                       "matrices": [np.asarray(a, dtype=float).tolist() for a in mats]}) + "\n"


def _trace_to_csv(trace) -> str:
    return "iter,objective,grad_norm,log_error,elapsed\n" + "".join(
        f"{t.iter},{t.objective:.17g},{t.grad_norm:.17g},{t.log_error:.17g},{t.elapsed:.6g}\n"
        for t in trace)


def _check_out(outputs, inputs) -> None:
    """Refuse, before any solve, an output that is a directory, lies in none or is an input."""
    sources = {Path(str(path)).resolve() for path in inputs}
    for path in outputs:
        if path.is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise NotADirectoryError(f"cannot write {path}: {path.parent} is not a directory")
        if path.resolve() in sources:
            raise OSError(f"cannot write {path}: it is the command's input file; "
                          "choose another --out")


def _write_files(*files) -> None:
    """Write each ``(path, text)`` in order; if one fails, delete those opened and re-raise."""
    written = []
    try:
        for path, text in files:
            with open(path, "w") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            path.unlink()
        raise


def cmd_mean(args) -> int:
    ensemble = read_ensemble(args.input)
    cfg = SolverConfig(max_iters=args.max_iters, grad_tol=args.tol, nu=args.nu)
    out = Path(args.out) if args.out else Path(args.input).with_suffix(".mean.json")
    trace_out = out.with_suffix(".trace.csv")
    _check_out([out, trace_out], [args.input])
    try:
        result = SOLVERS[args.solver](ensemble, cfg, arithmetic_mean_init(ensemble))
    except SpdMeanError as exc:
        print(f"error: {args.solver} solve failed: {exc}", file=sys.stderr)
        return 2
    _write_files((out, ensemble_to_json([result.mean])),
                 (trace_out, _trace_to_csv(result.trace)))
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
    raise FileNotFoundError(f"spec file {name!r} not found (and no bundled spec matches)")


def cmd_bench(args) -> int:
    out_base = args.out or Path(args.spec).stem
    csv_out, sidecar_out = Path(f"{out_base}.csv"), Path(f"{out_base}.json")
    spec_path = _resolve_spec_path(args.spec)
    _check_out([csv_out, sidecar_out], [spec_path])
    data = _load_json(spec_path)
    try:
        spec = ExperimentSpec.from_dict(data)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    except DomainError as exc:
        raise DomainError(f"invalid experiment spec: {exc}") from exc
    report = run_experiment(spec)
    _write_files((csv_out, report_to_csv(report)),
                 (sidecar_out, json.dumps(report.spec.to_dict(), indent=2) + "\n"))
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
                        help=("start step size for gradient descent; gd-ls's smallest "
                              f"probe is {LS_FACTOR:g}^{LS_MAX_J}·nu, so a nu well above "
                              "1e18 can stall it at the start"))
    p_mean.add_argument("--tol", type=float, default=SolverConfig.grad_tol, help=(
        f"gradient-sum norm tolerance (default {DEFAULT_GRAD_TOL_PER_MAT:g} * n); a mean that "
        "converges at tol lies within Riemannian distance tol / n of the Karcher mean, so the "
        f"default means d <= {DEFAULT_GRAD_TOL_PER_MAT:g} up to round-off"))
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
    try:
        return args.func(args)
    except (SpdMeanError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
