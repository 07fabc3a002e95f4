"""Fingerprint a checkout: its line counts, and hashes of its solver results, spec reports
and paper checks.

Usage:

    python3 tools/fingerprint.py <checkout root>

Imports the checkout's ``src/spdmean`` and ``perfbench/workloads.py`` and
writes nothing into it. Prints:

- ``lines <all> <code>``: the lines of ``src/spdmean/*.py``, counted every
  one, then without docstrings, comments and blank lines (``ast`` finds
  the docstrings, ``tokenize`` the lines that hold code);
- ``blas numpy=<version> <BLAS name> <BLAS version> <VAR>=<value> ...``: what
  the hashes below depend on, from ``np.show_config(mode="dicts")``, and the
  three BLAS thread variables this tool pins;
- ``setup <workload> <instance> <hash>`` for seed-1 instances 0-1 of
  ``mm-small``, ``fig3-rescale`` and ``mm-large``: a hash of the bytes of
  ``Ensemble.from_matrices``' ``mats`` and ``inv_factors`` and of
  ``arithmetic_mean_init``;
- ``setup <workload> <instance> skew <hash>``, after each ``setup`` line: the
  same hash for a copy of the instance with entry (0, 1) of every matrix
  scaled by 1 + 2⁻⁴⁴, inside ``SYM_TOL``. The instances are exactly
  symmetric and skip the measurement of ‖A − Aᵀ‖ that their copies take,
  so the two lines cover both symmetry paths;
- ``setup <workload> <instance> wide <hash>``, after each ``skew`` line: one hash
  of the set-ups of that skew copy scaled by 2⁶⁰⁰ and by 2⁻⁶⁰⁰, so the
  measured test is also fingerprinted at both ends of the float64 range;
- ``setup <workload> <instance> floor <hash>``, after each ``wide`` line: one hash
  of the set-up of a copy of the instance whose matrix 0 has condition 1e12, which
  the Cholesky bound does not clear, so the stack takes the eigenvalue test and keeps
  its spectral factors, and of the refusal text of the copy at condition 1e14
  (:func:`conditioned`);
- ``solve <workload> <instance> <kind> <hash>`` for those instances and
  every kind in ``solvers.SOLVERS`` at the default ``SolverConfig``, from
  the arithmetic mean: a hash of the mean's bytes, the status and every
  trace column but ``elapsed``, or of the ``repr`` of the error the solve
  raised;
- ``spec <name> <hash>`` for each bundled spec: a hash of its
  ``report_to_csv`` text and its sidecar JSON, as ``spdmean bench`` writes them;
- ``check <i> <hash>`` for each entry i of ``selfcheck.TABLE``, drawing from
  ``np.random.default_rng([20240, i])`` as ``run_checks`` runs it: a hash of
  its unformatted worst values and its pass flag, or of the ``repr`` of the
  error it raised. These reach the views no ``solve`` line calls: the
  objective, gradients, surrogate, oracles, g1 and g2;
- ``warnings <n>``, last: the number of warnings raised while the other
  lines were computed, each one counted (the ``"always"`` filter), so a
  change that lets a new warning through shows in the output.

Two checkouts whose arithmetic agrees bit for bit print the same
``setup``, ``solve``, ``spec`` and ``check`` lines under one ``blas`` line: results
are bitwise for a given numpy, BLAS library and BLAS thread count. One BLAS
thread is used, so the hashes do not depend on how the host splits a product.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ast  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tokenize  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("mm-small", "fig3-rescale", "mm-large")
INSTANCES = (0, 1)
SEED = 1


def _docstring_lines(source):
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}


def _code_lines(source):
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)
    return {line for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type not in skip for line in range(tok.start[0], tok.end[0] + 1)}


def line_counts(package):
    """(all lines, lines without docstrings, comments and blanks) of the package's modules."""
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    return (sum(len(s.splitlines()) for s in sources),
            sum(len(_code_lines(s) - _docstring_lines(s)) for s in sources))


def blas_line():
    """``blas numpy=<version> <name> <version> <VAR>=<value> ...`` of the running numpy."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{var}={os.environ.get(var, '')}" for var in THREAD_VARS)
    name, version = blas.get("name", "?"), blas.get("version", "?")
    return f"blas numpy={np.__version__} {name} {version} {threads}"


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _load(root):
    """The checkout's spdmean ``bench``, ``solvers`` and ``selfcheck`` modules and perfbench
    workload module."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    spd = importlib.import_module("spdmean")
    if Path(spd.__file__).resolve().parent != (root / "src" / "spdmean").resolve():
        sys.exit(f"fingerprint: spdmean imported from {spd.__file__}, not {root / 'src'}")
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modules = [importlib.import_module(f"spdmean.{m}") for m in ("bench", "solvers", "selfcheck")]
    return (*modules, workloads)


def skewed(raw):
    """A float copy of a (k, p, p) stack, p ≥ 2, with entry (0, 1) of each matrix times 1 + 2⁻⁴⁴."""
    out = np.array(raw, dtype=np.float64)
    out[:, 0, 1] *= 1 + 2.0**-44
    return out


def setup_hash(solvers, raw):
    """``(ensemble, start point, hash)`` of the set-up of ``raw``: its ``Ensemble.from_matrices``'
    ``mats`` and ``inv_factors`` and its ``arithmetic_mean_init``."""
    e = solvers.Ensemble.from_matrices(raw)
    x0 = solvers.arithmetic_mean_init(e)
    return e, x0, _digest(e.mats.tobytes(), e.inv_factors.tobytes(), x0.tobytes())


def wide_hash(solvers, skew):
    """One hash of the :func:`setup_hash` of ``skew`` scaled by 2⁶⁰⁰ and by 2⁻⁶⁰⁰."""
    return _digest(*(setup_hash(solvers, np.ldexp(skew, e))[2] for e in (600, -600)))


def conditioned(raw, kappa):
    """A float copy of a (k, p, p) stack with matrix 0 replaced by sym(Q·diag(σ)·Qᵀ), σ from 1
    down to 1/``kappa`` geometrically, Q the QR factor of a ``default_rng(0)`` uniform p×p draw."""
    out = np.array(raw, dtype=np.float64)
    p = out.shape[-1]
    q = np.linalg.qr(np.random.default_rng(0).uniform(size=(p, p)))[0]
    a = (q * np.geomspace(1.0, 1.0 / kappa, p)) @ q.T
    out[0] = 0.5 * a + 0.5 * a.T
    return out


def floor_hash(solvers, raw):
    """One hash of the :func:`setup_hash` of ``raw``'s :func:`conditioned` copy at condition
    1e12, which the Cholesky bound does not clear, so it keeps its spectral factors, and of
    the refusal of its copy at 1e14."""
    parts = []
    for kappa in (1e12, 1e14):
        try:
            parts.append(setup_hash(solvers, conditioned(raw, kappa))[2])
        except Exception as exc:  # a refusal is part of the fingerprint
            parts.append(str(exc))
    return _digest(*parts)


def solve_hash(solvers, fn, e, x0):
    try:
        res = fn(e, solvers.SolverConfig(), x0)
    except Exception as exc:  # a refusal is part of the fingerprint
        return _digest(repr(exc))
    rows = [[v for col, v in t._asdict().items() if col != "elapsed"] for t in res.trace]
    return _digest(res.mean.tobytes(), res.status, np.array(rows, dtype=np.float64).tobytes())


def check_lines(selfcheck):
    """One ``check <i> <hash>`` line per entry of ``selfcheck.TABLE``, checked at seed 20240."""
    lines = []
    for i, (_, _, run, _) in enumerate(selfcheck.TABLE):
        try:
            *worst, passed = run(np.random.default_rng([20240, i]))
            digest = _digest(np.array(worst, dtype=np.float64).tobytes(), str(bool(passed)))
        except Exception as exc:  # a refusal is part of the fingerprint
            digest = _digest(repr(exc))
        lines.append(f"check {i} {digest}")
    return lines


def counted(make_lines):
    """Yield the lines ``make_lines()`` yields or returns, then ``warnings <n>``: every warning
    raised while they were computed, each one counted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield from make_lines()
    yield f"warnings {len(caught)}"


def fingerprint_lines(root):
    """Every line but ``warnings``, in the order the module docstring lists them."""
    bench, solvers, selfcheck, workloads = _load(root)
    yield "lines {} {}".format(*line_counts(root / "src" / "spdmean"))
    yield blas_line()
    for name in WORKLOADS:
        w = workloads.WORKLOADS[name]
        for i in INSTANCES:
            raw = workloads.instance_matrices(w.name, SEED, i, w.n, w.p, w.scale_first_by)
            e, x0, digest = setup_hash(solvers, raw)
            yield f"setup {name} {i} {digest}"
            skew = skewed(raw)
            yield f"setup {name} {i} skew {setup_hash(solvers, skew)[2]}"
            yield f"setup {name} {i} wide {wide_hash(solvers, skew)}"
            yield f"setup {name} {i} floor {floor_hash(solvers, raw)}"
            for kind, fn in solvers.SOLVERS.items():
                yield f"solve {name} {i} {kind} {solve_hash(solvers, fn, e, x0)}"
    for path in sorted((root / "src" / "spdmean" / "specs").glob("*.json")):
        report = bench.run_experiment(bench.ExperimentSpec.from_dict(json.loads(path.read_text())))
        sidecar = json.dumps(report.spec.to_dict(), indent=2) + "\n"
        yield f"spec {path.stem} {_digest(bench.report_to_csv(report), sidecar)}"
    yield from check_lines(selfcheck)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/fingerprint.py <checkout root>")
    root = Path(argv[0]).resolve()
    for line in counted(lambda: fingerprint_lines(root)):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
