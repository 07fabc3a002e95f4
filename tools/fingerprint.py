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
- ``census <refused> <converged> <max_iters> <stalled> <errors> <violations>``: how
  ``CENSUS_FILES`` mutated ensemble files, drawn from ``default_rng(CENSUS_SEED)``,
  end when each runs through ``cli.main(["mean", ...])`` (:func:`census`);
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
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tokenize  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("mm-small", "fig3-rescale", "mm-large")
INSTANCES = (0, 1)
SEED = 1
CENSUS_SEED = 26
CENSUS_FILES = 2000
# What a census mutation writes over one entry: the float64 extremes, integers past int64
# and float64, and JSON values that are no number (NaN and ±Infinity are written as such)
CENSUS_ENTRIES = (0, 1e308, -1e308, 5e-324, 2**63, 10**400, True, None, "1", [], {},
                  math.nan, math.inf, -math.inf, -0.0)


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
    """The checkout's spdmean ``bench``, ``solvers``, ``selfcheck`` and ``cli`` modules and
    perfbench workload module."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    spd = importlib.import_module("spdmean")
    if Path(spd.__file__).resolve().parent != (root / "src" / "spdmean").resolve():
        sys.exit(f"fingerprint: spdmean imported from {spd.__file__}, not {root / 'src'}")
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modules = [importlib.import_module(f"spdmean.{m}")
               for m in ("bench", "solvers", "selfcheck", "cli")]
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


def census_file(selfcheck, rng):
    """One ensemble file's JSON object: n and p from 1 to 4, each matrix :func:`random_spd` times
    10^U(−300, 300), then 0–3 mutations (:func:`mutate`)."""
    n, p = (int(v) for v in rng.integers(1, 5, size=2))
    mats = [(selfcheck.random_spd(rng, p) * 10.0 ** rng.uniform(-300, 300)).tolist()
            for _ in range(n)]
    data = {"dim": p, "matrices": mats}
    for _ in range(int(rng.integers(0, 4))):
        mutate(data, rng)
    return data


def mutate(data, rng):
    """Apply one random mutation to an ensemble file's object: an entry replaced by one of
    ``CENSUS_ENTRIES`` or rescaled by 10^U(−300, 300), a row or a matrix dropped or repeated, or
    ``dim`` changed. A mutation whose target an earlier one removed does nothing."""
    kind = int(rng.integers(0, 4))
    if kind == 3:
        data["dim"] = int(rng.integers(0, 6))
        return
    seq = data["matrices"]
    for _ in range(2 if kind < 2 else int(rng.integers(0, 2))):  # down to a row or a matrix
        if not seq or not isinstance(seq, list):
            return
        seq = seq[int(rng.integers(len(seq)))]
    if not seq or not isinstance(seq, list):
        return
    i = int(rng.integers(len(seq)))
    if kind == 0:
        seq[i] = CENSUS_ENTRIES[int(rng.integers(len(CENSUS_ENTRIES)))]
    elif kind == 1 and isinstance(seq[i], float):
        seq[i] *= 10.0 ** rng.uniform(-300, 300)
    elif kind == 2:
        seq[i:i + 1] = [] if rng.integers(2) else [seq[i], seq[i]]


def census_outcome(cli, folder, data, kind):
    """How ``spdmean mean`` ends on ``data``: ``refused`` (exit 1, one ``error:`` line),
    ``errors`` (exit 2, one ``error: <kind> solve failed`` line), or, with a mean written, its
    status (``converged`` at exit 0, ``max_iters`` or ``stalled`` for any other status at exit
    2). Anything else is a ``violation``: an exception or a warning out of ``main``, another
    exit code or message, an output file left by a refusal, or a mean not finite and SPD."""
    path = folder / "ensemble.json"
    path.write_text(json.dumps(data))
    outputs = (folder / "ensemble.mean.json", folder / "ensemble.mean.trace.csv")
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(["mean", str(path), "--solver", kind])
    except Exception:  # a traceback, or a warning raised as one
        code = None
    written = [o for o in outputs if o.exists()]
    mean = outputs[0].read_text() if outputs[0] in written else None
    for o in written:
        o.unlink()
    out, err = out.getvalue().splitlines(), err.getvalue().splitlines()
    if code in (1, 2) and not out and not written and len(err) == 1:
        if code == 1 and err[0].startswith("error: "):
            return "refused"
        if code == 2 and err[0].startswith(f"error: {kind} solve failed: "):
            return "errors"
    if code not in (0, 2) or err or len(written) != 2 or not out:
        return "violation"
    status = out[0].split(":")[0]
    if (code == 0) != (status == "converged") or not _finite_spd(mean):
        return "violation"
    return status if status in ("converged", "max_iters") else "stalled"


def _finite_spd(text):
    """Whether the mean JSON ``text`` holds one finite matrix, symmetric to 1e-12 of its largest
    entry and positive definite."""
    try:
        m = np.array(json.loads(text)["matrices"][0], dtype=np.float64)
        top = np.abs(m).max()
        if not (np.isfinite(m).all() and top > 0 and np.abs(m - m.T).max() <= 1e-12 * top):
            return False
        np.linalg.cholesky(m / top)  # at max |entry| 1 no step under- or overflows
    except (ValueError, TypeError, LookupError, np.linalg.LinAlgError):
        return False
    return True


CENSUS_FIELDS = ("refused", "converged", "max_iters", "stalled", "errors", "violation")


def census(cli, selfcheck, files=CENSUS_FILES):
    """The ``census`` line: counts of :data:`CENSUS_FIELDS` over the first ``files`` files drawn
    from ``default_rng(CENSUS_SEED)``, each with a solver kind drawn from ``cli.SOLVERS``, run in
    a temporary directory."""
    rng = np.random.default_rng(CENSUS_SEED)
    kinds = sorted(cli.SOLVERS)
    counts = dict.fromkeys(CENSUS_FIELDS, 0)
    with tempfile.TemporaryDirectory() as folder:
        for _ in range(files):
            data = census_file(selfcheck, rng)
            kind = kinds[int(rng.integers(len(kinds)))]
            counts[census_outcome(cli, Path(folder), data, kind)] += 1
    return " ".join(["census"] + [str(counts[f]) for f in CENSUS_FIELDS])


def counted(make_lines):
    """Yield the lines ``make_lines()`` yields or returns, then ``warnings <n>``: every warning
    raised while they were computed, each one counted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield from make_lines()
    yield f"warnings {len(caught)}"


def fingerprint_lines(root):
    """Every line but ``warnings``, in the order the module docstring lists them."""
    bench, solvers, selfcheck, cli, workloads = _load(root)
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
    yield census(cli, selfcheck)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python3 tools/fingerprint.py <checkout root>")
    root = Path(argv[0]).resolve()
    for line in counted(lambda: fingerprint_lines(root)):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
