"""spdmean benchmark: Karcher-mean solve throughput, with a traced layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload mm-small --seed 1 --seconds 25 --trace 0

``--trace 0`` times solver calls with nothing wrapped and prints the
end-to-end metrics. ``--trace 1`` is a separate run that solves every
instance once plain and once with the layer entry points wrapped, and
prints the per-layer metrics; it makes that one pass whatever
``--seconds`` says. The last line of standard output is one
JSON object; the lines above it give the same numbers for people.

The package is imported from ``src/`` beside this directory and only
through its public entry points; without it the run exits with code 3.
"""

import os

# One BLAS thread: on a 2-core host two threads were slower than one,
# and the timings must not depend on what else the host runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, instance_matrices  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# A timed run sets up and solves every instance at least this many times;
# a traced run sets up this many times.
REPEATS = 3
# Reference sweeps take this share of the CPU time of the solves and
# set-ups they follow.
REF_SHARE = 0.2
# The solvers' documented default tolerance is 1e-10 per matrix.
GRAD_TOL_PER_MAT = 1e-10
# A tail percentile needs at least this many solves beyond it.
TAIL_BEYOND = 10
EXIT_NO_PACKAGE = 3

E2E_UNITS = {
    "setup_s": "s", "solves_per_s": "1/s", "iter_ms": "ms",
    "solve_ms_p50": "ms", "solve_ms_tail": "ms", "iters_mean": "count",
    "peak_rss_mb": "MB",
}


def _no_package(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(EXIT_NO_PACKAGE)


def load_package():
    """Import spdmean from this checkout's src/, or exit with EXIT_NO_PACKAGE."""
    src = ROOT / "src"
    if not (src / "spdmean" / "__init__.py").is_file():
        _no_package(f"no package source at {src / 'spdmean'}")
    sys.path.insert(0, str(src))
    try:
        spd = importlib.import_module("spdmean")
    except ImportError as exc:
        _no_package(f"cannot import spdmean: {exc}")
    if Path(spd.__file__).resolve().parent != (src / "spdmean").resolve():
        _no_package(f"spdmean imported from {spd.__file__}, not {src}")
    return spd


def _tree_hash(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "bench_rev": _tree_hash(HERE.glob("*.py")),
        "program_rev": _tree_hash((ROOT / "src" / "spdmean").rglob("*.py")),
    }


def solver_columns(spd, w):
    """(label, kind, call) for each solver a workload runs per instance."""
    if w.solvers:
        spec = spd.ExperimentSpec.from_dict(w.spec())
        return [(s.solver_id, s.kind, s.run) for s in spec.solvers]
    cfg = spd.SolverConfig()

    def mm(e, x0):
        return spd.mm_solve(e, cfg, x0)

    return [("mm", "mm", mm)]


class Checker:
    """Gates the first result of each (instance, column) and requires every
    later call on the same pair to return the identical result."""

    def __init__(self, raws, columns, tol):
        self.raws = raws
        self.kinds = [kind for _, kind, _ in columns]
        self.labels = [label for label, _, _ in columns]
        self.tol = tol
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, key, out):
        """Check one call's result (or exception); return its iters_used."""
        self.attempted += 1
        i, c = key
        if isinstance(out, Exception):
            return self._fail(key, f"raised {type(out).__name__}: {out}", 0)
        sig = (out.iters_used, out.status, np.asarray(out.mean).tobytes())
        if key not in self.first:
            self.first[key] = sig
            problems = gate.check_result(self.kinds[c], self.raws[i], out, self.tol)
            if problems:
                return self._fail(key, "; ".join(problems), out.iters_used)
        elif sig != self.first[key]:
            return self._fail(key, "result differs from the first call on the same input",
                              out.iters_used)
        return out.iters_used

    def _fail(self, key, msg, iters):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"instance {key[0]} {self.labels[key[1]]}: {msg}")
        return iters


def prepare(spd, w, seed):
    """The raw instances, the solver columns and a Checker for them."""
    raws = [instance_matrices(w.name, seed, i, w.n, w.p, w.scale_first_by)
            for i in range(w.instances)]
    columns = solver_columns(spd, w)
    return raws, columns, Checker(raws, columns, GRAD_TOL_PER_MAT * w.n)


def set_up(spd, raws, clock=perf_counter):
    """Build every instance's Ensemble and start point; return (seconds, pairs)."""
    t0 = clock()
    ens = [spd.Ensemble.from_matrices(m) for m in raws]
    x0s = [spd.arithmetic_mean_init(e) for e in ens]
    return clock() - t0, list(zip(ens, x0s))


def call(fn, e, x0):
    try:
        return fn(e, x0)
    except Exception as exc:  # a failing solve is counted, the run goes on
        return exc


def tail(times):
    """(value, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    s = sorted(times)
    m = len(s)
    if m > TAIL_BEYOND:
        return s[m - TAIL_BEYOND - 1], 100.0 * (m - TAIL_BEYOND) / m, TAIL_BEYOND
    return s[-1], 100.0, 0


def timed_run(spd, w, seed, seconds):
    """Set up and solve every (instance, column) pair in full passes until
    ``seconds`` have passed, at least REPEATS times.

    Times are CPU times of this process, which leave out the time the
    hypervisor gives the vCPU to other guests (steal). Every set-up and
    solve is followed by reference sweeps and counted in sweeps of the
    speed measured around it, times the workload's nominal sweep time
    (see reference.py). A pair's cost is its median over the passes."""
    raws, columns, checker = prepare(spd, w, seed)
    _, pairs = set_up(spd, raws)
    for c, (_, _, fn) in enumerate(columns):  # warm-up, untimed
        checker.record((0, c), call(fn, *pairs[0]))
    ref = reference.Reference(raws[0])
    in_sweeps = reference.Normalizer(ref, REF_SHARE, warmup_s=0.1)

    setups, samples, raw, iters = [], {}, {}, {}
    passes = 0
    cpu0, wall0 = process_time(), perf_counter()
    while passes < REPEATS or perf_counter() - wall0 < seconds:
        dt, pairs = set_up(spd, raws, process_time)
        setups.append(in_sweeps(dt))
        for i, (e, x0) in enumerate(pairs):
            for c, (_, _, fn) in enumerate(columns):
                t0 = process_time()
                out = call(fn, e, x0)
                dt = process_time() - t0
                iters[i, c] = checker.record((i, c), out)
                raw.setdefault((i, c), []).append(dt)
                samples.setdefault((i, c), []).append(in_sweeps(dt))
        passes += 1
    wall, cpu = perf_counter() - wall0, process_time() - cpu0

    nominal = w.ref_ms * 1e-3
    times = [nominal * statistics.median(v) for v in samples.values()]
    total = sum(times)
    n_iters = max(sum(iters.values()), 1)
    tail_s, pct, beyond = tail(times)
    metrics = {
        "setup_s": nominal * statistics.median(setups),
        "solves_per_s": len(times) / total,
        "iter_ms": 1e3 * total / n_iters,
        "solve_ms_p50": 1e3 * statistics.median(times),
        "solve_ms_tail": 1e3 * tail_s,
        "iters_mean": statistics.fmean(iters.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_iter_ms = 1e3 * sum(statistics.median(v) for v in raw.values()) / n_iters
    notes = {
        "solves_per_s": f"{len(times)} pairs, median of {passes} passes each",
        "solve_ms_tail": f"p{pct:.4g} of {len(times)} pairs, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups of {len(raws)} instances",
        "failed_frac": f"{checker.failed / checker.attempted:.6g} ratio "
                       f"({checker.failed} of {checker.attempted} calls)",
        "reference": f"{len(ref.samples)} sweeps, median "
                     f"{1e3 * statistics.median(ref.samples):.6g} ms CPU, nominal {w.ref_ms:g} ms",
        "unscaled": f"iter {raw_iter_ms:.6g} ms CPU",
        "host": f"{cpu:.4g} s CPU in {wall:.4g} s wall",
    }
    record = {"samples_sweeps": [samples[k] for k in sorted(samples)],
              "samples_s": [raw[k] for k in sorted(raw)],
              "setups_sweeps": setups, "ref_s": ref.samples}
    return checker, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes, record


def _accepted_steps(res):
    """Line-search steps taken: a rejected probe repeats the last record."""
    t = res.trace
    return sum(1 for a, b in zip(t, t[1:])
               if (a.objective, a.grad_norm) != (b.objective, b.grad_norm))


def traced_run(spd, w, seed):
    """Solve every pair once plain and once traced, then once more under
    tracemalloc, and derive the per-layer metrics from the spans."""
    raws, columns, checker = prepare(spd, w, seed)
    root = "bench.dispatch" if w.solvers else "solvers.solve"
    rec = tracing.SpanRecorder()
    ens_id = rec.name_id("karcher.ensemble")

    setups = []
    for _ in range(REPEATS):
        first = len(rec.start)
        with tracing.installed(rec) as absent:
            _, pairs = set_up(spd, raws)
        names = np.array(rec.name[first:])
        dur = np.array(rec.end[first:]) - np.array(rec.start[first:])
        setups.append(float(dur[names == ens_id].sum()))
    for c, (_, _, fn) in enumerate(columns):  # warm-up, untimed
        checker.record((0, c), call(fn, *pairs[0]))

    plain_s = traced_s = 0.0
    iters_total = 0
    statuses = dict.fromkeys(sorted(gate.STATUSES | {"error"}), 0)
    probes = steps = 0
    solve_id = 0
    for i, (e, x0) in enumerate(pairs):
        for c, (_, kind, fn) in enumerate(columns):
            t0 = perf_counter()
            out = call(fn, e, x0)
            plain_s += perf_counter() - t0
            checker.record((i, c), out)
            with tracing.installed(rec):
                t0 = perf_counter()
                with rec.root(root, solve_id):
                    out = call(fn, e, x0)
                traced_s += perf_counter() - t0
            solve_id += 1
            iters_total += checker.record((i, c), out)
            if isinstance(out, Exception):
                statuses["error"] += 1
                continue
            statuses[out.status] = statuses.get(out.status, 0) + 1
            if kind == "gd-ls":
                probes += out.iters_used
                steps += _accepted_steps(out)

    peak = 0
    for c, (_, _, fn) in enumerate(columns):
        tracemalloc.start()
        try:
            checker.record((0, c), call(fn, *pairs[0]))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    spans = rec.arrays()
    totals, solve_time = tracing.layer_totals(rec.names, spans)
    zero = {"calls": 0, "weight": 0, "self_s": 0.0, "incl_s": 0.0}
    t = {name: totals.get(name, zero) for name in tracing.SOLVE_SPANS}
    per_iter = max(iters_total, 1)

    def frac(name, key):
        return t[name][key] / solve_time

    metrics = {
        "spd_core.eig.calls_per_iter": (t["spd_core.eig"]["calls"] / per_iter, "count"),
        "spd_core.eig.mats_per_iter": (t["spd_core.eig"]["weight"] / per_iter, "count"),
        "spd_core.validate.calls_per_iter": (t["spd_core.validate"]["calls"] / per_iter, "count"),
        "karcher.objective.calls_per_iter": (t["karcher.objective"]["calls"] / per_iter, "count"),
        "karcher.grad.calls_per_iter": (t["karcher.grad"]["calls"] / per_iter, "count"),
        "karcher.ensemble.s": (statistics.median(setups), "s"),
    }
    self_names = {"solvers.solve": "solvers.loop", "bench.dispatch": "bench.dispatch"}
    for name in tracing.SOLVE_SPANS:
        metrics[f"{self_names.get(name, name)}.self_frac"] = (frac(name, "self_s"), "ratio")
    for name in ("spd_core.expm", "karcher.coeffs", "karcher.objective",
                 "karcher.grad", "karcher.minimizer", "solvers.trace"):
        metrics[f"{name}.incl_frac"] = (frac(name, "incl_s"), "ratio")
    n_solves = solve_id
    metrics.update({
        "solvers.iters_per_solve": (iters_total / n_solves, "count"),
        "solvers.ls.probes_per_step": (probes / steps if steps else 0.0, "count"),
        "solvers.ls.accept_frac": (steps / probes if probes else 0.0, "ratio"),
        "solve.peak_alloc_mb": (peak / 2**20, "MB"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
    })
    for status, count in statuses.items():
        metrics[f"solvers.status.{status}"] = (count, "count")

    stray = {n for n, v in totals.items() if v["calls"] and n not in tracing.SOLVE_SPANS}
    accounted = sum(frac(name, "self_s") for name in tracing.SOLVE_SPANS)
    if stray or abs(accounted - 1.0) > 1e-9:
        checker.problems.append(
            f"self times account for {accounted:.12f} of traced solve time; "
            f"unexpected spans inside solves: {sorted(stray)}")
        checker.failed += 1
    notes = {
        "absent": ", ".join(absent) or "none",
        "traced solves": f"{n_solves} solves, {iters_total} iterations, "
                         f"{len(spans['start'])} spans, {solve_time:.4g} s traced",
        "self-time sum": f"{accounted:.12f} of traced solve time",
    }
    return checker, metrics, notes, {"names": rec.names, **spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the instances, for smoke tests")
    args = parser.parse_args(argv)

    spd = load_package()
    w = WORKLOADS[args.workload].sized(args.tiny)
    env = environment(args.seed)
    if args.trace:
        checker, metrics, notes, record = traced_run(spd, w, args.seed)
    else:
        checker, metrics, notes, record = timed_run(spd, w, args.seed, args.seconds)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    summary = {"env": env, "workload": w.name, "n": w.n, "p": w.p,
               "instances": w.instances, "metrics": metrics, "notes": notes,
               "problems": checker.problems}
    if args.trace:
        np.savez_compressed(stem.with_suffix(".npz"), **record)
    else:
        summary.update(record)
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(f"workload {w.name}  n={w.n} p={w.p} instances={w.instances}  "
          f"seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:36s} {value:14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    print("  no wait-time metric: nothing in the solve path waits on another "
          "thread or a queue")
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
