"""Outside-in spans around the package's layer entry points.

The traced run replaces, by name, the functions the solvers resolve at
call time with wrappers that record a span (name, start, end, parent,
solve id) into in-memory arrays. Nothing under ``src/`` is edited: the
wrappers are installed on the live modules and every name is restored
when the run ends. A name that no longer exists is reported as absent.
"""

import contextlib
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path, span name). eigh/eigvalsh are looked up on
# numpy.linalg by spd_core and karcher at call time; the others are the
# names solvers.py and bench.py bind and call through their globals.
WRAPS = (
    ("numpy.linalg", "eigh", "spd_core.eig"),
    ("numpy.linalg", "eigvalsh", "spd_core.eig"),
    ("spdmean.spd_core", "check_symmetric", "spd_core.validate"),
    ("spdmean.solvers", "exp_m", "spd_core.expm"),
    ("spdmean.karcher", "Ensemble.from_matrices", "karcher.ensemble"),
    ("spdmean.solvers", "_f12", "karcher.coeffs"),
    ("spdmean.solvers", "objective", "karcher.objective"),
    ("spdmean.solvers", "grad_sum", "karcher.grad"),
    ("spdmean.solvers", "surrogate_minimizer", "karcher.minimizer"),
    ("spdmean.solvers", "_Tracer.record", "solvers.trace"),
    ("spdmean.bench", "mm_solve", "solvers.solve"),
    ("spdmean.bench", "gd_linesearch_solve", "solvers.solve"),
    ("spdmean.bench", "gd_fixed_step_solve", "solvers.solve"),
)

# Spans whose weight is the number of matrices in the first argument,
# so a stacked (k, p, p) eigendecomposition counts k matrices.
COUNT_MATS = frozenset({"spd_core.eig"})

# Every span name that can occur inside a solve. Their self times add up
# to the traced solve time: "solvers.solve" self time is the solver loop
# itself, "bench.dispatch" is SolverSpec.run around it.
SOLVE_SPANS = (
    "spd_core.eig", "spd_core.validate", "spd_core.expm",
    "karcher.coeffs", "karcher.objective", "karcher.grad",
    "karcher.minimizer", "solvers.trace", "solvers.solve", "bench.dispatch",
)


def _matrix_count(a):
    shape = np.shape(a)
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


class SpanRecorder:
    """Spans kept in flat arrays; a span's parent is the innermost open one."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.solve = array("l")
        self.weight = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.solve_id = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, weight):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.weight.append(weight)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        count = name in COUNT_MATS

        def wrapper(*args, **kwargs):
            idx = self._open(nid, _matrix_count(args[0]) if count and args else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    @contextlib.contextmanager
    def root(self, name, solve_id):
        """Open the root span of one solve; nested spans carry its id."""
        self.solve_id = solve_id
        idx = self._open(self.name_id(name), 1)
        try:
            yield
        finally:
            self._close(idx)
            self.solve_id = -1

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "solve": np.array(self.solve, dtype=np.int64),
            "weight": np.array(self.weight, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }


def _resolve(module, path):
    """Return (owner, attribute, raw value) or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


@contextlib.contextmanager
def installed(recorder, wraps=WRAPS):
    """Wrap every resolvable name for the duration of the block.

    Yields the sorted list of "module:path" names that could not be
    found. Every wrapped name is restored on exit, also after an error.
    """
    restore = []
    absent = []
    try:
        for module, path, span in wraps:
            found = _resolve(module, path)
            if found is None:
                absent.append(f"{module}:{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(span, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(recorder.wrap(span, raw.__func__))
            else:
                new = recorder.wrap(span, raw)
            setattr(owner, attr, new)
            restore.append((owner, attr, raw))
        yield sorted(absent)
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def self_times(start, end, parent):
    """Each span's duration minus the part of it its children cover.

    Children may be given in any order and may overlap; the covered part
    is the union of their intervals clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = {}
    for i in np.flatnonzero(parent >= 0):
        kids.setdefault(int(parent[i]), []).append(int(i))
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def outermost(name, parent):
    """True for spans with no ancestor of the same name (no double count)."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    out = np.ones(len(name), dtype=bool)
    for i in range(len(name)):
        p = parent[i]
        while p >= 0:
            if name[p] == name[i]:
                out[i] = False
                break
            p = parent[p]
    return out


def layer_totals(names, spans):
    """Per span name inside solves: calls, weight, self and inclusive time.

    Returns (totals, solve_time) where solve_time is the summed duration
    of the root spans, the denominator of every fraction.
    """
    in_solve = spans["solve"] >= 0
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    outer = outermost(spans["name"], spans["parent"])
    roots = in_solve & (spans["parent"] < 0)
    solve_time = float(dur[roots].sum())
    totals = {}
    for nid, name in enumerate(names):
        mask = in_solve & (spans["name"] == nid)
        totals[name] = {
            "calls": int(mask.sum()),
            "weight": int(spans["weight"][mask].sum()),
            "self_s": float(selfs[mask].sum()),
            "incl_s": float(dur[mask & outer].sum()),
        }
    return totals, solve_time
