"""Benchmark harness: ensemble generators and repeated-run experiments.

Ensembles are built as ``A_i = U_i S_i U_i^T`` with ``U_i`` obtained by
orthonormalizing a matrix of uniform(0,1) entries and ``S_i`` a sampled
or fixed spectrum. An experiment runs every configured solver on
``runs`` independently generated instances and reports, per solver and
iteration index, the mean logarithmic error; runs that converge early
are padded by repeating their final value.

Randomness uses numpy's PCG64: run ``r`` draws from
``SeedSequence(seed, spawn_key=(r,))``, numpy's definition of the child
stream ``SeedSequence(seed).spawn(runs)[r]``, made for that run alone, so
reports are deterministic for a given spec and unaffected by any parallel
scheduling of runs.
Nothing here writes a file: ``spdmean bench`` writes the report.

A spec is checked once, where it is built: each spec class's
``__post_init__`` checks its own fields, read from JSON or given in
Python alike, and ``from_dict`` only names unknown and missing keys.
"""

import csv
import io
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import DomainError, SpdMeanError
from .karcher import Ensemble
from .solvers import SOLVERS, SolverConfig, SolverResult, arithmetic_mean_init
from .spd_core import _python, _real_number, _whole_number, sym


def _known_fields(cls, d, what: str) -> dict:
    """A copy of the JSON object ``d`` whose keys are fields of ``cls``.

    Every field of ``cls`` with no default must be present; the first
    one missing is named.
    """
    if not isinstance(d, dict):
        raise DomainError(f"{what} spec must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise DomainError(f"unknown {what} fields: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise DomainError(f"{what} spec requires field {f.name!r}")
    return dict(d)


# The fields each spectrum kind takes besides kind and dim.
_KIND_FIELDS = {"uniform": ("lo", "hi"), "geometric": ("a",), "explicit": ("values",)}
# numpy holds no array of more bytes than this.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def _check_array_size(name, value, shape) -> None:
    """DomainError naming the size field ``name`` where its float64 array of ``shape`` is more
    than numpy can hold, raised before anything of that size is allocated."""
    nbytes = 8 * math.prod(map(int, shape))  # Python ints: a product of np.int64 can wrap
    if nbytes > _MAX_ARRAY_BYTES:
        raise DomainError(f"{name} {value} asks for a float64 array of {nbytes:.3g} bytes, "
                          f"over numpy's limit of {_MAX_ARRAY_BYTES}")


def _matrix_dim(p) -> int:
    """``p`` as an int once it is an integer >= 1 (:func:`spd_core._whole_number`) whose p×p
    float64 matrix numpy can hold (:func:`_check_array_size`); DomainError naming p otherwise."""
    p = _whole_number(p, f"p must be an integer >= 1, got {p!r}")
    _check_array_size("p", p, (p, p))
    return p


@dataclass(frozen=True)
class SpectrumSpec:
    """Eigenvalue model for generated matrices.

    kind "uniform": dim draws from uniform(lo, hi), 0 < lo < hi.
    kind "geometric": the fixed series 10^0, 10^a, ..., 10^{(dim-1)a},
    a > 0, whose top value must not overflow float64.
    kind "explicit": the given values verbatim (length dim), a list.
    A dim whose dim values numpy could not hold as float64 is refused.
    ``lo``, ``hi``, ``a`` and each entry of ``values`` meet one rule,
    ``spd_core._real_number``, under one message:
    ``spectrum field 'lo' must be a finite number, got 'x'``.
    """

    kind: str
    dim: int
    lo: Optional[float] = None
    hi: Optional[float] = None
    a: Optional[float] = None
    values: Optional[Sequence[float]] = None

    def __post_init__(self):
        _whole_number(self.dim, f"spectrum dim must be an integer >= 1, got {self.dim!r}")
        _check_array_size("spectrum dim", self.dim, (self.dim,))
        if not isinstance(self.kind, str) or self.kind not in _KIND_FIELDS:
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        foreign = [name for names in _KIND_FIELDS.values() for name in names
                   if name not in _KIND_FIELDS[self.kind] and getattr(self, name) is not None]
        if foreign:
            raise DomainError(f"{self.kind} spectrum does not take fields {foreign}")
        for name in _KIND_FIELDS[self.kind]:
            value = getattr(self, name)
            if value is None:
                continue
            if name == "values" and not isinstance(value, list):
                raise DomainError(f"spectrum field 'values' must be a list, got {value!r}")
            for i, v in enumerate(value) if name == "values" else [(None, value)]:
                where = repr(name) if i is None else f"'values' entry {i}"
                _real_number(v, f"spectrum field {where} must be a finite number, got {v!r}", False)
        if self.kind == "uniform":
            if self.lo is None or self.hi is None or not 0 < self.lo < self.hi:
                raise DomainError("uniform spectrum requires 0 < lo < hi")
        elif self.kind == "geometric":
            if self.a is None or not self.a > 0:
                raise DomainError("geometric spectrum requires a > 0")
            if not np.isfinite(self.top):
                raise DomainError(f"geometric spectrum's top value 10^({self.dim - 1}·{self.a!r}) "
                                  "overflows float64")
        elif self.kind == "explicit":
            if self.values is None or len(self.values) != self.dim:
                raise DomainError("explicit spectrum requires dim values")
            if not all(v > 0 for v in self.values):
                raise DomainError("explicit spectrum values must be positive")

    def _fixed_values(self) -> np.ndarray:
        """The values of a geometric or explicit spectrum (inf where one overflows float64)."""
        if self.kind == "geometric":
            with np.errstate(over="ignore"):
                return 10.0 ** (self.a * np.arange(self.dim))
        return np.asarray(self.values, dtype=float)

    @property
    def top(self) -> float:
        """The largest value the spectrum draws (inf where it overflows float64)."""
        return float(self.hi if self.kind == "uniform" else self._fixed_values().max())

    @property
    def bottom(self) -> float:
        """The smallest value the spectrum draws."""
        return float(self.lo if self.kind == "uniform" else self._fixed_values().min())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The dim values of one draw: uniform ones from ``rng``, else the fixed values."""
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=self.dim)
        return self._fixed_values()

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "dim": int(self.dim)}
        d.update((name, _python(getattr(self, name))) for name in _KIND_FIELDS[self.kind])
        if self.kind == "explicit":
            d["values"] = list(map(float, self.values))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumSpec":
        return cls(**_known_fields(cls, d, "spectrum"))


@dataclass(frozen=True)
class SolverSpec:
    """A solver kind plus its configuration for one experiment column."""

    kind: str
    config: SolverConfig = field(default_factory=SolverConfig)
    id: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in SOLVERS:
            raise DomainError(f"unknown solver kind {self.kind!r}")
        if self.id is not None and not isinstance(self.id, str):
            raise DomainError(f"solver id must be a string, got {self.id!r}")
        if not isinstance(self.config, SolverConfig):
            raise DomainError(f"solver config must be a SolverConfig, got {self.config!r}")

    @property
    def solver_id(self) -> str:
        if self.id is not None:
            return self.id
        if self.kind == "mm":
            return "mm"
        return f"{self.kind}-nu{self.config.nu:g}"

    def run(self, e: Ensemble, x0) -> SolverResult:
        return SOLVERS[self.kind](e, self.config, x0)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, **{k: _python(v) for k, v in asdict(self.config).items()}}
        if self.id is not None:
            d["id"] = self.id
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SolverSpec":
        if not isinstance(d, dict):
            raise DomainError(f"solver spec must be a JSON object, got {d!r}")
        head = _known_fields(cls, {k: d[k] for k in ("kind", "id") if k in d}, "solver")
        config = {k: v for k, v in d.items() if k not in head}
        return cls(config=SolverConfig(**_known_fields(SolverConfig, config, "solver")),
                   **head)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full simulation regime: instance shape, spectrum, runs, solvers.

    ``scale_first_by`` scales A₁; times the spectrum's ``top`` it must be
    finite, and times its ``bottom`` at least the smallest normal float64.
    ``p``, ``n`` and ``runs``, like the spectrum's ``dim``, are refused
    where numpy could not hold their float64 array: a p×p matrix, the
    (n, p, p) ensemble, one log error per run.
    The solvers' column ids (``SolverSpec.solver_id``) must be distinct.
    """

    n: int
    p: int
    spectrum: SpectrumSpec
    solvers: List[SolverSpec]
    scale_first_by: float = 1.0
    runs: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("p", 1), ("runs", 1), ("seed", 0)):
            value = getattr(self, name)
            _whole_number(value, f"{name} must be an integer >= {least}, got {value!r}", least)
        for name, shape in (("p", (self.p, self.p)), ("n", (self.n, self.p, self.p)),
                            ("runs", (self.runs,))):
            _check_array_size(name, getattr(self, name), shape)
        scale = _real_number(self.scale_first_by, "scale_first_by must be positive and finite, "
                             f"got {self.scale_first_by!r}")
        if not isinstance(self.spectrum, SpectrumSpec):
            raise DomainError(f"spectrum must be a SpectrumSpec, got {self.spectrum!r}")
        if self.spectrum.dim != self.p:
            raise DomainError("spectrum dim must equal p")
        top = self.spectrum.top
        if not np.isfinite(scale * top):
            raise DomainError(f"scale_first_by {self.scale_first_by!r} times the spectrum's "
                              f"largest value {top!r} overflows float64")
        bottom = self.spectrum.bottom
        if not scale * bottom >= sys.float_info.min:
            raise DomainError(f"scale_first_by {self.scale_first_by!r} times the spectrum's "
                              f"smallest value {bottom!r} is below the smallest normal float64")
        if not (isinstance(self.solvers, list)
                and all(isinstance(s, SolverSpec) for s in self.solvers)):
            raise DomainError(f"solvers must be a list of SolverSpec, got {self.solvers!r}")
        if not self.solvers:
            raise DomainError("at least one solver is required")
        ids = [s.solver_id for s in self.solvers]
        if len(set(ids)) != len(ids):
            raise DomainError(f"duplicate solver ids: {ids}")

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "p": int(self.p),
            "spectrum": self.spectrum.to_dict(),
            "scale_first_by": _python(self.scale_first_by),
            "runs": int(self.runs),
            "seed": int(self.seed),
            "solvers": [s.to_dict() for s in self.solvers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = _known_fields(cls, d, "experiment")
        if not isinstance(d["solvers"], list):
            raise DomainError("experiment spec requires a 'solvers' list")
        return cls(**{**d, "spectrum": SpectrumSpec.from_dict(d["spectrum"]),
                      "solvers": [SolverSpec.from_dict(s) for s in d["solvers"]]})


def random_orthogonal(p: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of a matrix of independent uniform(0,1) entries.

    Mirrors the generator used for the simulation regimes (orth of a
    uniform random square matrix, via SVD); not Haar-distributed.

    Raises
    ------
    DomainError
        If ``p`` is not an integer >= 1 (a bool is not one), or numpy could
        not hold a p×p float64 matrix; before anything is drawn.
    """
    p = _matrix_dim(p)
    m = rng.uniform(size=(p, p))
    u, _, _ = np.linalg.svd(m)
    return u


def generate_ensemble(spec: ExperimentSpec, rng: np.random.Generator) -> Ensemble:
    """Draw one problem instance A_i = U_i S_i U_i^T per the spec, then scale A₁.

    Each matrix draws its U_i, then its spectrum S_i, from ``rng``;
    A₁ is multiplied by ``scale_first_by`` once all n are drawn.
    """
    mats = []
    for _ in range(spec.n):
        u = random_orthogonal(spec.p, rng)
        mats.append(sym((u * spec.spectrum.sample(rng)) @ u.T))
    mats[0] = mats[0] * spec.scale_first_by
    return Ensemble.from_matrices(mats)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated traces of one experiment.

    ``mean_log_error`` has one row per iteration index and one column
    per solver (mean over successful runs, early runs padded with their
    final value). ``results`` keeps the full per-run traces; ``errors``
    collects per-run failure messages without aborting the experiment.
    """

    spec: ExperimentSpec
    solver_ids: List[str]
    mean_log_error: np.ndarray
    results: Dict[str, List[Optional[SolverResult]]]
    errors: List[str]


def _padded(values: List[float], length: int) -> List[float]:
    return values + [values[-1]] * (length - len(values))


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every configured solver on ``runs`` generated instances."""
    ids = [s.solver_id for s in spec.solvers]
    results: Dict[str, List[Optional[SolverResult]]] = {i: [] for i in ids}
    errors: List[str] = []
    for r in range(spec.runs):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(r,)))
        try:
            ensemble = generate_ensemble(spec, rng)
        except SpdMeanError as exc:  # an invalid draw fails only its run
            errors.append(f"run {r} ensemble: {exc}")
            for ident in ids:
                results[ident].append(None)
            continue
        x0 = arithmetic_mean_init(ensemble)
        for solver in spec.solvers:
            try:
                res = solver.run(ensemble, x0)
            except Exception as exc:  # keep remaining runs alive
                errors.append(f"run {r} solver {solver.solver_id}: {exc}")
                res = None
            results[solver.solver_id].append(res)
    length = max((len(res.trace) for runs in results.values()
                  for res in runs if res is not None), default=0)
    mean_rows = np.full((length, len(ids)), np.nan)
    for col, ident in enumerate(ids):
        traces = [_padded([t.log_error for t in res.trace], length)
                  for res in results[ident] if res is not None]
        if traces:
            mean_rows[:, col] = np.mean(np.array(traces), axis=0)
    return ExperimentReport(spec=spec, solver_ids=ids,
                            mean_log_error=mean_rows, results=results,
                            errors=errors)


def report_to_csv(report: ExperimentReport) -> str:
    """CSV text: header ``iter,<id>,...``, 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter"] + report.solver_ids)
    for k, row in enumerate(report.mean_log_error):
        writer.writerow([k] + [f"{v:.17g}" for v in row])
    return buf.getvalue()

