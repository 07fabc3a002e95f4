"""Workload table and the benchmark's own input generator.

Every instance is n matrices Aᵢ = Qᵢ diag(sᵢ) Qᵢᵀ with sᵢ drawn from
uniform(1, 10) and Qᵢ the orthonormalized (QR) factor of a uniform(0, 1)
matrix, as in the paper's simulation regimes. The generator lives here,
not in spdmean.bench, so a change to the package cannot change a
workload's inputs.
"""

import zlib
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

# The seven columns of the bundled fig1_small spec, kept here so that
# editing the bundled file does not change the workload.
FIG1_SOLVERS = (
    {"kind": "mm"},
    {"kind": "gd-ls", "nu": 0.25},
    {"kind": "gd-ls", "nu": 0.5},
    {"kind": "gd-ls", "nu": 1.0},
    {"kind": "gd-ls", "nu": 2.0},
    {"kind": "gd-ls", "nu": 4.0},
    {"kind": "gd-fixed", "nu": 1.0},
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``instances`` is how many distinct problems a run draws; it is sized
    so that one pass over them takes 2 to 8 seconds, which leaves room
    for several timed repeats of each in a 25-second run. With ``solvers``
    (solver spec dicts) the workload is loaded through
    ExperimentSpec.from_dict and run through SolverSpec.run, which puts
    the package's bench layer on the path; without, it calls mm_solve.
    ``ref_ms`` is the median CPU time of one reference sweep on the
    workload's first instance on the host the benchmark was built on;
    timed runs report times at that host speed (see reference.py).
    ``tiny`` replaces (n, p, instances) for the smoke tests.
    """

    name: str
    n: int
    p: int
    instances: int
    ref_ms: float = 1.0
    scale_first_by: float = 1.0
    solvers: Optional[Tuple[dict, ...]] = None
    tiny: tuple = (3, 4, 2)

    def sized(self, tiny):
        if not tiny:
            return self
        n, p, k = self.tiny
        return replace(self, n=n, p=p, instances=k)

    def spec(self):
        """The experiment spec dict the workload loads, when it has one."""
        return {
            "n": self.n,
            "p": self.p,
            "spectrum": {"kind": "uniform", "dim": self.p, "lo": 1.0, "hi": 10.0},
            "scale_first_by": self.scale_first_by,
            "solvers": list(self.solvers),
        }


WORKLOADS = {
    w.name: w
    for w in (
        # fig1 regime: per-call Python overhead dominates.
        Workload("mm-small", n=10, p=10, instances=100, ref_ms=0.465),
        # O(n p^3) eigen and matmul work dominates; heaviest set-up.
        Workload("mm-large", n=50, p=100, instances=2, ref_ms=90.7),
        # fig3 regime: ~100 iterations per solve; iteration count can move.
        Workload("fig3-rescale", n=3, p=10, instances=64, ref_ms=0.142,
                 scale_first_by=1e4, solvers=({"kind": "mm"},), tiny=(3, 10, 2)),
        # fig1 columns: line-search GD uses objective and exp_m, not the MM
        # coefficients. Not in BENCHMARK.json: line-search iteration counts
        # range from about 10 to 350 per instance, so the figures of 16
        # instances move by 10-30% from seed to seed. Run it by name.
        Workload("gd-fig1", n=10, p=10, instances=16, ref_ms=0.465,
                 solvers=FIG1_SOLVERS, tiny=(10, 10, 1)),
    )
}


def instance_matrices(name, seed, index, n, p, scale_first_by=1.0):
    """The raw (n, p, p) stack of one instance, a pure function of its key.

    Instance ``index`` draws from its own child stream, so the first k
    instances do not depend on how many a run draws.
    """
    key = [int(seed), zlib.crc32(name.encode()), int(index)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    mats = np.empty((n, p, p))
    for i in range(n):
        q, _ = np.linalg.qr(rng.uniform(size=(p, p)))
        s = rng.uniform(1.0, 10.0, size=p)
        a = (q * s) @ q.T
        mats[i] = (a + a.T) / 2.0
    mats[0] *= scale_first_by
    return mats
