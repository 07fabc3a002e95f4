"""Host-speed reference for the timed runs.

One reference sweep is plain numpy work of the same shape as the
solvers' inner loop on a workload's instance: for each of its n matrices
Aᵢ, the congruence X^{-1/2} Aᵢ X^{-1/2}, one p×p eigendecomposition and
a matrix logarithm, in a Python loop. It never calls spdmean, so no
change to the package can change its cost.

On the shared 2-vCPU host this benchmark was built on, six identical
processes differed by up to 25% in CPU time, every kernel alike (a
10×10 solve, a bare 10×10 ``eigh``, a 100×100 ``eigh`` and a
pure-Python loop). The speed also drifts inside a run, in
stretches of seconds. So timed runs follow every solve and set-up with a
block of reference sweeps, divide its CPU time by the sweep time
measured around it, and multiply by the workload's nominal sweep time.
A change to spdmean moves its solve times and not the sweep, so it
shows in full.
"""

from time import process_time

import numpy as np

# Bound at import, before a traced run wraps numpy.linalg.
_eigh = np.linalg.eigh


class Reference:
    """Reference sweeps on one instance, with their CPU times."""

    def __init__(self, mats):
        self.mats = [np.array(a) for a in mats]
        w, u = _eigh(np.mean(mats, axis=0))
        self.xi = (u / np.sqrt(w)) @ u.T
        self.samples = []

    def sweep(self):
        xi = self.xi
        acc = np.zeros_like(xi)
        for a in self.mats:
            m = xi @ a @ xi
            w, u = _eigh((m + m.T) * 0.5)
            acc += (u * np.log(w)) @ u.T
        return acc

    def run_for(self, budget_s):
        """Run and time sweeps until they add up to ``budget_s`` CPU
        seconds, at least one; return their median time."""
        first = len(self.samples)
        spent = 0.0
        while spent < budget_s or len(self.samples) == first:
            t0 = process_time()
            self.sweep()
            dt = process_time() - t0
            self.samples.append(dt)
            spent += dt
        return float(np.median(self.samples[first:]))


class Normalizer:
    """Expresses CPU times in reference sweeps of the host's speed at the
    time: each timed step is followed by a block of sweeps, and a step's
    time is divided by the mean of the block medians just before and just
    after it."""

    def __init__(self, ref, share, warmup_s):
        self.ref = ref
        self.share = share
        self.before = ref.run_for(warmup_s)

    def __call__(self, dt):
        """``dt`` in sweeps; runs the block that follows it."""
        after = self.ref.run_for(self.share * dt)
        speed = 0.5 * (self.before + after)
        self.before = after
        return dt / speed
