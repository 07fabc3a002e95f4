"""Correctness gate for one solver result, in plain numpy.

Nothing here calls spdmean: the certificate is recomputed from the raw
input matrices, so a defect in the package's own gradient cannot hide
itself. The numpy functions are bound at import, before the traced run
wraps numpy.linalg, so the gate is never traced.
"""

import numpy as np

_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

# A converged result must have a certificate within this factor of the
# solver's tolerance; the factor absorbs the round-off between two
# evaluations of the same sum.
CERT_FACTOR = 10.0
# Largest relative increase of one MM objective step accepted as round-off.
ROUNDOFF = 1e-12
# Status values the solvers document.
STATUSES = frozenset({"converged", "max_iters", "line_search_stalled", "diverged"})


def certificate(mats, x):
    """‖Σᵢ log(X^{-1/2} Aᵢ X^{-1/2})‖_F for a stack of matrices Aᵢ."""
    w, u = _eigh(x)
    xi = (u / np.sqrt(w)) @ u.T
    m = xi @ mats @ xi
    w2, u2 = _eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
    logs = (u2 * np.log(w2)[..., None, :]) @ np.swapaxes(u2, -1, -2)
    return float(np.linalg.norm(logs.sum(axis=0)))


def check_result(kind, mats, res, tol):
    """Problems found with one result; an empty list means it passes.

    ``kind`` is the solver kind ("mm", "gd-ls" or "gd-fixed"), ``mats``
    the (n, p, p) input stack and ``tol`` the solver's gradient tolerance.
    """
    x = np.asarray(res.mean, dtype=float)
    if x.shape != mats.shape[1:]:
        return [f"mean has shape {x.shape}"]
    if not np.all(np.isfinite(x)):
        return ["mean is not finite"]
    if np.linalg.norm(x - x.T) > 1e-10 * np.linalg.norm(x):
        return ["mean is not symmetric"]
    w = _eigvalsh(x)
    if not w[0] > 0:
        return [f"mean is not positive definite (eigenvalue {w[0]:.3g})"]
    problems = []
    if res.status not in STATUSES:
        problems.append(f"unknown status {res.status!r}")
    if kind == "mm" and res.status != "converged":
        problems.append(f"MM ended with status {res.status!r}")
    if res.status == "converged":
        cert = certificate(mats, x)
        if not cert <= CERT_FACTOR * tol:
            problems.append(f"certificate {cert:.3g} above {CERT_FACTOR:g} x tolerance {tol:.3g}")
    objs = [t.objective for t in res.trace]
    if not np.all(np.isfinite(objs)):
        problems.append("objective trace is not finite")
    elif kind == "mm":
        for k in range(1, len(objs)):
            if objs[k] > objs[k - 1] + ROUNDOFF * max(1.0, abs(objs[k - 1])):
                problems.append(f"MM objective increased at iteration {k}")
                break
    if kind == "gd-ls" and objs and not objs[-1] <= objs[0]:
        problems.append("line search ended above its starting objective")
    return problems
