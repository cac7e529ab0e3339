"""Output checks for one visualization query.

Every response is checked for shape and the PDist invariants of Eq. (1).
A seeded sample of responses is also compared with a reference level-l
DPPR computed here by power iteration over the CSR arrays, independent of
the program's push kernels, against the (eps, delta) bound of Definition
3.5 / Theorem 4.3.
"""
from __future__ import annotations

import math

import numpy as np


def check_response(X: np.ndarray, pdist: np.ndarray, k: int, n: int) -> str | None:
    """Return a failure reason, or None when the response is well formed."""
    if X.shape != (k, 2) or not np.all(np.isfinite(X)):
        return f"positions not finite {k}x2: shape {X.shape}"
    if pdist.shape != (k, k) or not np.array_equal(pdist, pdist.T):
        return "pdist not symmetric k x k"
    if np.any(np.diag(pdist) != 0.0):
        return "pdist diagonal not zero"
    off = pdist[~np.eye(k, dtype=bool)]
    upper = 2.0 * math.log(max(n, 2))
    if off.size and (off.min() < 2.0 - 1e-12 or off.max() > upper + 1e-12):
        return f"pdist off-diagonal outside [2, {upper:.4f}]"
    return None


def reference_level_dppr(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    leaf_sets: list,
    alpha: float,
    *,
    tail: float,
) -> np.ndarray:
    """Level-l DPPR of Eq. (2) by power iteration, all k sources at once.

    Source V_i starts with mass d(s)/|F(V_i)| on each leaf s; each step
    keeps alpha of the mass and spreads the rest evenly over out-arcs.
    Iterates until every source's untouched mass is below ``tail``, which
    then bounds the truncation error of every entry.
    """
    deg = np.diff(indptr).astype(np.float64)
    src = np.repeat(np.arange(n), np.diff(indptr))
    inv_deg = 1.0 / np.maximum(deg, 1.0)
    k = len(leaf_sets)
    x = np.zeros((k, n))
    for i, fs in enumerate(leaf_sets):
        x[i, fs] = deg[fs] / max(1, len(fs))
    est = np.zeros((k, n))
    while x.sum(axis=1).max() > tail:
        est += alpha * x
        spread = (1.0 - alpha) * x * inv_deg
        x = np.stack(
            [np.bincount(indices, weights=row[src], minlength=n) for row in spread]
        )
    out = np.empty((k, k))
    for j, fs in enumerate(leaf_sets):
        out[:, j] = est[:, fs].mean(axis=1)
    return out


def err_over_bound(dppr: np.ndarray, exact: np.ndarray, eps: float, delta: float) -> float:
    """max |est - exact| / bound, with bound = eps*delta below delta, else eps*exact."""
    bound = np.where(exact < delta, eps * delta, eps * exact)
    return float((np.abs(dppr - exact) / bound).max())
