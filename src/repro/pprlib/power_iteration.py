"""Exact / near-exact PPR via linear algebra and power iteration (PI [59]).

* :func:`exact_ppr_matrix` — closed-form all-pairs PPR for small graphs
  (the ground truth every approximate kernel is tested against, and the
  single-level PDist source for the quality tables, n <= 1.5K).
* :func:`ppr_single_source_pi` — the PI competitor: iterate to absolute
  error < 1e-9 (paper §3.3, "the precision of float"), charging O(m) ops
  per iteration to the budget.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget
from repro.pprlib.push import scatter_arcs


def exact_ppr_matrix(g: CSRGraph, alpha: float) -> np.ndarray:
    """All-pairs PPR: Pi[i, j] = pi(v_i, v_j), via alpha (I-(1-a)P)^{-1}.

    Dense O(n^3) — ground truth for graphs up to a few thousand nodes.
    Rows sum to 1 when the graph has no dangling nodes.
    """
    P = g.transition_matrix()
    A = np.eye(g.n) - (1.0 - alpha) * P
    return alpha * np.linalg.solve(A, np.eye(g.n))


def exact_dppr_matrix(g: CSRGraph, alpha: float) -> np.ndarray:
    """All-pairs DPPR: pi_d(v_i, v_j) = pi(v_i, v_j) * d(v_i) (Def. 3.1)."""
    return exact_ppr_matrix(g, alpha) * g.out_deg[:, None]


def ppr_single_source_pi(
    g: CSRGraph,
    source: int,
    alpha: float,
    *,
    tol: float = 1e-9,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """Single-source PPR by power iteration (the paper's PI baseline).

    Iterates pi_{t+1} = alpha*e_s + (1-alpha) P^T-propagation of pi_t's
    residual mass until the remaining mass < ``tol``. Charges m ops per
    iteration. Returns the PPR vector pi(source, .).
    """
    budget = budget or OpBudget()
    deg = g.out_deg.copy()
    deg[deg == 0] = 1.0
    # Propagate the probability mass of the *current step* distribution:
    # pi = alpha * sum_t (1-alpha)^t x_t with x_0 = e_s, x_{t+1} = P^T x_t.
    x = np.zeros(g.n)
    x[source] = 1.0
    pi = np.zeros(g.n)
    weight = 1.0
    while weight > tol:
        pi += alpha * weight * x
        x = scatter_arcs(g, x / deg, budget=budget)
        weight *= 1.0 - alpha
    return pi
