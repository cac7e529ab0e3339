"""Forward-Push [4] and Backward-Push [50] residue kernels.

Frontier-synchronous formulation: every node above its threshold pushes in
the same round. The push invariant (paper Eq. (3)) holds under *any* push
schedule, so batching preserves correctness. The schedule is the one the
Spark DataFrame implementation in ``repro.core.taupush_spark`` runs (same
frontiers, same rounds, same op counts), so the two engines agree to
floating-point rounding (~1e-16 relative): each round sums a node's incoming
shares with ``np.bincount``, in a different order than the Spark groupBy.

One kernel serves both directions. A round's frontier is the set of nodes
whose residue exceeds its threshold; their shares are scattered along the
frontier's CSR slices, or along every arc in one pass once the frontier owns
more than a quarter of them (see :func:`scatter_arcs`, which the power
iteration sweeps of DPR, PI and ResAcc also use).

Both kernels work on *residue vectors*, so the grouped variants (GFP/GBP,
paper Alg. 2-3) reuse them by seeding multiple sources/targets at once.
Estimates are returned per node; grouped aggregation to supernodes happens
in ``repro.core``.

Semantics:
* forward: residue r(v) pushes when r(v) > d(v) * rmax; alpha*r(v) goes to
  the estimate of v; (1-alpha)*r(v)/d(v) goes to each out-neighbor.
  With initial residue r(s) = d(s), the estimate converges to DPPR
  pi_d(s, .) = pi(s, .) * d(s).
* backward: residue r(v) pushes when r(v) > rmax_b; alpha*r(v) goes to
  the estimate of v; each in-neighbor u receives (1-alpha)*r(v)/d(u).
  With initial residue r(t) = 1, estimate[s] converges to pi(s, t).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget


# A frontier owning more than 1/_FULL_PASS of all arcs is scattered by one
# pass over every arc instead of gathering its CSR slices: the gather costs
# more than the pass by then, and the share barely matters near the switch.
_FULL_PASS = 4


def scatter_arcs(
    g: CSRGraph,
    weight: np.ndarray,
    nodes: np.ndarray | None = None,
    *,
    reverse: bool = False,
    budget: OpBudget | None = None,
) -> np.ndarray:
    """Sum per-node weights along arcs: the one arc-scatter primitive.

    Forward, ``y[u]`` is the sum of ``weight[v]`` over arcs v -> u with v in
    ``nodes``; with ``reverse``, over arcs u -> v instead (the in-CSR).
    ``weight`` is aligned with ``nodes``, or covers all n nodes when
    ``nodes`` is None. Charges one op per arc read, before scattering.
    """
    if reverse:
        indptr, indices, owner = g.rindptr, g.rindices, g.rarc_owner
    else:
        indptr, indices, owner = g.indptr, g.indices, g.arc_owner
    if nodes is None:
        arcs = g.m
    else:
        counts = indptr[nodes + 1] - indptr[nodes]
        arcs = int(counts.sum())
    if budget is not None:
        budget.charge(arcs)
    if nodes is None:
        share = weight
    elif arcs <= g.m // _FULL_PASS:
        # slot positions of the frontier's CSR slices, concatenated
        block = np.cumsum(counts) - counts
        pos = np.arange(arcs) + np.repeat(indptr[nodes] - block, counts)
        return np.bincount(
            indices[pos], weights=np.repeat(weight, counts), minlength=g.n
        )
    else:
        share = np.zeros(g.n)
        share[nodes] = weight
    return np.bincount(indices, weights=share[owner], minlength=g.n)


def _push(
    g: CSRGraph,
    residue: np.ndarray,
    thresh: np.ndarray | float,
    alpha: float,
    *,
    reverse: bool,
    budget: OpBudget | None,
    max_rounds: int | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The frontier-synchronous push loop shared by both directions."""
    budget = budget or OpBudget()
    r = np.asarray(residue, dtype=np.float64).copy()
    est = np.zeros(g.n)
    # (1 - alpha) / d(v); zero on dangling nodes, which never send forward
    # and never receive backward.
    step = np.divide(
        1.0 - alpha, g.out_deg, out=np.zeros(g.n), where=g.out_deg > 0
    )
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        front = np.flatnonzero(r > thresh)
        if len(front) == 0:
            break
        rf = r[front]
        est[front] += alpha * rf
        r[front] = 0.0
        if reverse:
            r += step * scatter_arcs(g, rf, front, reverse=True, budget=budget)
        else:
            r += scatter_arcs(g, rf * step[front], front, budget=budget)
        rounds += 1
    return est, r, rounds


def forward_push(
    g: CSRGraph,
    residue: np.ndarray,
    rmax: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
    max_rounds: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frontier-synchronous Forward-Push along out-arcs.

    Mutates nothing; returns (estimate, final residue, rounds). The
    estimate accumulates alpha * pushed-residue per node (DPPR scale if the
    seed residues are degree-scaled). Charges one op per touched arc.
    """
    thresh = g.out_deg * rmax
    thresh[g.out_deg == 0] = np.inf  # dangling nodes cannot push
    return _push(
        g, residue, thresh, alpha, reverse=False, budget=budget, max_rounds=max_rounds
    )


def backward_push(
    g: CSRGraph,
    residue: np.ndarray,
    rmax_b: float,
    alpha: float,
    *,
    budget: OpBudget | None = None,
    max_rounds: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Frontier-synchronous Backward-Push along in-arcs.

    Returns (estimate, final residue, rounds); estimate[s] approximates
    pi(s, t) for seed target(s) t. Charges one op per touched arc.
    """
    return _push(
        g, residue, rmax_b, alpha, reverse=True, budget=budget, max_rounds=max_rounds
    )


def random_walks(
    g: CSRGraph,
    starts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    *,
    budget: OpBudget | None = None,
    max_len: int = 200,
) -> np.ndarray:
    """Terminal nodes of alpha-restart random walks from ``starts`` (batched).

    Each walk terminates at its current node with probability alpha per
    step (the RWR of §3.1); walks from dangling nodes stop in place.
    Charges one op per walk step.
    """
    budget = budget or OpBudget()
    cur = np.asarray(starts, dtype=np.int64).copy()
    done = np.zeros(len(cur), dtype=bool)
    for _ in range(max_len):
        alive = np.flatnonzero(~done)
        if len(alive) == 0:
            break
        budget.charge(len(alive))
        stop = rng.random(len(alive)) < alpha
        done[alive[stop]] = True
        walk = alive[~stop]
        if len(walk) == 0:
            continue
        c = cur[walk]
        deg = g.out_deg[c].astype(np.int64)
        stuck = deg == 0
        done[walk[stuck]] = True
        mv = walk[~stuck]
        if len(mv) == 0:
            continue
        c = cur[mv]
        offs = rng.integers(0, g.out_deg[c].astype(np.int64))
        cur[mv] = g.indices[g.indptr[c] + offs]
    return cur
