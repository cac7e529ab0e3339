"""Tau-Push indexing scheme (paper §4.3).

The index holds (i) the n-entry DPR vector and (ii) precomputed GBP results
for every supernode — at any hierarchy level — that its query refines by
GBP, i.e. whose DPR exceeds that query's tau_q. The paper's index is
O(n + k sqrt(k n)) because a GBP result is stored only w.r.t. O(k) *source
supernodes*: in the hierarchy, a query that contains target V_j as a child
always has S = the children of V_j's parent, i.e. V_j's siblings. So the
stored entry for (level, sup) is the aggregated DPPR column over exactly
those siblings, computed with the query's own tau_q and Eq. (6) rmax_b
(both determined by the sibling set).

``nbytes`` feeds Table 10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.gbp import gbp
from repro.core.taupush import (
    child_dprs,
    membership_arrays,
    tau_cap,
    taupush_params,
)
from repro.graphs.csr import CSRGraph
from repro.hierarchy.supergraph import Hierarchy
from repro.pprlib.budget import OpBudget
from repro.pprlib.dpr import dpr_vector_local, supernode_dpr


@dataclass
class TauPushIndex:
    """Precomputed DPR vector + per-target GBP columns over its siblings.

    ``gbp_store[(level, sup)] = (sibling_ids, values)`` with
    ``values[i] = pi_hat_d(sibling_i, sup)``.
    """

    leaf_dpr: np.ndarray
    gbp_store: dict = field(default_factory=dict)
    build_ops: int = 0

    @property
    def nbytes(self) -> int:
        total = int(self.leaf_dpr.nbytes)
        for sids, vals in self.gbp_store.values():
            total += int(sids.nbytes + vals.nbytes)
        return total

    @property
    def dpr_nbytes(self) -> int:
        return int(self.leaf_dpr.nbytes)

    def lookup(self, level: int, sup: int) -> dict[int, float] | None:
        """Sibling-id -> estimated DPPR toward (level, sup), or None."""
        entry = self.gbp_store.get((level, sup))
        if entry is None:
            return None
        sids, vals = entry
        return dict(zip(sids.tolist(), vals.tolist()))


def _sibling_sets(h: Hierarchy, level: int, sups: np.ndarray) -> list[np.ndarray]:
    """The distinct sibling sets at ``level`` that contain any of ``sups``.

    A sibling set is the child list of one query: every supernode sharing
    a parent (the whole coarsest level under the virtual root).
    """
    if len(sups) == 0:
        return []
    if level == h.n_levels:
        return [np.arange(h.n_supernodes(level))]
    parents = np.unique(h.parent_labels(level)[sups])
    return [h.children(level + 1, int(p)) for p in parents]


def build_taupush_index(
    g: CSRGraph,
    h: Hierarchy,
    alpha: float,
    k: int,
    *,
    eps: float | None = None,
    delta: float | None = None,
    budget: OpBudget | None = None,
    include_gbp: bool = True,
) -> TauPushIndex:
    """Build the Tau-Push index for one graph + hierarchy.

    ``include_gbp=False`` yields the GFP(tau_max) variant's index (DPR
    only). Each sibling set gets tau_q and the Eq. (6) rmax_b from
    :func:`taupush_params`, exactly as its query does, and a column is
    stored for each sibling with tau_j > tau_q, so query-time lookups
    return exactly what a live GBP inside Algorithm 1 would, and every
    stored column is read by its query.
    """
    eps = eps if eps is not None else 1.0 - 1.0 / math.e
    budget = budget or OpBudget()
    leaf_dpr = dpr_vector_local(g, alpha)
    budget.charge(g.m * 40)  # power-iteration preprocessing cost
    idx = TauPushIndex(leaf_dpr=leaf_dpr)
    if not include_gbp:
        idx.build_ops = budget.ops
        return idx
    # A sibling set of k' <= k children refines only tau_j > 1/sqrt(k' n),
    # so supernodes at or below 1/sqrt(k n) are never GBP targets.
    floor = tau_cap(k, g.n)
    for level in range(0, h.n_levels + 1):
        taus = supernode_dpr(leaf_dpr, h.leaf_labels[level])
        for sibs in _sibling_sets(h, level, np.flatnonzero(taus > floor)):
            leaf_sets = [h.leaf_set(level, int(s)) for s in sibs]
            member, sizes = membership_arrays(g.n, leaf_sets)
            delta_q = (
                delta if delta is not None else 1.0 / (10.0 * max(1, len(sibs)))
            )
            tau, _, rmax_b = taupush_params(g, leaf_sets, leaf_dpr, eps, delta_q)
            for j in np.flatnonzero(child_dprs(leaf_dpr, leaf_sets) > tau):
                col = gbp(
                    g, leaf_sets[j], member, sizes, rmax_b, alpha, budget=budget
                )
                idx.gbp_store[(level, int(sibs[j]))] = (
                    sibs.astype(np.int64),
                    col.astype(np.float64),
                )
    idx.build_ops = budget.ops
    return idx
