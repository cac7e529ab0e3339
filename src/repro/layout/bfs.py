"""All-pairs shortest path by BFS (the classic stress-method distance).

Used by CMDS/PMDS (§7.1 baselines). Treats the graph as undirected (both
CSR directions exist for our symmetrized graphs). Unreachable pairs get
``disc_dist`` = (max finite distance + 1) so multi-component graphs remain
embeddable — exactly what produces the shortest-distance measure's
"few discrete values" degeneracy the paper criticizes.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.pprlib.push import scatter_arcs


def bfs_from(g: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; -1 for unreachable nodes."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while len(frontier):
        reached = scatter_arcs(g, np.ones(len(frontier)), frontier)
        nxt = np.flatnonzero((reached > 0) & (dist < 0))
        d += 1
        dist[nxt] = d
        frontier = nxt
    return dist


def apsp(g: CSRGraph, *, sources: np.ndarray | None = None) -> np.ndarray:
    """Shortest-path matrix (len(sources) x n); unreachable -> max+1."""
    sources = np.arange(g.n) if sources is None else np.asarray(sources)
    D = np.vstack([bfs_from(g, int(s)) for s in sources]).astype(np.float64)
    finite_max = D.max() if (D >= 0).all() else D[D >= 0].max()
    D[D < 0] = finite_max + 1.0
    return D
