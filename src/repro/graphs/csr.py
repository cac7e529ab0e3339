"""Local CSR adjacency kernel.

All single-thread push/walk kernels (the paper's timing setup is a
single-thread CPU) operate on this structure. It is always built from the
same (src, dst) edge list that the Spark DataFrame representation uses, so
the two engines see identical graphs.

Conventions
-----------
* The graph is *directed*; an undirected input is stored as two arcs.
* ``m`` is the number of directed arcs (this is the ``m`` in Eq. (5) and in
  the DPR normalization Eq. (4); for a symmetrized undirected graph it is
  twice the undirected edge count, matching Eq. (11)'s sum-to-2m identity).
* Node ids are contiguous ``0..n-1``.
"""
from __future__ import annotations

import numpy as np


class CSRGraph:
    """Compressed-sparse-row adjacency with both edge directions.

    Attributes
    ----------
    n, m : int
        Node count and *directed arc* count.
    indptr, indices : np.ndarray
        Out-adjacency in CSR form (``indices[indptr[v]:indptr[v+1]]`` are
        the out-neighbors of ``v``).
    rindptr, rindices : np.ndarray
        In-adjacency (reverse graph) in CSR form.
    arc_owner, rarc_owner : np.ndarray
        The node each CSR slot belongs to: the source of out-arc
        ``indices[i]`` and the target of in-arc ``rindices[i]``.
    out_deg : np.ndarray
        Out-degree per node (``d(v)`` in the paper).
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if len(src) and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
        ):
            raise ValueError("node id out of range")
        self.n = int(n)
        self.m = int(len(src))
        order = np.lexsort((dst, src))
        s, d = src[order], dst[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.indptr, s + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self.indices = d
        rorder = np.lexsort((s, d))
        self.rindptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.rindptr, d[rorder] + 1, 1)
        np.cumsum(self.rindptr, out=self.rindptr)
        self.rindices = s[rorder]
        self.arc_owner = s
        self.rarc_owner = d[rorder]
        self.out_deg = np.diff(self.indptr).astype(np.float64)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_undirected(cls, n: int, u: np.ndarray, v: np.ndarray) -> "CSRGraph":
        """Build from unique undirected edges; stores both arc directions."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return cls(n, np.concatenate([u, v]), np.concatenate([v, u]))

    @classmethod
    def from_edge_pandas(cls, n: int, pdf) -> "CSRGraph":
        """Build from a (src, dst) pandas frame of directed arcs."""
        return cls(n, pdf["src"].to_numpy(), pdf["dst"].to_numpy())

    # -- accessors --------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.rindices[self.rindptr[v] : self.rindptr[v + 1]]

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of all directed arcs, sorted by (src, dst)."""
        return self.arc_owner, self.indices

    # -- dense operators (small graphs only) -------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic random-walk matrix P (dangling rows stay zero)."""
        P = np.zeros((self.n, self.n))
        s, d = self.edge_array()
        np.add.at(P, (s, d), 1.0)
        deg = self.out_deg.copy()
        deg[deg == 0] = 1.0
        return P / deg[:, None]

