"""Shared small-graph fixtures for the unit tests.

Session-scoped and cached: the exact PPR/DPPR matrices are the ground
truth most kernel tests compare against. The Spark fixture comes from the
repo-root conftest.
"""
import numpy as np
import pytest

from repro.core.index import build_taupush_index
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.power_iteration import exact_dppr_matrix, exact_ppr_matrix

ALPHA = 0.15


@pytest.fixture(scope="session")
def tiny():
    """Hand-built 6-node directed graph with known structure."""
    # 0->1,0->2,1->2,2->0,2->3,3->4,4->3,4->5,5->4  (one dangling-free loop)
    src = np.array([0, 0, 1, 2, 2, 3, 4, 4, 5])
    dst = np.array([1, 2, 2, 0, 3, 4, 3, 5, 4])
    return CSRGraph(6, src, dst)


@pytest.fixture(scope="session")
def twego():
    return load_dataset("TwEgo").csr()


@pytest.fixture(scope="session")
def fbego():
    return load_dataset("FbEgo").csr()


@pytest.fixture(scope="session")
def wiki():
    return load_dataset("Wiki-ii").csr()


@pytest.fixture(scope="session")
def youtube25():
    """The benchmark's Youtube analog, its k = 25 hierarchy and index."""
    g = load_dataset("Youtube").csr()
    h = build_hierarchy(g, 25, seed=0)
    return g, h, build_taupush_index(g, h, ALPHA, 25)


def all_queries(h):
    """Every query of hierarchy ``h``, root first, as (child keys, leaf sets);
    a key is the (level, supernode id) pair the index is keyed by."""
    queries = [(h.n_levels + 1, None)] + [
        (level, sup)
        for level in range(1, h.n_levels + 1)
        for sup in range(h.n_supernodes(level))
    ]
    for parent_level, sup in queries:
        kids, leaf_sets = h.query_children_leafsets(parent_level, sup)
        yield [(parent_level - 1, int(c)) for c in kids], leaf_sets


@pytest.fixture(scope="session")
def fbego_exact_ppr(fbego):
    return exact_ppr_matrix(fbego, ALPHA)


@pytest.fixture(scope="session")
def fbego_exact_dppr(fbego):
    return exact_dppr_matrix(fbego, ALPHA)


@pytest.fixture(scope="session")
def tiny_exact_ppr(tiny):
    return exact_ppr_matrix(tiny, ALPHA)
