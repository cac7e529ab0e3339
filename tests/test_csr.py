"""CSR adjacency kernel unit tests."""
import numpy as np
import pytest

from repro.graphs.csr import CSRGraph


def test_basic_shape(tiny):
    assert tiny.n == 6
    assert tiny.m == 9
    assert tiny.indptr[-1] == 9
    assert tiny.rindptr[-1] == 9


def test_out_degrees(tiny):
    assert tiny.out_deg.tolist() == [2, 1, 2, 1, 2, 1]


def test_out_neighbors(tiny):
    assert sorted(tiny.out_neighbors(0).tolist()) == [1, 2]
    assert sorted(tiny.out_neighbors(4).tolist()) == [3, 5]
    assert tiny.out_neighbors(1).tolist() == [2]


def test_in_neighbors(tiny):
    assert sorted(tiny.in_neighbors(2).tolist()) == [0, 1]
    assert sorted(tiny.in_neighbors(3).tolist()) == [2, 4]
    assert sorted(tiny.in_neighbors(4).tolist()) == [3, 5]


def test_edge_array_sorted(tiny):
    s, d = tiny.edge_array()
    assert len(s) == tiny.m
    order = np.lexsort((d, s))
    assert (order == np.arange(len(s))).all()


def test_from_undirected_symmetric():
    g = CSRGraph.from_undirected(3, np.array([0, 1]), np.array([1, 2]))
    assert g.m == 4
    assert sorted(g.out_neighbors(1).tolist()) == [0, 2]
    # undirected => in == out
    assert (g.out_deg == np.array([1, 2, 1])).all()


def test_transition_matrix_row_stochastic(tiny):
    P = tiny.transition_matrix()
    np.testing.assert_allclose(P.sum(axis=1), np.ones(6))


def test_id_out_of_range_raises():
    with pytest.raises(ValueError):
        CSRGraph(2, np.array([0]), np.array([5]))


def test_negative_id_raises():
    with pytest.raises(ValueError):
        CSRGraph(3, np.array([0, 1]), np.array([-1, 2]))
    with pytest.raises(ValueError):
        CSRGraph(3, np.array([-1, 1]), np.array([0, 2]))


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        CSRGraph(3, np.array([0, 1]), np.array([1]))


def test_dangling_node_allowed():
    g = CSRGraph(3, np.array([0]), np.array([2]))
    assert g.out_deg.tolist() == [1.0, 0.0, 0.0]
    assert g.out_neighbors(2).tolist() == []
