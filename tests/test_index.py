"""Tau-Push index (§4.3) tests: lookup equivalence, sizes."""
import math

import numpy as np
import pytest

from repro.core.index import build_taupush_index
from repro.core.taupush import child_dprs, taupush_params, taupush_query
from repro.pprlib.budget import OpBudget
from tests.conftest import all_queries

ALPHA = 0.15
EPS = 1.0 - 1.0 / math.e


@pytest.fixture(scope="module")
def yt(youtube25):
    return youtube25


def test_index_has_dpr(yt):
    g, _, idx = yt
    assert len(idx.leaf_dpr) == g.n
    assert idx.leaf_dpr.sum() == pytest.approx(1.0, abs=1e-9)


def test_index_stores_high_dpr_targets(yt):
    """A stored target's DPR exceeds its sibling query's tau, which is
    1/sqrt(|siblings| n) whenever some sibling is refined by GBP."""
    g, h, idx = yt
    assert len(idx.gbp_store) > 0
    for (level, sup), (sids, _) in idx.gbp_store.items():
        fs = h.leaf_set(level, sup)
        assert idx.leaf_dpr[fs].mean() > 1.0 / np.sqrt(len(sids) * g.n)


def test_index_covers_all_high_dpr_supernodes(yt):
    g, h, idx = yt
    for level in range(h.n_levels + 1):
        n_sup = h.n_supernodes(level)
        if level == h.n_levels:
            n_sibs = np.full(n_sup, n_sup)
        else:
            parent = h.parent_labels(level)
            n_sibs = np.bincount(parent)[parent]
        for sup in range(n_sup):
            fs = h.leaf_set(level, sup)
            if idx.leaf_dpr[fs].mean() > 1.0 / np.sqrt(n_sibs[sup] * g.n):
                assert (level, sup) in idx.gbp_store


def test_index_holds_exactly_the_gbp_targets(yt):
    """Over every query of the hierarchy, each GBP target is an index hit
    and each stored entry is a GBP target of its sibling query."""
    g, h, idx = yt
    targets = set()
    for keys, leaf_sets in all_queries(h):
        delta = 1.0 / (10 * len(leaf_sets))
        tau, _, _ = taupush_params(g, leaf_sets, idx.leaf_dpr, EPS, delta)
        hot = np.flatnonzero(child_dprs(idx.leaf_dpr, leaf_sets) > tau)
        targets.update(keys[j] for j in hot)
    assert targets == set(idx.gbp_store)


def test_stored_columns_cover_siblings(yt):
    """Each stored GBP column spans exactly the target's sibling set."""
    g, h, idx = yt
    for (level, sup), (sids, vals) in idx.gbp_store.items():
        assert len(sids) == len(vals)
        assert sup in sids.tolist()
        if level == h.n_levels:
            assert len(sids) == h.n_supernodes(level)


def test_lookup_api(yt):
    g, h, idx = yt
    (level, sup) = next(iter(idx.gbp_store))
    m = idx.lookup(level, sup)
    assert m is not None and sup in m
    assert idx.lookup(99, 0) is None


def test_query_with_index_matches_live_gbp(yt):
    """Indexed lookups must be at least as precise as live GBP: both must
    satisfy the same (eps, delta) bound; here we check they agree closely."""
    g, h, idx = yt
    hub = int(np.argmax(idx.leaf_dpr))
    sup1 = int(h.leaf_labels[1][hub])
    kids, leaf_sets = h.query_children_leafsets(1, sup1)
    keys = [(0, int(c)) for c in kids]
    res_idx = taupush_query(
        g, leaf_sets, idx.leaf_dpr, ALPHA,
        gbp_index=idx.gbp_store, gbp_keys=keys,
    )
    res_live = taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA)
    assert res_idx.n_gbp_targets == res_live.n_gbp_targets >= 1
    # the stored column was built with the same sibling set and the same
    # Eq. (6) threshold, so the lookup reproduces the live GBP exactly
    np.testing.assert_allclose(res_idx.dppr, res_live.dppr, atol=1e-12)


def test_index_query_cheaper_than_live(yt):
    g, h, idx = yt
    hub = int(np.argmax(idx.leaf_dpr))
    sup1 = int(h.leaf_labels[1][hub])
    kids, leaf_sets = h.query_children_leafsets(1, sup1)
    keys = [(0, int(c)) for c in kids]
    b_idx, b_live = OpBudget(), OpBudget()
    taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_idx,
                  gbp_index=idx.gbp_store, gbp_keys=keys)
    taupush_query(g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_live)
    assert b_idx.ops < b_live.ops


def test_dpr_only_index_smaller(yt):
    g, h, idx = yt
    dpr_only = build_taupush_index(g, h, ALPHA, 25, include_gbp=False)
    assert dpr_only.nbytes < idx.nbytes
    assert dpr_only.nbytes == dpr_only.dpr_nbytes == idx.dpr_nbytes
    assert len(dpr_only.gbp_store) == 0


def test_index_size_reasonable(yt):
    """Index should be small relative to the graph (paper §7.4: the index
    is 'insignificant compared with the size of the input graph')."""
    g, _, idx = yt
    graph_bytes = g.indices.nbytes + g.indptr.nbytes
    assert idx.nbytes < 5 * graph_bytes
