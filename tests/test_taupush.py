"""Tau-Push (Algorithm 1) end-to-end accuracy and behaviour."""
import math

import numpy as np
import pytest

from repro.core import taupush as taupush_mod
from repro.core.pdist import level_dppr_exact, pdist_matrix
from repro.core.taupush import (
    child_dprs,
    gfp_taumax_query,
    taupush_params,
    taupush_query,
)
from repro.graphs.datasets import load_dataset
from repro.hierarchy import build_hierarchy
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.dpr import dpr_vector_local
from repro.pprlib.power_iteration import exact_dppr_matrix
from tests.conftest import all_queries

ALPHA = 0.15
EPS = 1.0 - 1.0 / math.e


@pytest.fixture(scope="module")
def setting(fbego, fbego_exact_dppr):
    h = build_hierarchy(fbego, 10, seed=0)
    kids, leaf_sets = h.query_children_leafsets(h.n_levels + 1, None)
    dpr = dpr_vector_local(fbego, ALPHA)
    exact = level_dppr_exact(fbego_exact_dppr, leaf_sets)
    return fbego, leaf_sets, dpr, exact


def _assert_eps_delta(dppr, exact, eps, delta):
    """Theorem 4.3: every off-diagonal entry within Definition 3.5 bounds."""
    k = len(exact)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            bound = eps * delta if exact[i, j] < delta else eps * exact[i, j]
            assert abs(dppr[i, j] - exact[i, j]) <= bound + 1e-12, (i, j)


def test_theorem43_accuracy(setting):
    g, leaf_sets, dpr, exact = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    delta = 1.0 / (10 * len(leaf_sets))
    _assert_eps_delta(res.dppr, exact, EPS, delta)


def test_pdist_conversion(setting):
    g, leaf_sets, dpr, exact = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    np.testing.assert_allclose(res.pdist, pdist_matrix(res.dppr, g.n))


def _hub_query(h, dpr):
    """Leaf sets of the level-1 cluster holding the highest-DPR leaf."""
    sup1 = int(h.leaf_labels[1][int(np.argmax(dpr))])
    return h.query_children_leafsets(1, sup1)[1]


def test_params_formulas(setting, youtube25):
    """tau = min(1/sqrt(kn), 4 max_j tau_j): the Youtube root query is
    clamped; the FbEgo root query (max_j tau_j = 1/(2 sqrt(kn))) and the
    Youtube hub query (a child above 1/sqrt(kn)) keep 1/sqrt(kn)."""
    g, leaf_sets, dpr, _ = setting
    k = len(leaf_sets)
    delta = 1.0 / (10 * k)
    tau, rmax, rmax_b = taupush_params(g, leaf_sets, dpr, EPS, delta)
    assert 1.0 / math.sqrt(k * g.n) == pytest.approx(0.0490, abs=1e-4)
    assert max(dpr[fs].mean() for fs in leaf_sets) == pytest.approx(0.0245, abs=1e-4)
    assert tau == pytest.approx(1.0 / math.sqrt(k * g.n))
    assert rmax == pytest.approx(EPS * delta / (g.m * tau))
    dmax = max(g.out_deg[fs].mean() for fs in leaf_sets)
    assert rmax_b == pytest.approx(EPS * delta / dmax)

    g, h, idx = youtube25
    for leaf_sets, clamped in [
        (h.query_children_leafsets(h.n_levels + 1, None)[1], True),
        (_hub_query(h, idx.leaf_dpr), False),
    ]:
        k = len(leaf_sets)
        delta = 1.0 / (10 * k)
        tau, rmax, _ = taupush_params(g, leaf_sets, idx.leaf_dpr, EPS, delta)
        tau_max = max(idx.leaf_dpr[fs].mean() for fs in leaf_sets)
        if clamped:
            assert 4 * tau_max < 1.0 / math.sqrt(k * g.n)
            assert tau == pytest.approx(4 * tau_max)
        else:
            assert tau_max > 1.0 / math.sqrt(k * g.n)
            assert tau == pytest.approx(1.0 / math.sqrt(k * g.n))
        assert rmax == pytest.approx(EPS * delta / (g.m * tau))


def test_gfp_taumax_accuracy(setting):
    g, leaf_sets, dpr, exact = setting
    res = gfp_taumax_query(g, leaf_sets, dpr, ALPHA)
    delta = 1.0 / (10 * len(leaf_sets))
    _assert_eps_delta(res.dppr, exact, EPS, delta)
    assert res.n_gbp_targets == 0


def test_budget_respected(setting):
    g, leaf_sets, dpr, _ = setting
    with pytest.raises(OpBudgetExceeded):
        taupush_query(g, leaf_sets, dpr, ALPHA, budget=OpBudget(5))


def test_result_metadata(setting):
    g, leaf_sets, dpr, _ = setting
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    k = len(leaf_sets)
    assert res.pdist.shape == (k, k)
    assert res.ops > 0
    assert (np.diag(res.pdist) == 0).all()
    off = res.pdist[~np.eye(k, dtype=bool)]
    assert (off >= 2.0).all() and (off <= 2 * math.log(g.n) + 1e-12).all()


def test_gbp_triggers_on_hub_cluster():
    """On the skewed Youtube analog, the hub's level-1 cluster must have a
    GBP-refined target (the filter-refinement actually fires)."""
    g = load_dataset("Youtube").csr()
    h = build_hierarchy(g, 25, seed=0)
    dpr = dpr_vector_local(g, ALPHA)
    hub = int(np.argmax(dpr))
    sup1 = int(h.leaf_labels[1][hub])
    _, leaf_sets = h.query_children_leafsets(1, sup1)
    res = taupush_query(g, leaf_sets, dpr, ALPHA)
    assert res.n_gbp_targets >= 1


@pytest.fixture(
    scope="module",
    params=[(name, k) for name in ("FbEgo", "TwEgo") for k in (5, 10, 25)],
    ids=lambda p: f"{p[0]}-k{p[1]}",
)
def small_hierarchy(request):
    """Every query of a small graph's hierarchy, with its exact DPPR."""
    name, k = request.param
    g = load_dataset(name).csr()
    h = build_hierarchy(g, k, seed=0)
    dpr = dpr_vector_local(g, ALPHA)
    exact = exact_dppr_matrix(g, ALPHA)
    return g, dpr, exact, [leaf_sets for _, leaf_sets in all_queries(h)]


def test_every_query_within_definition35(small_hierarchy):
    """Lemma 4.1 still bounds every query after clamping tau."""
    g, dpr, exact, queries = small_hierarchy
    for leaf_sets in queries:
        res = taupush_query(g, leaf_sets, dpr, ALPHA)
        delta = 1.0 / (10 * len(leaf_sets))
        _assert_eps_delta(res.dppr, level_dppr_exact(exact, leaf_sets), EPS, delta)


def _is_clamped(g, leaf_sets, dpr):
    tau_max = max(max(dpr[fs].mean() for fs in leaf_sets), 1.0 / g.n)
    return 4 * tau_max < 1.0 / math.sqrt(len(leaf_sets) * g.n)


def _assert_same_as_gfp_taumax(g, leaf_sets, dpr):
    b_tp, b_gfp = OpBudget(), OpBudget()
    tp = taupush_query(g, leaf_sets, dpr, ALPHA, budget=b_tp)
    ref = gfp_taumax_query(g, leaf_sets, dpr, ALPHA, eps=EPS / 4, budget=b_gfp)
    assert tp.tau == 4 * ref.tau and tp.rmax == ref.rmax
    assert tp.n_gbp_targets == 0
    assert b_tp.ops == b_gfp.ops
    np.testing.assert_array_equal(tp.dppr, ref.dppr)


def test_clamped_queries_equal_gfp_taumax(small_hierarchy):
    """When every child is below 1/(4 sqrt(kn)), Tau-Push is GFP(tau_max)
    run at eps/4."""
    g, dpr, _, queries = small_hierarchy
    clamped = [ls for ls in queries if _is_clamped(g, ls, dpr)]
    for leaf_sets in clamped:
        _assert_same_as_gfp_taumax(g, leaf_sets, dpr)


def test_clamped_youtube_queries_equal_gfp_taumax(youtube25):
    """Same on the benchmark graph, for its queries above level 2 (the
    level-1 and level-2 queries run the same code on ~800x the pushes)."""
    g, h, idx = youtube25
    upper = [ls for keys, ls in all_queries(h) if keys[0][0] >= 2]
    assert len(upper) > 200
    for leaf_sets in upper:
        assert _is_clamped(g, leaf_sets, idx.leaf_dpr)
        _assert_same_as_gfp_taumax(g, leaf_sets, idx.leaf_dpr)


@pytest.fixture(scope="module")
def youtube_refined(youtube25):
    """Every Youtube k=25 query with a child above 1/sqrt(kn): its Tau-Push
    result (index-served) and ops, GFP(tau_max)'s ops, and live GBP calls."""
    g, h, idx = youtube25
    gbp, live = taupush_mod.gbp, []

    def counting_gbp(*args, **kwargs):
        live.append(1)
        return gbp(*args, **kwargs)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(taupush_mod, "gbp", counting_gbp)
        for keys, leaf_sets in all_queries(h):
            tau = 1.0 / math.sqrt(len(leaf_sets) * g.n)
            if child_dprs(idx.leaf_dpr, leaf_sets).max() <= tau:
                continue
            b_tp, b_gfp = OpBudget(), OpBudget()
            res = taupush_query(
                g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_tp,
                gbp_index=idx.gbp_store, gbp_keys=keys,
            )
            gfp_taumax_query(g, leaf_sets, idx.leaf_dpr, ALPHA, budget=b_gfp)
            out.append((res, b_tp.ops, b_gfp.ops))
    return out, len(live)


def test_unclamped_queries_keep_paper_params(youtube25, youtube_refined):
    """Where a child reaches 1/(4 sqrt(kn)), tau, rmax, rmax_b and the GBP
    targets are the paper's; where GBP fires, the index serves every target."""
    g, h, idx = youtube25
    unclamped = [ls for _, ls in all_queries(h) if not _is_clamped(g, ls, idx.leaf_dpr)]
    assert len(unclamped) > 100
    for leaf_sets in unclamped:
        k = len(leaf_sets)
        tau = 1.0 / math.sqrt(k * g.n)
        delta = 1.0 / (10 * k)
        dmax = max(g.out_deg[fs].mean() for fs in leaf_sets)
        assert taupush_params(g, leaf_sets, idx.leaf_dpr, EPS, delta) == (
            tau, pytest.approx(EPS * delta / (g.m * tau)),
            pytest.approx(EPS * delta / dmax),
        )
    refined, live_gbp_calls = youtube_refined
    assert len(refined) >= 20
    assert all(res.n_gbp_targets >= 1 for res, _, _ in refined)
    assert live_gbp_calls == 0


def test_taupush_ops_at_most_gfp_taumax(youtube_refined):
    """Where GBP fires (a child above 1/sqrt(kn)), Tau-Push costs no more
    than GFP(tau_max) on the benchmark's Youtube k=25 hierarchy: the
    filter-refinement pays for itself. Not a theorem: frontier-synchronous
    push ops are not monotone in rmax, and two level-1 queries of the
    Youtube k=10 hierarchy cost up to 1.4% more than GFP(tau_max)."""
    refined, _ = youtube_refined
    for _, tp_ops, gfp_ops in refined:
        assert tp_ops <= gfp_ops


def test_taupush_bottom_query_accuracy(fbego, fbego_exact_dppr):
    """Bottom-level query: children are individual leaves."""
    leaf_sets = [np.array([i]) for i in [0, 1, 2, 3, 4]]
    dpr = dpr_vector_local(fbego, ALPHA)
    res = taupush_query(fbego, leaf_sets, dpr, ALPHA)
    exact = fbego_exact_dppr[np.ix_([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])]
    delta = 1.0 / (10 * 5)
    _assert_eps_delta(res.dppr, exact, EPS, delta)


def test_tiny_graph_all_levels(tiny, tiny_exact_ppr):
    exact_dppr = tiny_exact_ppr * tiny.out_deg[:, None]
    leaf_sets = [np.array([0, 1, 2]), np.array([3, 4, 5])]
    dpr = dpr_vector_local(tiny, ALPHA)
    res = taupush_query(tiny, leaf_sets, dpr, ALPHA)
    exact = level_dppr_exact(exact_dppr, leaf_sets)
    _assert_eps_delta(res.dppr, exact, EPS, 1.0 / 20)
