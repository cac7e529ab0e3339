"""Forward/Backward push kernels: invariants and accuracy."""
import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.pprlib.budget import OpBudget, OpBudgetExceeded
from repro.pprlib.push import backward_push, forward_push, random_walks

ALPHA = 0.15


def reference_push(g, residue, rmax, alpha, *, backward, max_rounds=None):
    """Per-node, per-arc frontier-synchronous push in pure Python.

    Returns (estimate, residue, rounds, ops, arcs pushed per round).
    """
    deg = g.out_deg.tolist()
    r = [float(x) for x in residue]
    est = [0.0] * g.n
    round_arcs = []
    while max_rounds is None or len(round_arcs) < max_rounds:
        if backward:
            front = [v for v in range(g.n) if r[v] > rmax]
        else:
            front = [v for v in range(g.n) if deg[v] > 0 and r[v] > deg[v] * rmax]
        if not front:
            break
        pushed = {v: r[v] for v in front}
        for v in front:
            est[v] += alpha * pushed[v]
            r[v] = 0.0
        arcs = 0
        for v in front:
            nbrs = g.in_neighbors(v) if backward else g.out_neighbors(v)
            for u in nbrs.tolist():
                r[u] += (1 - alpha) * pushed[v] / (deg[u] if backward else deg[v])
                arcs += 1
        round_arcs.append(arcs)
    return np.array(est), np.array(r), len(round_arcs), sum(round_arcs), round_arcs


def test_forward_push_invariant(tiny, tiny_exact_ppr):
    """Eq. (3): pi_d(s,t) = est(t) + sum_k r(k)/d(k) * pi_d(k,t)."""
    s = 0
    residue = np.zeros(tiny.n)
    residue[s] = tiny.out_deg[s]
    est, r, _ = forward_push(tiny, residue, rmax=0.1, alpha=ALPHA)
    dppr = tiny_exact_ppr * tiny.out_deg[:, None]
    deg = np.maximum(tiny.out_deg, 1.0)
    for t in range(tiny.n):
        recon = est[t] + sum(
            r[k] / deg[k] * dppr[k, t] for k in range(tiny.n)
        )
        assert recon == pytest.approx(dppr[s, t], abs=1e-10)


@pytest.mark.parametrize("rmax", [0.5, 0.05, 0.005])
def test_forward_push_error_decreases(fbego, fbego_exact_dppr, rmax):
    s = 1
    residue = np.zeros(fbego.n)
    residue[s] = fbego.out_deg[s]
    est, r, _ = forward_push(fbego, residue, rmax=rmax, alpha=ALPHA)
    err = np.abs(est - fbego_exact_dppr[s]).max()
    # error bounded by total remaining residue
    assert err <= r.sum() + 1e-12


def test_forward_push_converges_tight(fbego, fbego_exact_dppr):
    s = 2
    residue = np.zeros(fbego.n)
    residue[s] = fbego.out_deg[s]
    est, _, _ = forward_push(fbego, residue, rmax=1e-8, alpha=ALPHA)
    np.testing.assert_allclose(est, fbego_exact_dppr[s], atol=1e-4)


def test_forward_push_threshold_respected(fbego):
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    _, r, _ = forward_push(fbego, residue, rmax=0.01, alpha=ALPHA)
    assert (r <= fbego.out_deg * 0.01 + 1e-12).all()


def test_forward_push_mass_conservation(tiny):
    """alpha-converted estimate + remaining residue = initial residue mass
    under the (1-alpha) push split, summed over time: est_total/alpha*a..."""
    residue = np.zeros(tiny.n)
    residue[0] = tiny.out_deg[0]
    est, r, _ = forward_push(tiny, residue, rmax=1e-10, alpha=ALPHA)
    # est approximates DPPR row sum = d(0) (rows of PPR sum to 1)
    assert est.sum() == pytest.approx(tiny.out_deg[0], abs=1e-6)


def test_backward_push_invariant(tiny, tiny_exact_ppr):
    """pi(s,t) = est(s) + sum_k pi(s,k) r(k) (Backward-Push invariant)."""
    t = 3
    residue = np.zeros(tiny.n)
    residue[t] = 1.0
    est, r, _ = backward_push(tiny, residue, rmax_b=0.05, alpha=ALPHA)
    for s in range(tiny.n):
        recon = est[s] + float((tiny_exact_ppr[s] * r).sum())
        assert recon == pytest.approx(tiny_exact_ppr[s, t], abs=1e-10)


def test_backward_push_tight(fbego, fbego_exact_ppr):
    t = 0
    residue = np.zeros(fbego.n)
    residue[t] = 1.0
    est, _, _ = backward_push(fbego, residue, rmax_b=1e-8, alpha=ALPHA)
    np.testing.assert_allclose(est, fbego_exact_ppr[:, t], atol=1e-4)


def test_backward_push_threshold(fbego):
    residue = np.zeros(fbego.n)
    residue[5] = 1.0
    _, r, _ = backward_push(fbego, residue, rmax_b=0.01, alpha=ALPHA)
    assert (r <= 0.01 + 1e-12).all()


def _ring(n=64):
    u = np.arange(n)
    return CSRGraph.from_undirected(n, u, (u + 1) % n)


def _dangling():
    """Node 3 has in-arcs but no out-arcs; node 4 has no in-arcs."""
    src = np.array([0, 0, 1, 1, 2, 2, 4])
    dst = np.array([1, 2, 2, 3, 0, 3, 0])
    return CSRGraph(5, src, dst)


def _exact_kernel_case(g, seed, rmax, backward, max_rounds=None):
    residue = np.zeros(g.n)
    residue[seed] = 1.0 if backward else g.out_deg[seed]
    push = backward_push if backward else forward_push
    b = OpBudget()
    est, r, rounds = push(g, residue, rmax, ALPHA, budget=b, max_rounds=max_rounds)
    ref_est, ref_r, ref_rounds, ref_ops, round_arcs = reference_push(
        g, residue, rmax, ALPHA, backward=backward, max_rounds=max_rounds
    )
    np.testing.assert_allclose(est, ref_est, rtol=0, atol=1e-12)
    np.testing.assert_allclose(r, ref_r, rtol=0, atol=1e-12)
    assert rounds == ref_rounds
    assert b.ops == ref_ops
    return round_arcs


@pytest.mark.parametrize("backward", [False, True])
def test_kernel_matches_reference_full_arc_rounds(fbego, backward):
    """FbEgo from its hub: some rounds take the one-pass-over-all-arcs path."""
    hub = int(np.argmax(fbego.out_deg))
    round_arcs = _exact_kernel_case(fbego, hub, 1e-5, backward)
    assert max(round_arcs) > fbego.m // 4
    assert min(round_arcs) <= fbego.m // 4


@pytest.mark.parametrize("backward", [False, True])
def test_kernel_matches_reference_gather_rounds(backward):
    """A 64-ring from one node: every round gathers its frontier's slices."""
    g = _ring()
    round_arcs = _exact_kernel_case(g, 0, 1e-3, backward)
    assert len(round_arcs) > 5
    assert max(round_arcs) <= g.m // 4


@pytest.mark.parametrize("backward", [False, True])
def test_kernel_matches_reference_dangling(backward):
    _exact_kernel_case(_dangling(), 3 if backward else 4, 1e-4, backward)


@pytest.mark.parametrize("backward", [False, True])
def test_kernel_matches_reference_max_rounds(fbego, backward):
    hub = int(np.argmax(fbego.out_deg))
    assert len(_exact_kernel_case(fbego, hub, 1e-9, backward, max_rounds=4)) == 4


def test_push_budget_charged(fbego):
    b = OpBudget()
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    forward_push(fbego, residue, rmax=1e-4, alpha=ALPHA, budget=b)
    *_, ref_ops, _ = reference_push(fbego, residue, 1e-4, ALPHA, backward=False)
    assert b.ops == ref_ops


def test_push_budget_exceeded(fbego):
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    with pytest.raises(OpBudgetExceeded):
        forward_push(fbego, residue, rmax=1e-8, alpha=ALPHA, budget=OpBudget(5))


def test_max_rounds_limits(fbego):
    residue = np.zeros(fbego.n)
    residue[0] = fbego.out_deg[0]
    _, _, rounds = forward_push(fbego, residue, rmax=1e-9, alpha=ALPHA, max_rounds=3)
    assert rounds == 3


def test_random_walks_end_distribution(fbego, fbego_exact_ppr):
    """Walk terminals from s are distributed ~ pi(s, .)."""
    rng = np.random.default_rng(0)
    s = 0
    ends = random_walks(fbego, np.full(20000, s), ALPHA, rng)
    emp = np.bincount(ends, minlength=fbego.n) / 20000
    assert np.abs(emp - fbego_exact_ppr[s]).max() < 0.02


def test_random_walks_budget(fbego):
    rng = np.random.default_rng(0)
    b = OpBudget()
    random_walks(fbego, np.zeros(100, dtype=np.int64), ALPHA, rng, budget=b)
    assert b.ops >= 100  # at least one step per walk
