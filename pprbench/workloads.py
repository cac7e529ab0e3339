"""The benchmark's workloads: set-up, seeded query streams, closed-loop runs.

Every workload is one client in one process: the next query is sent only
after the previous one returns. Queries are drawn by the benchmark from
its own seed; the program only sees (parent_level, supernode) requests.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import pprviz
from repro.experiments.efficiency import ALPHA, RESPONSE_OP_BUDGET
from repro.graphs.datasets import load_dataset
from repro.pprlib.budget import OpBudget

from check import check_response, err_over_bound, reference_level_dppr

Query = tuple  # (parent_level, supernode id or None for the root)


# -- query streams ---------------------------------------------------------
def zoom_path(h, rng: np.random.Generator, decks: dict | None = None) -> list:
    """Root query, then a random child at each level down to level 1.

    The benchmark's own walk over ``query_children_leafsets``: each entry
    asks to draw the children of the supernode picked one step earlier.
    Each supernode deals its children from a seeded shuffled deck that
    ``decks`` keeps across the paths of a run. Every single step is still
    a uniform pick, but repeated visits spread over all children, so the
    query mix of a run varies less from seed to seed.
    """
    decks = {} if decks is None else decks
    level, sup = h.n_levels + 1, None
    path = [(level, sup)]
    while level > 1:
        deck = decks.get((level, sup))
        if not deck:
            kids, _ = h.query_children_leafsets(level, sup)
            deck = decks[(level, sup)] = [int(c) for c in rng.permutation(kids)]
        sup = deck.pop()
        level -= 1
        path.append((level, sup))
    return path


def hub_queries(h, leaf_dpr: np.ndarray) -> list:
    """Every query with a child whose mean leaf DPR exceeds tau = 1/sqrt(kn).

    Computed from the DPR vector and the hierarchy alone (not from the
    index): supernode DPR per level, then the parents of the hubs.
    """
    tau = 1.0 / math.sqrt(h.k * h.n)
    out = set()
    for level in range(h.n_levels + 1):
        lab = h.leaf_labels[level]
        n_sup = h.n_supernodes(level)
        taus = np.bincount(lab, weights=leaf_dpr, minlength=n_sup) / np.maximum(
            np.bincount(lab, minlength=n_sup), 1
        )
        hubs = np.flatnonzero(taus > tau)
        if not len(hubs):
            continue
        if level == h.n_levels:
            out.add((level + 1, None))
        else:
            out.update((level + 1, int(p)) for p in h.parent_labels(level)[hubs])
    return sorted(out, key=lambda q: (q[0], -1 if q[1] is None else q[1]))


def zoom_units(model, rng) -> Iterator[list]:
    decks = {}
    while True:
        yield zoom_path(model.hierarchy, rng, decks)


def hub_units(model, rng) -> Iterator[list]:
    qs = hub_queries(model.hierarchy, model.index.leaf_dpr)
    if not qs:
        raise RuntimeError("hub workload: no query has a child above tau")
    while True:
        yield [qs[i] for i in rng.permutation(len(qs))]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    k: int
    units: Callable  # (model, rng) -> iterator of query lists
    setup_reps: int  # set-ups per run; setup_s is their median
    trace_units: int  # units in the traced run (fixed, so counts repeat)
    check_sample: int  # responses per run checked against the reference


WORKLOADS = {
    w.name: w
    for w in [
        Workload(name="zoom-youtube", dataset="Youtube", k=25, units=zoom_units,
                 setup_reps=3, trace_units=15, check_sample=2),
        Workload(name="hub-youtube", dataset="Youtube", k=25, units=hub_units,
                 setup_reps=3, trace_units=4, check_sample=2),
        # Not in BENCHMARK.json: one run needs ~30 s of set-up and ~60 s of
        # queries to be steady. Kept to reproduce the ROADMAP baseline.
        Workload(name="zoom-twitter", dataset="Twitter", k=25, units=zoom_units,
                 setup_reps=1, trace_units=3, check_sample=1),
    ]
}


# -- set-up and queries ----------------------------------------------------
def setup(w: Workload, tracer=None):
    """Dataset generation + CSR + ``pprviz.preprocess``; returns (model, s)."""
    t0 = time.perf_counter()
    with tracer.span("graphs.build") if tracer else nullcontext():
        load_dataset.cache_clear()  # time generation on every set-up
        g = load_dataset(w.dataset).csr()
    model = pprviz.preprocess(g, w.k, alpha=ALPHA)
    return model, time.perf_counter() - t0


@dataclass
class Outcome:
    """What one run observed: latencies, failures and kept responses."""

    latencies: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # query index -> reason
    queries: list = field(default_factory=list)
    children: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    gbp_targets: list = field(default_factory=list)
    kept: dict = field(default_factory=dict)  # query index -> dppr

    @property
    def attempted(self) -> int:
        return len(self.queries)


def run_query(model, q: Query, idx: int, out: Outcome, tracer=None, keep=False) -> None:
    """Send one query, time it, check the response, record the outcome."""
    budget = OpBudget(RESPONSE_OP_BUDGET)
    out.queries.append(q)
    if tracer is not None:
        tracer.qid = idx
    try:
        t0 = time.perf_counter()
        with tracer.span("pprviz.query") if tracer else nullcontext():
            X, res = model.query(q[0], q[1], budget=budget, return_result=True)
        dt = time.perf_counter() - t0
    except Exception as exc:  # a failed query is counted, not fatal
        out.failures[idx] = f"{q}: {type(exc).__name__}: {exc}"
        res = None
    finally:
        if tracer is not None:
            tracer.qid = -1
    k = len(model.hierarchy.query_children_leafsets(*q)[0])
    out.children.append(k)
    out.ops.append(budget.ops)
    out.gbp_targets.append(res.n_gbp_targets if res is not None else 0)
    if res is None:
        return
    out.latencies.append(dt)
    reason = check_response(X, res.pdist, k, model.g.n)
    if reason is not None:
        out.failures[idx] = f"{q}: {reason}"
    elif keep:
        out.kept[idx] = res.dppr


def run_units(model, units: Iterator[list], out: Outcome, *, n_units=None,
              deadline=None, min_queries=0, sample=0, rng=None, tracer=None) -> None:
    """Closed loop over whole units until ``n_units`` ran, or until
    ``deadline`` passed with at least ``min_queries`` sent.

    Whole units (a zoom path, a pass over the hub set) keep the query mix
    of a run independent of where the clock stops. The first unit's
    responses at ``sample`` seeded positions are kept for the reference
    check.
    """
    done = 0
    while True:
        unit = next(units)
        keep = set()
        if done == 0 and sample:
            keep = set(rng.choice(len(unit), size=min(sample, len(unit)), replace=False).tolist())
        for pos, q in enumerate(unit):
            run_query(model, q, out.attempted, out, tracer=tracer, keep=pos in keep)
        done += 1
        if n_units is not None and done >= n_units:
            return
        if (deadline is not None and time.perf_counter() >= deadline
                and out.attempted >= min_queries):
            return


def reference_check(model, out: Outcome) -> float:
    """Worst |est - exact| / bound over the kept responses; failures recorded."""
    g, h = model.g, model.hierarchy
    eps = 1.0 - 1.0 / math.e
    worst = 0.0
    for idx, dppr in sorted(out.kept.items()):
        q = out.queries[idx]
        _, leaf_sets = h.query_children_leafsets(*q)
        delta = 1.0 / (10.0 * max(1, len(leaf_sets)))
        exact = reference_level_dppr(
            g.indptr, g.indices, g.n, leaf_sets, model.alpha, tail=1e-4 * eps * delta
        )
        ratio = err_over_bound(dppr, exact, eps, delta)
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            out.failures.setdefault(idx, f"{q}: DPPR error {ratio:.3f} x the (eps, delta) bound")
    return worst

