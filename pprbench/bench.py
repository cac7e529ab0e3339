"""Timed and traced runs of one workload, and the metrics they report."""
from __future__ import annotations

import math
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import pyspark

import spark_probe
from spans import Tracer, wrapper_cost_s
from workloads import (
    Outcome,
    reference_check,
    run_units,
    setup,
    zoom_path,
)

MIN_QUERIES = 100  # p90 needs at least ten samples beyond it
CORES = len(os.sched_getaffinity(0))  # nproc


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _result(out: Outcome, metrics: dict, extra_attempted: int = 0) -> dict:
    return {
        "correct": not out.failures,
        "attempted": out.attempted + extra_attempted,
        "failed": len(out.failures),
        "metrics": metrics,
    }


def _warm_up(model, seed: int) -> None:
    """One untimed deep query, so lazy imports and first calls are paid."""
    q = zoom_path(model.hierarchy, np.random.default_rng([seed, 2]))[-1]
    model.query(*q)


def _fingerprint(out: Outcome, model) -> dict:
    return {
        "queries": out.attempted,
        "distinct_queries": len(set(out.queries)),
        "children_total": int(sum(out.children)),
        "levels": model.hierarchy.n_levels,
    }


# -- timed run: end-to-end metrics -----------------------------------------
def timed_run(w, seed: int, seconds: float):
    """End-to-end metrics of one closed-loop run; returns (result, meta)."""
    setups = []
    for _ in range(w.setup_reps):
        model, secs = setup(w)
        setups.append(secs)
    _warm_up(model, seed)
    out = Outcome()
    units = w.units(model, np.random.default_rng(seed))
    t0 = time.perf_counter()
    run_units(
        model, units, out, deadline=t0 + seconds, min_queries=MIN_QUERIES,
        sample=w.check_sample, rng=np.random.default_rng([seed, 1]),
    )
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst = reference_check(model, out)
    if not out.latencies:
        raise RuntimeError("no query succeeded: " + "; ".join(out.failures.values()))
    lat_ms = [1000.0 * x for x in out.latencies]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "query_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "query_p90_ms": _metric(float(np.percentile(lat_ms, 90)), "ms"),
        "query_mean_ms": _metric(float(np.mean(lat_ms)), "ms"),
        "index_bytes": _metric(int(model.index.nbytes), "B"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
    }
    meta = {
        "mode": "timed",
        "failed_frac": len(out.failures) / out.attempted,
        "failures": list(out.failures.values())[:10],
        "setup_runs_s": setups,
        "measured_wall_s": wall,
        "check_err_over_bound_max": worst,
        "checked_queries": len(out.kept),
        "workload": _fingerprint(out, model),
    }
    return _result(out, metrics), meta


# -- traced run: per-layer metrics -----------------------------------------
def _push_metrics(tracer: Tracer, prefix: str, span: str, query: bool) -> dict:
    spans = tracer.select(span, query=query)
    secs = sum(s.dur for s in spans)
    arcs = sum(s.arcs for s in spans)
    return {
        f"{prefix}_calls": _metric(len(spans), "count"),
        f"{prefix}_s": _metric(secs, "s"),
        f"{prefix}_rounds": _metric(sum(s.rounds for s in spans), "count"),
        f"{prefix}_arcs": _metric(arcs, "count"),
        f"{prefix}_arcs_per_s": _metric(arcs / secs if secs > 0 else 0.0, "1/s"),
    }


def _below_tau(model, out: Outcome) -> int:
    """Queries whose children all have DPR below Alg. 1's tau = 1/sqrt(kn)."""
    h, dpr = model.hierarchy, model.index.leaf_dpr
    count = 0
    for q in out.queries:
        _, leaf_sets = h.query_children_leafsets(*q)
        tau = 1.0 / math.sqrt(len(leaf_sets) * model.g.n)
        if max(dpr[fs].mean() for fs in leaf_sets) < tau:
            count += 1
    return count


def _require(tracer: Tracer, out: Outcome) -> None:
    """A layer the pipeline must pass through may not report zero calls."""
    n_ok = len(out.latencies)
    expected = [  # (span, in a query?, calls)
        ("hierarchy.build", False, 1),
        ("core.index.build", False, 1),
        ("pprlib.dpr.build", False, 1),
        ("pprviz.query", True, out.attempted),
        ("hierarchy.children", True, out.attempted),
        ("core.taupush", True, out.attempted),
        ("core.pdist", True, n_ok),
        ("layout.stress", True, n_ok),
    ]
    for name, query, n in expected:
        seen = len(tracer.select(name, query=query))
        if seen != n:
            raise RuntimeError(f"traced layer {name}: {seen} calls, expected {n}")
    if not tracer.select("pprlib.push.forward", query=True):
        raise RuntimeError("traced layer pprlib.push.forward: no calls")


def traced_run(w, seed: int, out_dir: Path):
    """Per-layer metrics of a fixed-length traced run and the Spark probe;
    returns (result, meta, spans)."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        model, _ = setup(w, tracer)
        out = Outcome()
        units = w.units(model, np.random.default_rng(seed))
        run_units(
            model, units, out, n_units=w.trace_units, sample=w.check_sample,
            rng=np.random.default_rng([seed, 1]), tracer=tracer,
        )
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    worst = reference_check(model, out)
    _require(tracer, out)

    q_spans = tracer.select("pprviz.query", query=True)
    live = tracer.select("core.gbp.live", query=True)
    live_by_q = {}
    for s in live:
        live_by_q[s.qid] = live_by_q.get(s.qid, 0) + 1
    hits = sum(max(0, t - live_by_q.get(i, 0)) for i, t in enumerate(out.gbp_targets))
    idx = model.index
    m = {
        "graphs.build_s": _metric(tracer.total("graphs.build"), "s"),
        "hierarchy.build_s": _metric(tracer.total("hierarchy.build"), "s"),
        "hierarchy.levels": _metric(model.hierarchy.n_levels, "count"),
        "hierarchy.children_s": _metric(tracer.total("hierarchy.children", query=True), "s"),
        "pprlib.dpr.build_s": _metric(tracer.total("pprlib.dpr.build"), "s"),
        "core.index.build_s": _metric(tracer.total("core.index.build"), "s"),
        "core.index.entries": _metric(len(idx.gbp_store), "count"),
        "core.index.build_ops": _metric(int(idx.build_ops), "count"),
        "core.index.gbp_calls": _metric(len(tracer.select("core.index.gbp")), "count"),
        "core.index.gbp_s": _metric(tracer.total("core.index.gbp"), "s"),
    }
    m.update(_push_metrics(tracer, "setup.pprlib.push.backward", "pprlib.push.backward", False))
    m.update(_push_metrics(tracer, "query.pprlib.push.forward", "pprlib.push.forward", True))
    # Backward push at query time is expected never to run, so only its
    # counts are reported: a time that always reads 0 measures nothing.
    m.update({
        k: v for k, v in
        _push_metrics(tracer, "query.pprlib.push.backward", "pprlib.push.backward", True).items()
        if v["unit"] == "count"
    })
    m.update({
        "core.gfp.calls": _metric(len(tracer.select("core.gfp", query=True)), "count"),
        "core.gfp.s": _metric(tracer.total("core.gfp", query=True), "s"),
        "core.gfp.self_s": _metric(tracer.total("core.gfp", query=True, self_time=True), "s"),
        "core.gbp.live_calls": _metric(len(live), "count"),
        "core.taupush.s": _metric(tracer.total("core.taupush", query=True), "s"),
        "core.taupush.self_s": _metric(
            tracer.total("core.taupush", query=True, self_time=True), "s"),
        "core.taupush.ops_per_query_p50": _metric(int(np.median(out.ops)), "count"),
        "core.taupush.ops_per_query_max": _metric(int(max(out.ops)), "count"),
        "core.taupush.gbp_targets": _metric(int(sum(out.gbp_targets)), "count"),
        "core.taupush.index_hits": _metric(int(hits), "count"),
        "core.taupush.index_misses": _metric(len(live), "count"),
        "core.taupush.queries_below_tau": _metric(_below_tau(model, out), "count"),
        "core.pdist.s": _metric(tracer.total("core.pdist", query=True), "s"),
        "layout.stress.s": _metric(tracer.total("layout.stress", query=True), "s"),
        "pprviz.query_s": _metric(sum(s.dur for s in q_spans), "s"),
        "pprviz.query_self_s": _metric(sum(s.self_s for s in q_spans), "s"),
    })

    probe_tracer = Tracer()
    probe_tracer.install()
    try:
        spark = spark_probe.run_probe(probe_tracer, seed, out_dir / "spark", CORES)
    finally:
        probe_tracer.uninstall()
    if not spark["engine_max_abs_diff"] <= 1e-9:
        out.failures["spark"] = (
            f"Spark DPPR differs from local by {spark['engine_max_abs_diff']:.3g}"
        )
    m.update({
        "core.taupush_spark.jobs_per_query": _metric(spark["jobs"], "count"),
        "core.taupush_spark.push_calls_per_query": _metric(spark["push_calls"], "count"),
        "core.taupush_spark.supersteps_per_query": _metric(spark["supersteps"], "count"),
        "core.taupush_spark.push_s": _metric(spark["push_s"], "s"),
        "core.taupush_spark.s_per_job": _metric(spark["query_s"] / spark["jobs"], "s"),
        "core.taupush_spark.session_start_s": _metric(spark["session_start_s"], "s"),
        "check.err_over_bound_max": _metric(worst, "ratio"),
        "check.engine_max_abs_diff": _metric(spark["engine_max_abs_diff"], "dppr"),
        "trace.overhead_frac": _metric(
            len(tracer.spans) * wrapper_cost_s() / traced_wall, "ratio"),
    })
    fp = _fingerprint(out, model)
    meta = {
        "mode": "traced",
        "failed_frac": len(out.failures) / max(1, out.attempted),
        "failures": list(out.failures.values())[:10],
        "spans": len(tracer.spans),
        "spark_probe_query": str(spark["query"]),
        "workload": fp,
    }
    return _result(out, m, extra_attempted=1), meta, tracer.dump()


# -- run metadata ------------------------------------------------------------
def _git_sha(root: Path) -> str:
    """HEAD commit read from .git inside the checkout; 'unknown' without one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata(root: Path, args, thread_vars) -> dict:
    return {
        "workload_name": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cores_used": CORES,
        "blas_threads": {v: os.environ.get(v) for v in thread_vars},
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": f"local[{CORES}]" if args.trace else None,
        "spark_shuffle_partitions": CORES if args.trace else None,
        "min_queries": MIN_QUERIES,
        "exact_metrics": "units count and B: exact, repeat for a seed",
        "timing_metrics": "units s, ms, 1/s and ratio: wall-clock timings",
    }
