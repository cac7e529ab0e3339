"""Spark-engine probe: one seeded TwEgo zoom query through taupush_query_spark.

A single Spark query on the 23-node TwEgo analog runs hundreds of Spark
jobs and takes 7-60 s, almost all of it job overhead, so the Spark engine
is too slow and too noisy for a timed workload. The probe runs inside a
traced run instead and reports counts (jobs, push calls, supersteps) that
repeat exactly, plus their timings.

The session is configured like ``jobs/_common.get_spark`` (Arrow on,
broadcast joins off, UI off), with ``local[nproc]`` and one shuffle
partition per core. Scratch files stay under the given output directory.
"""
from __future__ import annotations

import os
import shlex
import tempfile
import time

import numpy as np
from pyspark.sql import SparkSession

from repro import pprviz
from repro.core import taupush, taupush_spark
from repro.graphs.datasets import load_dataset
from workloads import zoom_path

SPARK_K = 5


def start_spark(tmp_dir, cores: int):
    """Local SparkSession whose JVM writes only under ``tmp_dir``."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # Python's gateway hand-off file, the launcher JVM and the driver JVM
    # all default to /tmp; point each of them into the checkout.
    tempfile.tempdir = str(tmp_dir)
    java_opts = f"-Djava.io.tmpdir={tmp_dir} -XX:-UsePerfData"
    os.environ["TMPDIR"] = str(tmp_dir)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp_dir)  # overrides spark.local.dir
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    spark = (
        SparkSession.builder.appName("pprbench")
        .master(f"local[{cores}]")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.local.dir", str(tmp_dir))
        .config("spark.sql.warehouse.dir", str(tmp_dir / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then close the JVM's stdin and wait for it to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=120)


def run_probe(tracer, seed: int, tmp_dir, cores: int) -> dict:
    """Run one seeded TwEgo query on both engines under ``tracer``.

    The query is the second step of a seeded zoom path (a level-2
    supernode), the cheapest level with more than one Spark dataflow.
    Returns the Spark-layer metrics and the engine difference.
    """
    t0 = time.perf_counter()
    spark = start_spark(tmp_dir, cores)
    session_start_s = time.perf_counter() - t0
    try:
        ds = load_dataset("TwEgo")
        g = ds.csr()
        edges = ds.edge_df(spark).cache()
        edges.count()
        model = pprviz.preprocess(g, SPARK_K, alpha=0.15)
        q = zoom_path(model.hierarchy, np.random.default_rng(seed))[1]
        _, leaf_sets = model.hierarchy.query_children_leafsets(*q)

        mark = len(tracer.spans)
        group = f"pprbench-{seed}"
        spark.sparkContext.setJobGroup(group, str(q))
        with tracer.span("core.taupush_spark") as sp:
            _, dppr_spark = taupush_spark.taupush_query_spark(
                spark, g, edges, leaf_sets, model.index.leaf_dpr, model.alpha
            )
        jobs = len(spark.sparkContext.statusTracker().getJobIdsForGroup(group))
        pushes = [s for s in tracer.spans[mark:] if s.name == "core.taupush_spark.push"]

        # Local engine, same schedule: its rounds are the Spark supersteps.
        mark = len(tracer.spans)
        local = taupush.taupush_query(g, leaf_sets, model.index.leaf_dpr, model.alpha)
        rounds = sum(
            s.rounds for s in tracer.spans[mark:]
            if s.name in ("pprlib.push.forward", "pprlib.push.backward")
        )
    finally:
        stop_spark(spark)
    if jobs == 0 or not pushes:
        raise RuntimeError("Spark probe saw no jobs or no push calls")
    return {
        "query": q,
        "session_start_s": session_start_s,
        "query_s": sp.dur,
        "jobs": jobs,
        "push_calls": len(pushes),
        "push_s": sum(s.dur for s in pushes),
        "supersteps": rounds,
        "engine_max_abs_diff": float(np.abs(dppr_spark - local.dppr).max()),
    }
