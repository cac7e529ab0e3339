"""PPRviz benchmark: one closed-loop client per workload, checked outputs.

Usage (from the repository root):

    python3 pprbench/run.py --workload zoom-twitter --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of query units with every layer wrapped and prints the per-layer
metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded BLAS, like the paper's single-thread timing set-up; set
# before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench  # needs the program on sys.path
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        result, meta, spans = bench.traced_run(w, args.seed, OUT_DIR)
        trace_file = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(spans))
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        result, meta = bench.timed_run(w, args.seed, args.seconds)
    meta.update(bench.run_metadata(ROOT, args, THREAD_VARS))

    for name, m in result["metrics"].items():
        print(f"{w.name:>14} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
