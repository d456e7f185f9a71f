"""Benchmark of tokmri: training, batch evaluation and per-scan line decisions.

    python3 perfbench/run.py --workload {train,run,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs go to ``.perfbench_out/<workload>/``, with every operation's CPU and
wall time in ``ops.json`` there, and spans to
``.perfbench_trace/<workload>.jsonl``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; set before NumPy loads, inherited by the child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACE = ROOT / ".perfbench_trace"


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tokmri" / "__init__.py").is_file():
        print(f"perfbench: no tokmri package under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from tracing import OVERHEAD, WALL_CPU, Tracer, per_layer_metrics
    from workloads import Bench

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    bench = Bench(args.workload, args.seed, args.seconds, out_dir)
    tracer = Tracer() if args.trace else None
    bench.run(tracer)
    bench.check_outputs()

    if tracer is None:
        metrics = bench.end_to_end()
    else:
        values = tracer.layer_values(bench.weights())
        values[OVERHEAD] = bench.overhead()
        values[WALL_CPU] = bench.wall_cpu_ratio()
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in per_layer_metrics()}
        tracer.write(TRACE / f"{args.workload}.jsonl",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": bench.rounds, "traced_rounds": len(bench.traced_round_s),
                      "weights": bench.weights(),
                      "metrics": {k: v["value"] for k, v in metrics.items()}})

    (out_dir / "ops.json").write_text(json.dumps(bench.ops, indent=0) + "\n",
                                      encoding="utf-8")
    for message in bench.chk.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not bench.chk.failures, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
