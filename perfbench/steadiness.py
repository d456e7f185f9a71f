"""Two sets of benchmark runs of one commit, to set and test bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--out FILE]

Run from the root of a checkout.  Every workload of ``BENCHMARK.json`` runs
for its ``run_seconds``.  Runs alternate between workloads (one run of each,
then the next seed), each with its own seed.  For every workload
and end-to-end metric it prints, per set, the median, the quartiles and the
spread (Q3 - Q1) / median, and the change of the median from the first set,
signed so that positive is worse, and the largest spread as a share of its
bound.  Every run's result is written to the
``--out`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return dict(result, workload=workload, seed=seed, wall_s=wall)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(ROOT / ".perfbench_out" / "steadiness.json"))
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for s in range(SETS):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                r = one_run(w, seed, seconds)
                r["set"] = s
                runs.append(r)
                print(f"set {s} {w:6s} seed {seed:3d}: {r['wall_s']:5.1f} s "
                      f"correct={r['correct']} {r['failed']}/{r['attempted']} failed",
                      file=sys.stderr, flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    worst = 0.0
    for w in workloads:
        print(f"\n{w}   (wall per run: median "
              f"{statistics.median(r['wall_s'] for r in runs if r['workload'] == w):.1f} s)")
        print(f"  {'metric':18s} {'bound':>5s}  " + "  ".join(
            f"{'set ' + str(s) + ' median [q1, q3] spread':>40s}" for s in range(SETS))
            + "  change")
        for name, m in metrics.items():
            sets = [summarise([r["metrics"][name]["value"] for r in runs
                               if r["workload"] == w and r["set"] == s])
                    for s in range(SETS)]
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (sets[-1]["median"] / sets[0]["median"] - 1.0)
            worst = max(worst, *(x["spread"] / m["bound"] for x in sets))
            cells = "  ".join(f"{x['median']:12.5g} [{x['q1']:.5g}, {x['q3']:.5g}] "
                              f"{x['spread']:6.3f}" for x in sets)
            print(f"  {name:18s} {m['bound']:5.2f}  {cells}  {change:+.3f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs if r["workload"] == w})
        print(f"  failed share per run: {shares}")
    print(f"\nlargest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
