"""Steadiness self-check: repeat each workload over several seeds and report
the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py                         # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workload verify1d

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4).  A metric is flagged when its
spread exceeds its bound in BENCHMARK.json, and marked "tight" when the
spread exceeds a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="also write every run's result and the summary as JSON")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    summary = {}
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        summary[name] = {"runs": [], "end_to_end": {}}
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            summary[name]["runs"].append({"seed": seed, **res})
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds)
                + f"  correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                flush=True)
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > bounds[m]:
                verdict, flagged = "FLAGGED", flagged + 1
            elif spread > bounds[m] / 3:
                verdict = "tight"
            summary[name]["end_to_end"][m] = {"median": med, "q1": q1, "q3": q3,
                                              "spread": spread, "verdict": verdict}
            print(f"  {name} {m}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[m]}  {verdict}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
