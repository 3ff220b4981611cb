"""Benchmark of the weakkam pipeline, measured from outside the package.

    python3 perfbench/run.py --workload pipeline2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Each workload runs in its own fresh single-threaded process (BLAS/OpenMP
pinned to one thread): a closed loop, one client, one op at a time, passes
repeated while the next is expected to end within --seconds (at least one
pass).  Every op's outputs are checked (checks.py).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines above it give the same figures for a reader.

--trace 0 reports the end-to-end metrics: setup_s (median over several
fresh interpreters), wall_s (median pass time) and peak_rss_mib.  --trace 1
spends half of --seconds on an untraced process and half on a traced one and
reports the per-layer metrics of the traced one plus trace.overhead_ratio.

Exit code 0 when a result was printed; 1 when a measured process failed; 2
when the weakkam sources are missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_PROBES = 6       # extra fresh interpreters that only set up
DEADLINE_S = 170.0     # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, budget: float, workdir: str, deadline: float,
          setup_only: bool = False, spans: str = "") -> dict:
    """Run child.py in a fresh interpreter; return the result it wrote."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
           "--workdir", workdir, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the run deadline")
    env = dict(os.environ, **PINS)
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: measured process killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measured process exited {proc.returncode}\n"
                         + proc.stderr[-3000:])
    with open(out) as fh:
        return json.load(fh)


def op_failures(ops: list, workload: str) -> list:
    """(label, reason) for every failed op: raised, exit code not 0, or a
    failed check."""
    known = {op.label: op.known_failure for op in WORKLOADS[workload].ops}
    out = []
    for op in ops:
        reasons = list(op["problems"])
        if op["exit"] not in (0, None):
            reasons.insert(0, f"exit {op['exit']}"
                           + (f" (known at the seed, ROADMAP {known[op['label']]})"
                              if known[op["label"]] else ""))
        if reasons:
            out.append((op["label"], reasons))
    return out


def compare_processes(plain: dict, traced: dict) -> None:
    """Determinism across processes: the traced process ran the same configs
    as the untraced one, so each op's first-pass manifest and report must
    repeat byte for byte.  A mismatch is a problem of the traced op."""
    for label, want in plain["digests"].items():
        got = traced["digests"].get(label, {})
        differ = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
        if differ:
            op = next(op for op in traced["ops"] if op["label"] == label)
            op["problems"].append(f"{', '.join(differ)}: not the bytes of the untraced process")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    workdir = os.path.join(RUNS, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            plain = spawn(workload, seed, seconds / 2, os.path.join(workdir, "plain"), deadline)
            spans = os.path.join(RUNS, f"spans_{workload}.jsonl")
            traced = spawn(workload, seed, seconds / 2, os.path.join(workdir, "traced"),
                           deadline, spans=spans)
            runs = [plain, traced]
            compare_processes(plain, traced)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (statistics.median(traced["walls"])
                                               / statistics.median(plain["walls"]))
        else:
            # probes before and after the measured process sample two moments
            # of a machine whose speed drifts
            def probe(i):
                return spawn(workload, seed, 0.0, os.path.join(workdir, f"setup{i}"),
                             deadline, setup_only=True)["setup_s"]

            setups = [probe(i) for i in range(SETUP_PROBES // 2)]
            measured = spawn(workload, seed, seconds, os.path.join(workdir, "main"), deadline)
            setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
            runs = [measured]
            metrics = {"setup_s": statistics.median(setups + [measured["setup_s"]]),
                       "wall_s": statistics.median(measured["walls"]),
                       "peak_rss_mib": measured["peak_rss_mib"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for r in runs for op in r["ops"]]
    failures = op_failures(ops, workload)
    return {
        "workload": workload, "seed": seed,
        "passes": [len(r["walls"]) for r in runs],
        "cpu_s": statistics.median(runs[0]["cpus"]),
        "ops": ops, "failures": failures,
        "correct": not any(op["problems"] for op in ops),
        "attempted": len(ops), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(res: dict) -> None:
    """The human-readable block printed above the JSON line."""
    per_op = {}
    for op in res["ops"]:
        per_op.setdefault(op["label"], []).append(op["seconds"])
    timing = ", ".join(f"{k} {statistics.median(v):.3f} s" for k, v in per_op.items())
    print(f"workload {res['workload']}  seed {res['seed']}  passes "
          f"{'+'.join(map(str, res['passes']))}  ops: {timing}  "
          f"pass cpu {res['cpu_s']:.3f} s")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'ops_attempted':40s} {res['attempted']:14d} count")
    print(f"  {'ops_failed_ratio':40s} {ratio:14.6g} ratio")
    for label, reasons in res["failures"]:
        print(f"    failed {label}: {'; '.join(reasons[:4])}")
    print(f"  {'correct':40s} {str(res['correct']).lower():>14s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "weakkam", "__init__.py")):
        print(f"weakkam sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            report(res)
            results.append(res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
