"""One measured process: set up, run passes of one workload, check every op.

run.py starts it in a fresh interpreter with BLAS/OpenMP pinned to one
thread; it writes its result as JSON to --out.  With --setup-only it stops
once the first op is ready, which is how run.py samples set-up time.  Passes
repeat while the next one is expected to end within --budget seconds; there
is always at least one.  The result carries a digest of each op's
deterministic outputs in the first pass, so that run.py can compare two
processes that ran the same configs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--spans", default="", help="traced run: write spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = workloads.prepare(wl, args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        result.update(measure(wl, inputs, args))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(wl, inputs: dict, args) -> dict:
    import checks
    import workloads

    recorder = None
    traced = contextlib.nullcontext
    if args.spans:
        import tracer
        from weakkam.errors import WeakKamError

        recorder = tracer.Tracer(WeakKamError)
        traced = recorder.recording   # only the pass itself, not the checks

    reference = checks.load_reference(wl.name)
    oracles = checks.Oracles(inputs)
    commands = {op.label: op.command for op in wl.ops}
    first = {}
    walls, cpus, ops = [], [], []
    t_begin = time.perf_counter()
    while True:
        passdir = os.path.join(args.workdir, f"pass_{len(walls):03d}")
        with traced():
            t0, c0 = time.perf_counter(), time.process_time()
            records = workloads.run_pass(wl, inputs, passdir)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        for rec in records:
            checks.check_op(wl, rec, args.seed, reference, oracles)
            if rec.result is not None:
                got = {"estimates": rec.result.estimates.tobytes()}
            else:
                got = checks.deterministic_bytes(rec.outdir, commands[rec.label])
            want = first.setdefault(rec.label, got)
            for name in sorted(set(got) | set(want)):
                if got.get(name) != want.get(name):
                    rec.problems.append(f"{name} differs from the first pass")
            ops.append({"label": rec.label, "seconds": rec.seconds,
                        "exit": rec.exit_code, "problems": rec.problems})
        shutil.rmtree(passdir)
        elapsed = time.perf_counter() - t_begin
        if elapsed + statistics.median(walls) > args.budget:
            break
    out = {"walls": walls, "cpus": cpus, "ops": ops,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "digests": {label: {name: hashlib.sha256(data).hexdigest()
                               for name, data in files.items()}
                       for label, files in first.items()}}
    if recorder is not None:
        out["layers"] = tracer.layer_metrics(recorder, len(walls))
        recorder.dump(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
