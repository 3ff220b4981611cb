"""Record the reference outputs that the correctness check compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs every op once per distinct input (each of the ENSEMBLE_SEEDS ensemble
seeds for the seeded ops) and writes reference/<workload>.json: exit codes,
manifest results, report lines and output values.  The committed files were
recorded at the commit that added the benchmark, so a change that moves a
verdict, a mask or a number beyond its tolerance shows as an incorrect op;
re-recording is a change to the benchmark and belongs in its own commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import checks  # noqa: E402
from workloads import ENSEMBLE_SEEDS, WORKLOADS, prepare, run_pass  # noqa: E402


def record(name: str) -> dict:
    wl = WORKLOADS[name]
    ref = {}
    workdir = os.path.join(ROOT, ".perfbench_runs", f"record-{name}-{os.getpid()}")
    for seed in range(ENSEMBLE_SEEDS if wl.seeded else 1):
        labels = [op.label for op in wl.ops if seed == 0 or op.label in wl.seeded]
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            inputs = prepare(wl, seed, workdir)
            for rec in run_pass(wl, inputs, os.path.join(workdir, "pass"), labels):
                if rec.error:
                    raise SystemExit(f"{name} {rec.label} seed {seed} raised:\n{rec.error}")
                ref[wl.reference_key(rec.label, seed)] = checks.observe(wl, rec)
                print(f"{name} {wl.reference_key(rec.label, seed)}: "
                      f"{rec.seconds:.2f} s exit {rec.exit_code}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return ref


def main(argv) -> int:
    for name in argv or list(WORKLOADS):
        ref = record(name)
        with open(os.path.join(checks.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(ref, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
