"""The four benchmark workloads: their inputs, their ops and one pass over them.

An op of a CLI workload is one `weakkam.cli.main([...])` call, made in-process
with the working directory set to a fresh pass directory, so the paths the
manifests record are the same in every pass.  An op of `stationary` is one
`weakkam.metric.critical_value_stationary` call.

The workload seed reaches the program only as a generated value: it picks
the ensemble seed of `stationary` as `seed % ENSEMBLE_SEEDS`, so that every
input the benchmark can generate has a recorded reference.  The periodic
configs use the unit cosine well and do not depend on the seed.  Nor does the
random config of `verify1d`: its `[environment] seed` is fixed at
VERIFY_RANDOM_SEED, because random fields differ in which checks of the
battery run to completion (8 of the first 32 ensemble seeds pass all 15 and
take about 1.5x as long as those that fail two), and that two-valued cost
would swamp the run-to-run spread of a single pass.  Seed 3 fails the two
checks of ROADMAP item 2b.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass, field

ENSEMBLE_SEEDS = 32
VERIFY_RANDOM_SEED = 3

STATIONARY = {"period": 16.0, "k_max": 3, "amplitude": 0.5, "decay": 1.0,
              "n_samples": 8, "box_radii": (2.0, 4.0, 8.0),
              "points_per_unit": 8, "tol_bisect": 5e-3}


def ensemble_seed(seed: int) -> int:
    return seed % ENSEMBLE_SEEDS


def _ini(kind: str, dim: int, n: int, model: str = "mechanical",
         seed: int | None = None) -> str:
    env = f"[environment]\nkind = {kind}\ndimension = {dim}\n"
    if seed is not None:
        env += f"seed = {seed}\n"
    return (env + f"\n[hamiltonian]\nmodel = {model}\n"
            f"\n[grid]\ndim = {dim}\nn = {n}\n")


@dataclass(frozen=True)
class Op:
    label: str          # name of the op in reports and in the reference
    command: str = ""   # weakkam subcommand; empty for the library op
    config: str = ""    # key into the workload's configs
    outdir: str = ""    # relative to the pass directory
    known_failure: str = ""   # ROADMAP item of a failure present at the seed


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict         # config label -> INI text
    ops: tuple
    seeded: tuple = ()    # labels of ops whose input depends on the seed

    def reference_key(self, label: str, seed: int) -> str:
        return f"{label}@{ensemble_seed(seed)}" if label in self.seeded else label


WORKLOADS = {w.name: w for w in (
    Workload(
        "pipeline2d",
        {"cosine2d_n32": _ini("periodic", 2, 32)},
        (Op("critical", "critical", "cosine2d_n32", "out"),
         Op("regularize", "regularize", "cosine2d_n32", "out", known_failure="2c")),
    ),
    Workload(
        "critical2d",
        {"cosine2d_n64": _ini("periodic", 2, 64)},
        (Op("critical", "critical", "cosine2d_n64", "out"),),
    ),
    Workload(
        "verify1d",
        {"mechanical": _ini("periodic", 1, 512),
         "nonstrict": _ini("periodic", 1, 512, model="nonstrict"),
         "random": _ini("random_fourier", 1, 512, seed=VERIFY_RANDOM_SEED)},
        (Op("verify_mechanical", "verify", "mechanical", "out_mechanical"),
         Op("verify_nonstrict", "verify", "nonstrict", "out_nonstrict"),
         Op("verify_random", "verify", "random", "out_random", known_failure="2b")),
    ),
    Workload(
        "stationary",
        {},
        (Op("critical_value_stationary"),),
        seeded=("critical_value_stationary",),
    ),
)}


@dataclass
class OpRecord:
    label: str
    seconds: float
    exit_code: int | None = None   # CLI ops; None when the op raised
    error: str = ""                # traceback of an exception out of the op
    outdir: str = ""
    result: object = None          # stationary: the returned result
    problems: list = field(default_factory=list)


def prepare(workload: Workload, seed: int, workdir: str) -> dict:
    """Write and parse the configs; return what a pass needs."""
    import weakkam.cli  # noqa: F401  (the op entry point, imported in set-up)
    from weakkam.config import load_config

    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for label, text in workload.configs.items():
        path = os.path.join(workdir, f"{label}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        load_config(path)
        paths[label] = path
    inputs = {"configs": paths, "seed": seed}
    if workload.name == "stationary":
        from weakkam.env import EnvSpec
        from weakkam.hamiltonian import mechanical_model

        p = STATIONARY
        inputs["model"] = mechanical_model(dim=2)
        inputs["spec"] = EnvSpec(
            kind="random_fourier", dimension=2, seed=ensemble_seed(seed),
            params={k: p[k] for k in ("period", "k_max", "amplitude", "decay")})
    return inputs


def run_pass(workload: Workload, inputs: dict, passdir: str, labels=None) -> list:
    """Run every op (or those in labels) once, in order, one at a time;
    return one record each."""
    import weakkam.cli
    import weakkam.metric

    records = []
    os.makedirs(passdir)
    home = os.getcwd()
    os.chdir(passdir)
    try:
        for op in workload.ops:
            if labels is not None and op.label not in labels:
                continue
            sink = io.StringIO()
            t0 = time.perf_counter()
            rec = OpRecord(op.label, 0.0, outdir=os.path.join(passdir, op.outdir))
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if workload.name == "stationary":
                        p = STATIONARY
                        rec.result = weakkam.metric.critical_value_stationary(
                            inputs["model"], inputs["spec"], p["n_samples"],
                            p["box_radii"], points_per_unit=p["points_per_unit"],
                            tol_bisect=p["tol_bisect"])
                    else:
                        rec.exit_code = weakkam.cli.main(
                            [op.command, inputs["configs"][op.config],
                             "--outdir", op.outdir])
            except Exception:  # noqa: BLE001  an op that raises is a failed op
                rec.error = traceback.format_exc()
            rec.seconds = time.perf_counter() - t0
            records.append(rec)
    finally:
        os.chdir(home)
    return records
