"""Correctness checks on every op's outputs.

Four checks, run after the op and outside its timing:

1. the level agrees with an independent route: the unit cosine well has
   c = 1 exactly; for the mechanical model H = |p|^2/2 + V on a lattice the
   critical level is the maximum of V over the nodes and edge midpoints the
   cost graph samples (below it a sublevel is empty, above it every edge
   costs >= 0), which lies between the maximum of V over the nodes and over
   the half-spacing lattice that covers the midpoints, so a certified
   bracket must meet that interval;
2. no NaN in any manifest result, report or output value;
3. exit codes, certificate verdicts and mask cell counts equal the reference
   recorded at the seed commit;
4. numbers equal the reference within a-priori tolerances (below).

The determinism check (same config in a later pass of the same run gives
byte-identical `manifest_*.json` and `verify_report.txt`) is in `child.py` and
`run.py`.

Tolerances are set from float64 rounding, not fitted to any run: values come
from sums of at most a few thousand O(1) terms, so an implementation that
reorders them moves a value by far less than VALUE_TOL; curvature numbers are
second differences divided by h^2, so their tolerance carries 4/h^2.
"""

from __future__ import annotations

import json
import math
import os
import re

from weakkam.config import build_environment, load_config
from weakkam.env import sample_realization
from weakkam.grid import BoxSpec, GridSpec
from workloads import STATIONARY

VALUE_TOL = 1e-9
_NUMBER = re.compile(
    r"(?<![A-Za-z_])(?:[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?nan|[-+]?inf)(?![A-Za-z_])")
CURVATURE_KEYS = {"k_lower", "k_upper", "curvature_bound"}
CURVATURE_TEXT = ("two_sided_curvature_bounds", "two-sided curvature")
GUARD = 1e-12   # rounding guard on interval end points


# -- observations ------------------------------------------------------------


def observe_cli(outdir: str, command: str, exit_code: int) -> dict:
    """What one CLI op left behind, as plain JSON data."""
    obs = {"exit": exit_code}
    path = os.path.join(outdir, f"manifest_{command}.json")
    if os.path.exists(path):
        with open(path) as fh:
            obs["results"] = json.load(fh)["results"]
    path = os.path.join(outdir, f"{command}_report.txt")
    if os.path.exists(path):
        with open(path) as fh:
            obs["report"] = fh.read().splitlines()
    path = os.path.join(outdir, "regularized.csv")
    if command == "regularize" and os.path.exists(path):
        with open(path) as fh:
            obs["regularized"] = [float(line.rsplit(",", 1)[1]) for line in fh
                                  if line[:1].isdigit()]
    return obs


def observe_stationary(result) -> dict:
    return {"estimates": [[float(v) for v in row] for row in result.estimates]}


def deterministic_bytes(outdir: str, command: str) -> dict:
    """The files of one op that must repeat byte for byte across passes."""
    out = {}
    for name in (f"manifest_{command}.json", "verify_report.txt"):
        path = os.path.join(outdir, name)
        if os.path.exists(path) and (name.startswith("manifest") or command == "verify"):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


# -- comparison with the reference ------------------------------------------


def _close(x: float, ref: float, curvature: bool, h: float) -> bool:
    if math.isnan(x) or math.isnan(ref):
        return False
    if math.isinf(x) or math.isinf(ref):
        return x == ref
    tol = VALUE_TOL * max(1.0, abs(ref))
    if curvature:
        tol += 4.0 * VALUE_TOL / (h * h)
    return abs(x - ref) <= tol


def _compare_text(text: str, ref: str, where: str, curvature: bool, h: float,
                  problems: list) -> None:
    nums, ref_nums = _NUMBER.findall(text), _NUMBER.findall(ref)
    if _NUMBER.split(text) != _NUMBER.split(ref) or len(nums) != len(ref_nums):
        problems.append(f"{where}: {text!r} != reference {ref!r}")
        return
    for a, b in zip(nums, ref_nums):
        exact = not any(c in b for c in ".eEn")   # integers: counts, cells, bytes
        if (a != b) if exact else not _close(float(a), float(b), curvature, h):
            problems.append(f"{where}: {a} != reference {b} in {text!r}")


def compare(obs, ref, where: str, h: float, problems: list,
            curvature: bool = False) -> None:
    """Structural comparison: keys, verdicts, integers and strings exact,
    floats within tolerance, numbers inside strings compared as numbers."""
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or sorted(obs) != sorted(ref):
            problems.append(f"{where}: keys {sorted(obs) if isinstance(obs, dict) else obs!r}"
                            f" != reference {sorted(ref)}")
            return
        for key in ref:
            compare(obs[key], ref[key], f"{where}.{key}", h, problems,
                    curvature or key in CURVATURE_KEYS or key in CURVATURE_TEXT)
    elif isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (a, b) in enumerate(zip(obs, ref)):
            compare(a, b, f"{where}[{i}]", h, problems,
                    curvature or (isinstance(b, str) and b.startswith(CURVATURE_TEXT[1])))
    elif isinstance(ref, bool) or ref is None or isinstance(ref, int):
        if obs != ref or type(obs) is not type(ref):
            problems.append(f"{where}: {obs!r} != reference {ref!r}")
    elif isinstance(ref, float):
        if not isinstance(obs, (int, float)) or isinstance(obs, bool) \
                or not _close(float(obs), ref, curvature, h):
            problems.append(f"{where}: {obs!r} != reference {ref!r}")
    elif isinstance(ref, str):
        if not isinstance(obs, str):
            problems.append(f"{where}: {obs!r} != reference {ref!r}")
        else:
            _compare_text(obs, ref, where, curvature, h, problems)


def find_nan(obs, where: str, problems: list) -> None:
    if isinstance(obs, dict):
        for key, val in obs.items():
            find_nan(val, f"{where}.{key}", problems)
    elif isinstance(obs, list):
        for i, val in enumerate(obs):
            find_nan(val, f"{where}[{i}]", problems)
    elif isinstance(obs, float) and math.isnan(obs):
        problems.append(f"{where}: NaN")
    elif isinstance(obs, str) and any(tok.lstrip("+-") == "nan"
                                      for tok in _NUMBER.findall(obs)):
        problems.append(f"{where}: NaN in {obs!r}")


# -- independent level routes ------------------------------------------------


def _detail_numbers(detail: str) -> dict:
    return {k: float(v) for k, v in re.findall(r"(\w+)=([-+0-9.eE]+|nan|inf)", detail)}


def field_max_interval(env, nodes, half_lattice) -> tuple:
    """[max over nodes, max over the half-spacing lattice] of the field."""
    return (float(max(env.evaluate(nodes))), float(max(env.evaluate(half_lattice))))


def _meets(lo: float, hi: float, interval: tuple) -> bool:
    return lo <= interval[1] + GUARD and hi >= interval[0] - GUARD


def check_critical_level(results: dict, where: str, problems: list) -> None:
    """`critical` manifest on the unit cosine well, whose level is c = 1."""
    c, lo, hi, c_disc = (results[k] for k in ("c_bisect", "lo", "hi", "c_disc"))
    if c_disc != 1.0:
        problems.append(f"{where}: ladder level c_disc={c_disc!r}, exact value is 1.0")
    if not lo <= c <= hi:
        problems.append(f"{where}: c_bisect={c!r} outside its bracket [{lo!r}, {hi!r}]")
    if not lo <= 1.0 <= hi:
        problems.append(f"{where}: bracket [{lo!r}, {hi!r}] misses the exact level 1")


def check_verify_level(results: dict, where: str, problems: list,
                       oracle: tuple | None) -> None:
    """`verify` manifest: cosine (oracle None, c = 1 and c_disc = 1) or a
    random field (c_disc within the bracket width, bracket meets the
    field-maximum interval)."""
    try:
        bracket = _detail_numbers(results["critical_bracket_width"]["detail"])
        gap = _detail_numbers(results["graph_vs_ladder_level_gap"]["detail"])["gap"]
        c, width = bracket["c"], bracket["width"]
    except KeyError as exc:
        problems.append(f"{where}: level rows missing from the verify report ({exc})")
        return
    lo, hi = c - 0.5 * width, c + 0.5 * width
    if oracle is None:
        if gap != abs(1.0 - c):
            problems.append(f"{where}: level gap {gap!r} is not |1 - c_bisect|, "
                            f"so c_disc != 1.0")
        oracle = (1.0, 1.0)
    elif not gap <= width:
        problems.append(f"{where}: c_disc is {gap!r} from c_bisect, more than the "
                        f"bracket width {width!r}")
    if not _meets(lo, hi, oracle):
        problems.append(f"{where}: bracket [{lo!r}, {hi!r}] misses the field-maximum "
                        f"interval {oracle}")


def check_stationary_level(estimates, intervals, tol: float, where: str,
                           problems: list) -> None:
    """Each estimate is a bracket midpoint with width <= tol, so it lies within
    tol/2 of the box's field-maximum interval."""
    for i, row in enumerate(estimates):
        for j, est in enumerate(row):
            lo, hi = intervals[i][j]
            if not lo - 0.5 * tol - GUARD <= est <= hi + 0.5 * tol + GUARD:
                problems.append(f"{where}[{i}][{j}]: estimate {est!r} is not within "
                                f"{0.5 * tol} of the field-maximum interval [{lo!r}, {hi!r}]")


# -- one op --------------------------------------------------------------------

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


class Oracles:
    """Independent level routes for one run's inputs, each computed once."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self._configs, self._torus, self._boxes = {}, {}, None

    def config(self, label: str):
        if label not in self._configs:
            self._configs[label] = load_config(self.inputs["configs"][label])
        return self._configs[label]

    def torus_interval(self, label: str) -> tuple:
        if label not in self._torus:
            cfg = self.config(label)
            dim, n = cfg.get("grid", "dim"), cfg.get("grid", "n")
            self._torus[label] = field_max_interval(
                build_environment(cfg)[1], GridSpec(dim, n).points(),
                GridSpec(dim, 2 * n).points())
        return self._torus[label]

    def box_intervals(self) -> list:
        if self._boxes is None:
            # Box edges may leave the box: their midpoints reach half the edge
            # radius, at most 6h (metric.default_edge_radius), beyond it.
            spec, ppu = self.inputs["spec"], STATIONARY["points_per_unit"]
            reach = 3.0 / ppu
            self._boxes = [
                [field_max_interval(env, BoxSpec(spec.dimension, r, ppu).points(),
                                    BoxSpec(spec.dimension, r + reach, 2 * ppu).points())
                 for r in STATIONARY["box_radii"]]
                for env in (sample_realization(spec, i)
                            for i in range(STATIONARY["n_samples"]))]
        return self._boxes


def _op(workload, label: str):
    return next(op for op in workload.ops if op.label == label)


def observe(workload, rec) -> dict:
    if rec.result is not None:
        return observe_stationary(rec.result)
    return observe_cli(rec.outdir, _op(workload, rec.label).command, rec.exit_code)


def check_op(workload, rec, seed: int, reference: dict, oracles: Oracles) -> None:
    """Append to rec.problems everything wrong with one op's outputs."""
    problems = rec.problems
    if rec.error:
        problems.append("raised " + rec.error.strip().splitlines()[-1])
        return
    key = workload.reference_key(rec.label, seed)
    obs = observe(workload, rec)
    find_nan(obs, key, problems)
    if rec.result is not None:
        h = 1.0 / STATIONARY["points_per_unit"]
        check_stationary_level(obs["estimates"], oracles.box_intervals(),
                               STATIONARY["tol_bisect"], key, problems)
    else:
        op = _op(workload, rec.label)
        cfg = oracles.config(op.config)
        h = 1.0 / cfg.get("grid", "n")
        results = obs.get("results")
        if results is None:
            problems.append(f"{key}: no manifest_{op.command}.json written")
        elif op.command == "critical":
            check_critical_level(results, key, problems)
        elif op.command == "verify":
            cosine = cfg.get("environment", "kind") == "periodic"
            check_verify_level(results, key, problems,
                               None if cosine else oracles.torus_interval(op.config))
    if key not in reference:
        problems.append(f"{key}: no recorded reference")
    else:
        compare(obs, reference[key], key, h, problems)
