"""Command-line front end.

Subcommands chain the pipeline stages — critical value, Aubry mask, strict
subsolution, two-sided regularization — and persist every stage as CSV plus
a JSON manifest.  The critical command's manifest is the one record of the
level: the later commands read it from their output directory when its
config hash matches, and `--compute-c` computes the level and writes that
manifest when none does.  `verify` runs the whole invariant battery on one
config and emits a deterministic scoreboard.

Exit codes: 0 every certificate passed, 1 a certificate failed, 2 the
configuration was invalid (including capability refusals such as asking a
non-Tonelli model for a characteristic flow), 3 a numeric refusal
(subcritical level, empty mask, off-ladder time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .aubry import (build_library, build_w, classical_aubry, detect_aubry,
                    lax_extension, verify_member)
from .config import (RunConfig, build_environment, build_grid, build_model,
                     config_hash, default_config_text, load_config,
                     manifest_json, parse_config_text)
from .errors import (CertificateFailure, ConfigError, LadderError,
                     NotTonelliError, WeakKamError)
from .grid import GridFn, _write_node_csv, save_gridfn_csv
from .hamiltonian import kappa
from .metric import (build_cost_graph, check_subsolution, critical_value_free,
                     semidistance)
from .semigroup import (_whole_steps, build_kernel, check_corrector,
                        check_monotone_semigroup, discrete_critical_value, lax_minus,
                        refold_kernel)
from .subsol import (_near_mask, build_strict_convex, build_strict_strictly_convex,
                     check_strict, truncation_budget)
from .tonelli import FlowState, bernard_regularize, flow_integrate, regular_window

__all__ = ["main"]


# -- pipeline stages ---------------------------------------------------------


def stage_critical(cfg: RunConfig, env, model, grid) -> dict:
    """Bisection bracket on the cost graph plus the exact ladder-level fold."""
    res = critical_value_free(model, env, grid,
                              tol_bisect=cfg.get("tolerances", "tol_bisect"))
    # the upper bracket end is always feasible; the midpoint may undershoot c
    theta = kappa(model, res.hi, env) + cfg.get("ladder", "theta_extra")
    kern0 = build_kernel(model, env, grid, cfg.get("ladder", "dt"), theta)
    c_disc = discrete_critical_value(kern0)
    return {"c_bisect": res.value, "lo": res.lo, "hi": res.hi,
            "iterations": res.iterations, "bracket_width": res.bracket_width,
            "c_disc": c_disc, "theta": theta, "kernel": kern0}


def stage_kernel(cfg: RunConfig, env, model, grid, crit: dict):
    """Kernel with the exact discrete critical value folded in; crit gives
    up the unfolded one, so one kernel stays alive."""
    kern0 = crit.pop("kernel", None)
    if kern0 is None:
        kern0 = build_kernel(model, env, grid, cfg.get("ladder", "dt"),
                             crit["theta"])
    return refold_kernel(kern0, crit["c_disc"])


def stage_aubry(cfg: RunConfig, kern) -> dict:
    """Library, mix and Aubry mask at the level folded into kern."""
    lib = build_library(kern, n_seeds=cfg.get("tolerances", "n_seeds"))
    w = build_w(lib)
    eps_raw = cfg.get("tolerances", "eps_aubry")
    eps = None if eps_raw == "auto" else float(eps_raw)
    am = detect_aubry(w, kern, cfg.get("ladder", "t_max"), eps=eps)
    return {"library": lib, "w": w, "mask": am}


def stage_strict(cfg: RunConfig, kern, aub: dict) -> dict:
    """Strict subsolution at kern's level with each of its verdicts."""
    w, am = aub["w"], aub["mask"]
    tau = cfg.get("tolerances", "tau")
    m_terms = cfg.get("tolerances", "m_terms")
    budget = {"travel": tau * kern.speed_radius,
              "truncation": truncation_budget(w, m_terms)}
    budget["total"] = budget["travel"] + budget["truncation"]
    target_raw = cfg.get("tolerances", "eps_target")
    if target_raw:
        target = float(target_raw)
        if budget["total"] > target:
            raise CertificateFailure(
                f"requested closeness {target} is below the achievable budget "
                f"{budget['total']:.6g} (travel {budget['travel']:.6g} + "
                f"truncation {budget['truncation']:.6g}); raise eps_target, "
                f"shrink tau, or raise m_terms", budget=budget)
    if kern.model.strictly_convex:
        branch = "time-mix"
        w_eps = build_strict_strictly_convex(w, kern, tau, m_terms)
    else:
        branch = "sup-convolution"
        w_eps = build_strict_convex(w, kern, cfg.get("tolerances", "delta"),
                                    tau, m_terms)
    sub_ok, worst = verify_member(w_eps, kern)
    sup_change = float(np.max(np.abs(w_eps.values - w.values)))
    sup_ok = sup_change <= budget["total"] + 1e-12
    mask_eps = am.eps
    mask_agree = (float(np.max(np.abs(w_eps.values[am.mask] - w.values[am.mask])))
                  if am.mask.any() else 0.0)
    mask_ok = mask_agree <= mask_eps
    cert = check_strict(w_eps, kern, am.mask, cfg.get("tolerances", "d0"))
    passed = bool(sub_ok and sup_ok and mask_ok and cert.passed)
    return {"w_eps": w_eps, "branch": branch, "budget": budget,
            "sub_ok": sub_ok, "edge_violation": worst,
            "sup_change": sup_change, "sup_ok": sup_ok,
            "mask_agreement": mask_agree, "mask_eps": mask_eps, "mask_ok": mask_ok,
            "strict_cert": cert, "passed": passed}


# step counts past which a quotient t / dt rounds by more than the 1e-9 steps
# that _whole_steps forgives, so no common step can be told from rounding
_MAX_COMMON_STEPS = int(1e-9 / np.finfo(float).eps)


def _common_step(s: float, t: float) -> float:
    """The largest step of which both times are whole multiples under
    _whole_steps' rule.

    A step dt = short / q counts long / dt = q long / short steps, so the
    least such q is the first denominator of a continued-fraction
    convergent of long / short (exact on the two floats, by Euclid on their
    integer ratios) at which both counts pass.  LadderError when none does
    below _MAX_COMMON_STEPS steps.
    """
    short, long = sorted((s, t))
    (ln, ld), (sn, sd) = long.as_integer_ratio(), short.as_integer_ratio()
    num, den = ln * sd, ld * sn    # long / short
    q_prev, q = 0, 1
    while long / (short / q) <= _MAX_COMMON_STEPS:
        dt = short / q
        try:
            _whole_steps(s, dt), _whole_steps(t, dt)
            return dt
        except LadderError:
            pass
        num, den = den, num % den
        if den == 0:    # the last convergent was long / short itself
            break
        q_prev, q = q, num // den * q + q_prev
    raise LadderError(f"times {s} and {t} share no step of at most "
                      f"{_MAX_COMMON_STEPS} steps; pick times with a common step")


def _smoothing_ladder(kern, s: float, t: float):
    """Return a kernel whose ladder contains both smoothing times.

    The working ladder serves when it counts the steps of s and t (steps_of);
    otherwise a dedicated finer ladder at their largest common step
    (_common_step) is built at the same folding level and width parameter.
    """
    try:
        kern.steps_of(s), kern.steps_of(t)
    except LadderError:
        fine = build_kernel(kern.model, kern.env, kern.grid, dt=_common_step(s, t),
                            theta=kern.theta)
        return refold_kernel(fine, kern.shift)
    return kern


def stage_regularize(cfg: RunConfig, kern, aub: dict, strict: dict) -> dict:
    """Two-sided smoothing of the strict subsolution at kern's level."""
    window = regular_window(kern, cfg.get("tolerances", "lam"))
    s, t = (window.t0 if raw == "auto" else float(raw)
            for raw in (cfg.get("tolerances", "s"), cfg.get("tolerances", "t")))
    stage_warnings = []
    if max(s, t) > window.t0 + 1e-12:
        stage_warnings.append(
            f"smoothing times s={s!r}, t={t!r} exceed the certified window "
            f"t0={window.t0!r}; curvature certificates are not guaranteed")
    k_use = _smoothing_ladder(kern, s, t)
    w_eps, report = bernard_regularize(
        strict["w_eps"], k_use, s, t, mask=aub["mask"].mask,
        d0=cfg.get("tolerances", "d0"),
        strict_input=strict["strict_cert"].passed, window=window)
    report.warnings.extend(stage_warnings)
    return {"w_reg": w_eps, "report": report, "window": window,
            "smoothing_dt": k_use.dt}


# -- persistence -------------------------------------------------------------


def _ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--outdir {path} is not a directory (a file is on its path)") from exc
    return path


def write_mask_csv(am, path) -> None:
    grid = am.grid
    half, one, two = (am.thresholds[k] for k in ("half", "one", "two"))
    _write_node_csv(path, grid, [
        f"aubry mask dim={grid.dim} n={grid.n}",
        f"eps={am.eps!r} test_times={','.join(repr(float(t)) for t in am.test_times)}"],
        "residual,in_half,in_one,in_two",
        (f"{float(r)!r},{int(a)},{int(b)},{int(c)}"
         for r, a, b, c in zip(am.residual, half, one, two)))


def _write_manifest(outdir: str, command: str, cfg: RunConfig,
                    results: dict, outputs: list) -> str:
    manifest = {
        "tool": {"name": "weakkam", "version": __version__},
        "command": command,
        "config_hash": config_hash(cfg),
        "config": cfg.flat(),
        "results": results,
        "outputs": sorted(outputs),
    }
    path = os.path.join(outdir, f"manifest_{command}.json")
    with open(path, "w") as fh:
        fh.write(manifest_json(manifest))
    return path


def _epilogue(outdir: str, command: str, cfg: RunConfig, results: dict,
              outputs: list, lines: list, out, report: bool = False) -> None:
    """Every command's tail: its lines as command_report.txt when it keeps
    a report, the manifest naming every output, then the lines and the
    manifest's path on out."""
    if report:
        path = os.path.join(outdir, f"{command}_report.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        outputs = [*outputs, path]
    manifest = _write_manifest(outdir, command, cfg, results, outputs)
    for line in lines:
        out(line)
    out(f"manifest: {manifest}")


def _critical_results(crit: dict) -> dict:
    return {k: crit[k] for k in
            ("c_bisect", "lo", "hi", "iterations", "bracket_width",
             "c_disc", "theta")}


def _get_critical(cfg: RunConfig, problem: tuple, outdir: str, compute_c: bool,
                  out) -> dict:
    """The level that manifest_critical.json in outdir records for this
    config; else, under compute_c, the critical stage, recorded there as
    the critical command records it.  A record that cannot be read (not
    JSON, not an object, no results object) or whose c_disc or theta is
    not a finite float (missing, a string, null, a bool, NaN, an infinity)
    is no usable record; without compute_c it is refused by its path."""
    path = os.path.join(outdir, "manifest_critical.json")
    record = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = None
        results = record.get("results") if isinstance(record, dict) else None
        if not (isinstance(results, dict)
                and all(isinstance(results.get(k), float) and math.isfinite(results[k])
                        for k in ("c_disc", "theta"))):
            record = None
    if record and record.get("config_hash") == config_hash(cfg):
        return dict(record["results"])
    if not compute_c:
        why = (f"{path} is not a usable critical manifest" if record is None
               else f"no cached critical value for this config in {outdir}")
        raise ConfigError(f"{why}; run the 'critical' command first or pass --compute-c")
    out("no usable critical cache; computing the level first")
    crit = stage_critical(cfg, *problem)
    _write_manifest(outdir, "critical", cfg, _critical_results(crit), [])
    return crit


# -- commands ----------------------------------------------------------------


def _problem(cfg: RunConfig) -> tuple:
    """(env, model, grid) of the config."""
    return build_environment(cfg)[1], build_model(cfg), build_grid(cfg)


def cmd_critical(cfg: RunConfig, outdir: str, out) -> int:
    crit = stage_critical(cfg, *_problem(cfg))
    _epilogue(outdir, "critical", cfg, _critical_results(crit), [], [
        f"critical value: {crit['c_bisect']!r} in "
        f"[{crit['lo']!r}, {crit['hi']!r}] "
        f"(bracket {crit['bracket_width']!r}, ladder fold {crit['c_disc']!r})"], out)
    return 0


def _through_aubry(cfg: RunConfig, outdir: str, out, compute_c: bool) -> tuple:
    """(kern, aub): the config's kernel folded at the recorded (or computed)
    level, which holds the model, environment and grid, and the Aubry
    stage; every command past critical starts from them."""
    problem = _problem(cfg)
    crit = _get_critical(cfg, problem, outdir, compute_c, out)
    kern = stage_kernel(cfg, *problem, crit)
    return kern, stage_aubry(cfg, kern)


def cmd_aubry(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    kern, aub = _through_aubry(cfg, outdir, out, compute_c)
    grid, am, w = kern.grid, aub["mask"], aub["w"]
    mask_path = os.path.join(outdir, "aubry_mask.csv")
    write_mask_csv(am, mask_path)
    w_path = os.path.join(outdir, "aubry_w.csv")
    save_gridfn_csv(w, w_path)
    res_path = os.path.join(outdir, "aubry_residual.csv")
    save_gridfn_csv(GridFn(grid, am.residual), res_path)
    results = {
        "level": kern.shift,
        "eps": am.eps,
        "mask_size": {k: int(v.sum()) for k, v in sorted(am.thresholds.items())},
        "test_times": list(am.test_times),
        "warnings": am.warnings,
        "library": {"labels": aub["library"].labels,
                    "violations": aub["library"].violations},
    }
    _epilogue(outdir, "aubry", cfg, results, [mask_path, w_path, res_path], [
        f"aubry mask: {int(am.mask.sum())} of {grid.size} cells at "
        f"eps={am.eps!r} (level {kern.shift!r})"], out)
    return 0


def cmd_strict(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    kern, aub = _through_aubry(cfg, outdir, out, compute_c)
    strict = stage_strict(cfg, kern, aub)
    grid = kern.grid
    w_path = os.path.join(outdir, "strict_w_eps.csv")
    save_gridfn_csv(strict["w_eps"], w_path)
    grads = strict["w_eps"].central_gradient()
    margin = kern.shift - np.asarray(
        kern.model.eval_H(grid.points(), grads, kern.env), dtype=float)
    margin_path = os.path.join(outdir, "strict_margin.csv")
    save_gridfn_csv(GridFn(grid, margin), margin_path)
    cert = strict["strict_cert"]
    lines = [
        f"branch: {strict['branch']}",
        f"subsolution edges: {'PASS' if strict['sub_ok'] else 'FAIL'} "
        f"(worst violation {strict['edge_violation']!r})",
        f"sup change {strict['sup_change']!r} <= budget {strict['budget']['total']!r}: "
        f"{'PASS' if strict['sup_ok'] else 'FAIL'}",
        f"mask agreement {strict['mask_agreement']!r} <= {strict['mask_eps']!r}: "
        f"{'PASS' if strict['mask_ok'] else 'FAIL'}",
        f"strict margin delta={cert.delta!r} at d0={cert.d0!r} "
        f"over {cert.n_region} cells: {'PASS' if cert.passed else 'FAIL'}",
    ]
    results = {
        "branch": strict["branch"],
        "budget": strict["budget"],
        "edge_violation": strict["edge_violation"],
        "sup_change": strict["sup_change"],
        "mask_agreement": strict["mask_agreement"],
        "delta": cert.delta,
        "d0": cert.d0,
        "passed": strict["passed"],
    }
    _epilogue(outdir, "strict", cfg, results, [w_path, margin_path], lines, out,
              report=True)
    return 0 if strict["passed"] else 1


def cmd_regularize(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    kern, aub = _through_aubry(cfg, outdir, out, compute_c)
    strict = stage_strict(cfg, kern, aub)
    reg = stage_regularize(cfg, kern, aub, strict)
    rep = reg["report"]
    w_path = os.path.join(outdir, "regularized.csv")
    save_gridfn_csv(reg["w_reg"], w_path)
    lines = [
        f"subsolution edges: {'PASS' if rep.subsolution_ok else 'FAIL'} "
        f"(worst {rep.edge_violation!r})",
        f"two-sided curvature [{rep.curvature.k_lower!r}, {rep.curvature.k_upper!r}] "
        f"within {rep.curvature_bound!r}: "
        f"{'PASS' if rep.curvature_ok else 'FAIL'}",
        f"sup change {rep.sup_change!r} <= {rep.sup_bound!r}: "
        f"{'PASS' if rep.sup_ok else 'FAIL'}",
        f"mask agreement {rep.mask_agreement!r} <= {rep.mask_eps!r}: "
        f"{'PASS' if rep.mask_ok else 'FAIL'}",
        f"strict margin delta={rep.strictness.delta!r}: "
        f"{'PASS' if rep.strict_ok else 'FAIL'}",
    ]
    results = {
        "s": rep.s, "t": rep.t,
        "edge_violation": rep.edge_violation,
        "k_lower": rep.curvature.k_lower, "k_upper": rep.curvature.k_upper,
        "curvature_bound": rep.curvature_bound,
        "window_t0": reg["window"].t0, "window_a": reg["window"].a_const,
        "smoothing_dt": reg["smoothing_dt"],
        "sup_change": rep.sup_change, "sup_bound": rep.sup_bound,
        "mask_agreement": rep.mask_agreement,
        "delta": rep.strictness.delta,
        "warnings": rep.warnings,
        "passed": rep.passed,
    }
    _epilogue(outdir, "regularize", cfg, results, [w_path], lines, out, report=True)
    return 0 if rep.passed else 1


# -- verify battery ----------------------------------------------------------


def _battery(cfg: RunConfig) -> list:
    """Run every checkable invariant on the configured problem.

    Returns (name, status, detail) rows; status is PASS / FAIL / SKIP.
    Each item is guarded so one failure yields one targeted FAIL line.
    """
    rows = []

    def run(name, fn):
        try:
            ok, detail = fn()
            rows.append((name, "PASS" if ok else "FAIL", detail))
        except NotTonelliError as exc:
            rows.append((name, "SKIP", f"needs a Tonelli model ({exc})"))
        except WeakKamError as exc:
            rows.append((name, "FAIL", f"{type(exc).__name__}: {exc}"))

    env, model, grid = _problem(cfg)
    tol_b = cfg.get("tolerances", "tol_bisect")
    t_max = cfg.get("ladder", "t_max")

    crit = stage_critical(cfg, env, model, grid)
    kern = stage_kernel(cfg, env, model, grid, crit)
    a = kern.shift
    aub = stage_aubry(cfg, kern)
    w, am = aub["w"], aub["mask"]

    run("critical_bracket_width", lambda: (
        crit["bracket_width"] <= 2 * tol_b + 1e-12,
        f"c={crit['c_bisect']!r} width={crit['bracket_width']!r}"))
    run("graph_vs_ladder_level_gap", lambda: (
        abs(crit["c_disc"] - crit["c_bisect"])
        <= max(0.02, crit["bracket_width"]),
        f"gap={abs(crit['c_disc'] - crit['c_bisect'])!r}"))

    def _edges():
        ok, worst = verify_member(w, kern)
        return ok, f"worst={worst!r}"
    run("mix_subsolution_edges", _edges)

    def _gradients():
        rep = check_subsolution(w, model, a, env)
        return rep.passed, f"violation={rep.max_violation!r}"
    run("mix_subsolution_gradients", _gradients)

    def _composition():
        direct = lax_minus(w, kern, 3 * kern.dt)
        two = lax_minus(w, kern, 2 * kern.dt)
        chained = lax_minus(two, kern, kern.dt)
        gap = float(np.max(np.abs(direct.values - chained.values)))
        return gap <= 1e-9, f"gap={gap!r}"
    run("semigroup_composition", _composition)

    def _monotone():
        rep = check_monotone_semigroup(w, kern, kern.ladder(t_max))
        return rep.passed, f"min_increment={rep.min_increment!r}"
    run("monotone_level_adjusted_images", _monotone)

    run("mask_nonempty_zero_residual", lambda: (
        bool(am.mask.any())
        and float(np.max(am.residual[am.mask],
                         initial=-np.inf)) <= am.eps,
        f"cells={int(am.mask.sum())} eps={am.eps!r}"))

    def _classical_subset():
        closed = classical_aubry(kern)
        ok = bool(np.all(_near_mask(grid, am.mask, 0.0)[closed]))    # the mask and its ring
        return ok, f"closed_orbit_cells={int(closed.sum())}"
    run("closed_orbits_inside_mask", _classical_subset)

    # one sigma_a graph at the kernel's level for the two rows that read it
    try:
        graph = build_cost_graph(model, a, env, grid, kern.offsets)
    except WeakKamError as exc:    # reported by both, after an empty mask
        graph = exc

    def _extension():
        if isinstance(graph, WeakKamError) and am.mask.any():
            raise graph
        u = lax_extension(w, am.mask, graph)
        tol = 1.5 * grid.h * kern.speed_radius
        rep = check_corrector(u, kern, am.test_times, tol=tol)
        return rep.passed, f"residual={float(rep.residuals.max())!r} tol={tol!r}"
    run("mask_extension_is_corrector", _extension)

    def _reversal():
        from .hamiltonian import reversed_model

        kr = refold_kernel(build_kernel(reversed_model(model), env, grid, kern.dt, kern.theta),
                           kern.shift).reversed()
        # the reversed model's edge x -> y, turned around, must price y -> x
        # as the kernel does; offsets are matched mod n (+-n/2 is one move),
        # and compared one move at a time, with no stacked copy of either
        rows = [{tuple(k % grid.n): w for k, w in zip(st.offsets, st.weights)}
                for st in (kern, kr)]
        none = np.full(grid.size, np.inf)
        gap, only = 0.0, False
        for k in rows[0].keys() | rows[1].keys():
            fwd, rev = (r.get(k, none) for r in rows)
            both = np.isfinite(fwd) & np.isfinite(rev)
            gap = max(gap, float(np.max(np.abs(fwd[both] - rev[both]), initial=0.0)))
            only = only or bool(np.any(np.isfinite(fwd) ^ np.isfinite(rev)))
        return gap <= 1e-9 and not only, f"gap={gap!r}"
    run("reversal_transposes_kernel", _reversal)

    def _triangle():
        seeds = [0, grid.size // 3, (2 * grid.size) // 3]
        if isinstance(graph, WeakKamError):
            raise graph
        sd = semidistance(graph, seeds)
        rng = np.random.default_rng(3)
        worst = -np.inf
        for _ in range(200):    # S(y_i, x) <= S(y_i, y_k) + S(y_k, x)
            i, x, k = (int(rng.integers(m)) for m in (len(seeds), grid.size, len(seeds)))
            worst = max(worst, float(sd[i, x] - (sd[i, seeds[k]] + sd[k, x])))
        return worst <= 1e-9, f"worst_excess={worst!r}"
    run("semidistance_triangle", _triangle)

    try:
        strict = stage_strict(cfg, kern, aub)
    except WeakKamError as exc:    # reported by both rows that need the stage
        strict = exc

    def _strict():
        if isinstance(strict, WeakKamError):
            raise strict
        c = strict["strict_cert"]
        return strict["passed"], (f"branch={strict['branch']} "
                                  f"delta={c.delta!r} d0={c.d0!r}")
    run("strict_subsolution_margin", _strict)

    def _curvature():
        if isinstance(strict, WeakKamError):
            raise strict
        reg = stage_regularize(cfg, kern, aub, strict)
        rep = reg["report"]
        detail = (f"k=[{rep.curvature.k_lower!r}, {rep.curvature.k_upper!r}] "
                  f"bound={rep.curvature_bound!r}")
        if not rep.passed:
            detail += f" failed={','.join(rep.failed())}"
        return rep.passed, detail
    run("two_sided_curvature_bounds", _curvature)

    def _drift():
        pts = grid.points()
        g = GridFn(grid, np.asarray(env.evaluate(pts), dtype=float))
        p0 = g.central_gradient()[grid.size // 3]
        traj = flow_integrate(model, env, FlowState(pts[grid.size // 3], p0),
                              10.0, 1e-3)
        return traj.drift <= 1e-6, f"drift={traj.drift!r}"
    run("flow_energy_drift", _drift)

    def _roundtrip():
        payload = manifest_json({"config": cfg.flat(), "hash": config_hash(cfg)})
        again = manifest_json(json.loads(payload))
        return payload == again, f"bytes={len(payload)}"
    run("manifest_roundtrip_stable", _roundtrip)

    # a stored refusal's traceback holds the frames whose cells hold it: the
    # cycle would keep every array here alive until the cyclic collector runs
    graph = strict = None
    return rows


def cmd_verify(cfg: RunConfig, outdir: str, out, as_json: bool) -> int:
    rows = _battery(cfg)
    lines = [f"{status:4s} {name}  {detail}" for name, status, detail in rows]
    n_fail = sum(1 for _, status, _ in rows if status == "FAIL")
    lines.append(f"==== {len(rows) - n_fail}/{len(rows)} checks passed")
    results = {name: {"status": status, "detail": detail}
               for name, status, detail in rows}
    # --json prints the checks alone, not the report lines and manifest path
    _epilogue(outdir, "verify", cfg, results, [], lines,
              (lambda line: None) if as_json else out, report=True)
    if as_json:
        out(manifest_json({"checks": results, "config_hash": config_hash(cfg)})
            .rstrip("\n"))
    return 1 if n_fail else 0


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weakkam",
        description="weak-KAM pipelines: critical values, Aubry masks, "
                    "strict subsolutions, two-sided regularization")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", nargs="?", default=None,
                       help="INI config; omit to use built-in defaults")
        p.add_argument("--outdir", default="wk_out", help="output directory")
        return p

    common(sub.add_parser("critical", help="estimate the critical value"))
    for name, hint in (("aubry", "detect the Aubry mask"),
                       ("strict", "build and certify a strict subsolution"),
                       ("regularize", "two-sided smoothing with certificates")):
        p = common(sub.add_parser(name, help=hint))
        p.add_argument("--compute-c", action="store_true",
                       help="compute the critical value if not cached")
    p = common(sub.add_parser("verify", help="run the invariant battery"))
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p = sub.add_parser("print-config", help="print the default config")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    out = print
    if args.command == "print-config":
        out(default_config_text())
        return 0
    try:
        cfg = (load_config(args.config) if args.config
               else parse_config_text(default_config_text(), source="<defaults>"))
        outdir = _ensure_outdir(args.outdir)
        if args.command == "critical":
            return cmd_critical(cfg, outdir, out)
        if args.command == "aubry":
            return cmd_aubry(cfg, outdir, out, args.compute_c)
        if args.command == "strict":
            return cmd_strict(cfg, outdir, out, args.compute_c)
        if args.command == "regularize":
            return cmd_regularize(cfg, outdir, out, args.compute_c)
        return cmd_verify(cfg, outdir, out, args.json)
    except (ConfigError, NotTonelliError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        if exc.budget:
            for k, v in sorted(exc.budget.items()):
                print(f"  budget {k} = {v!r}", file=sys.stderr)
        return 1
    except WeakKamError as exc:
        print(f"numeric refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
