"""Command-line front end.

Subcommands chain the pipeline stages — critical value, Aubry mask, strict
subsolution, two-sided regularization — and persist every stage as CSV plus
a JSON manifest.  `verify` runs the whole invariant battery on one config
and emits a deterministic scoreboard.

Exit codes: 0 every certificate passed, 1 a certificate failed, 2 the
configuration was invalid (including capability refusals such as asking a
non-Tonelli model for a characteristic flow), 3 a numeric refusal
(subcritical level, empty mask, off-ladder time).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .aubry import (build_library, build_w, classical_aubry, detect_aubry,
                    lax_extension, verify_member)
from .config import (RunConfig, build_environment, build_grid, build_model,
                     config_hash, default_config_text, load_config,
                     manifest_json, parse_config_text)
from .errors import (CertificateFailure, ConfigError, NotTonelliError,
                     WeakKamError)
from .grid import GridFn, save_gridfn_csv
from .hamiltonian import kappa, lipschitz_radius
from .metric import check_subsolution, critical_value_free, semidistance
from .semigroup import (build_kernel, check_corrector, check_monotone_semigroup,
                        discrete_critical_value, lax_minus, refold_kernel)
from .subsol import (build_strict_convex, build_strict_strictly_convex,
                     check_strict, truncation_budget)
from .tonelli import (FlowState, bernard_regularize, flow_integrate,
                      kernel_semiconcavity, regular_window)

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
    """Kernel with the exact discrete critical value folded in."""
    kern0 = crit.get("kernel")
    if kern0 is None:
        kern0 = build_kernel(model, env, grid, cfg.get("ladder", "dt"),
                             crit["theta"])
    return refold_kernel(kern0, crit["c_disc"])


def stage_aubry(cfg: RunConfig, env, model, grid, kern) -> dict:
    a = kern.shift
    lib = build_library(model, a, env, kern,
                        n_seeds=cfg.get("tolerances", "n_seeds"))
    w = build_w(lib)
    eps_raw = cfg.get("tolerances", "eps_aubry")
    eps = None if eps_raw == "auto" else float(eps_raw)
    am = detect_aubry(w, kern, a, cfg.get("ladder", "t_max"), eps=eps)
    return {"library": lib, "w": w, "mask": am}


def stage_strict(cfg: RunConfig, env, model, grid, kern, aub: dict) -> dict:
    a = kern.shift
    w, am = aub["w"], aub["mask"]
    tau = cfg.get("tolerances", "tau")
    m_terms = cfg.get("tolerances", "m_terms")
    r_kappa = lipschitz_radius(kappa(model, a, env), model)
    budget = {"travel": tau * r_kappa,
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
    if model.strictly_convex:
        branch = "time-mix"
        w_eps = build_strict_strictly_convex(w, kern, a, tau, m_terms)
    else:
        branch = "sup-convolution"
        w_eps = build_strict_convex(w, kern, a, cfg.get("tolerances", "delta"),
                                    tau, m_terms, r_kappa=r_kappa)
    sub_ok, worst = verify_member(w_eps, kern, a)
    sup_change = float(np.max(np.abs(w_eps.values - w.values)))
    mask_eps = am.eps
    mask_agree = (float(np.max(np.abs(w_eps.values[am.mask] - w.values[am.mask])))
                  if am.mask.any() else 0.0)
    cert = check_strict(w_eps, model, env, am, cfg.get("tolerances", "d0"), a=a)
    passed = bool(sub_ok and sup_change <= budget["total"] + 1e-12
                  and mask_agree <= mask_eps and cert.passed)
    return {"w_eps": w_eps, "branch": branch, "budget": budget,
            "r_kappa": r_kappa, "sub_ok": sub_ok, "edge_violation": worst,
            "sup_change": sup_change, "mask_agreement": mask_agree,
            "mask_eps": mask_eps, "strict_cert": cert, "passed": passed}


def _smoothing_ladder(kern, model, env, grid, s: float, t: float):
    """Return a kernel whose ladder contains both smoothing times.

    The working ladder serves when s and t are multiples of its step;
    otherwise a dedicated finer ladder with dt = min(s, t) is built at the
    same folding level and width parameter.
    """
    def _on_ladder(dt):
        for val in (s, t):
            k = round(val / dt)
            if k < 1 or abs(k * dt - val) > 1e-12 * max(val, dt):
                return False
        return True

    if _on_ladder(kern.dt):
        return kern
    fine = build_kernel(model, env, grid, dt=min(s, t), theta=kern.theta)
    return refold_kernel(fine, kern.shift)


def stage_regularize(cfg: RunConfig, env, model, grid, kern, aub: dict,
                     strict: dict) -> dict:
    a = kern.shift
    kappa0 = kappa(model, a, env)
    window = regular_window(kappa0, cfg.get("tolerances", "lam"), model, env)
    s_raw = cfg.get("tolerances", "s")
    t_raw = cfg.get("tolerances", "t")
    s = window.t0 if s_raw == "auto" else float(s_raw)
    t = window.t0 if t_raw == "auto" else float(t_raw)
    stage_warnings = []
    if max(s, t) > window.t0 + 1e-12:
        stage_warnings.append(
            f"smoothing times s={s!r}, t={t!r} exceed the certified window "
            f"t0={window.t0!r}; curvature certificates are not guaranteed")
    k_use = _smoothing_ladder(kern, model, env, grid, s, t)
    k_t = max(kernel_semiconcavity(k_use, time) for time in {s, t})
    bound = max(window.a_const, k_t)
    w_eps, report = bernard_regularize(
        strict["w_eps"], k_use, a, s, t, mask=aub["mask"],
        d0=cfg.get("tolerances", "d0"),
        strict_input=strict["strict_cert"].passed,
        curvature_bound=bound, r_kappa=strict["r_kappa"])
    report.warnings.extend(stage_warnings)
    return {"w_reg": w_eps, "report": report, "window": window,
            "k_t": k_t, "curvature_bound": bound,
            "smoothing_dt": k_use.dt}


# -- persistence -------------------------------------------------------------


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def write_mask_csv(am, path) -> None:
    grid = am.grid
    with open(path, "w") as fh:
        fh.write(f"# aubry mask dim={grid.dim} n={grid.n}\n")
        fh.write(f"# eps={am.eps!r} test_times={','.join(repr(float(t)) for t in am.test_times)}\n")
        cols = ",".join(f"x{a}" for a in range(grid.dim))
        fh.write(f"index,{cols},residual,in_half,in_one,in_two\n")
        pts = grid.points()
        half, one, two = (am.thresholds[k] for k in ("half", "one", "two"))
        for i in range(grid.size):
            coord = ",".join(repr(float(c)) for c in pts[i])
            fh.write(f"{i},{coord},{float(am.residual[i])!r},"
                     f"{int(half[i])},{int(one[i])},{int(two[i])}\n")


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


def _load_critical_cache(outdir: str) -> dict | None:
    path = os.path.join(outdir, "critical.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _critical_results(crit: dict) -> dict:
    return {k: crit[k] for k in
            ("c_bisect", "lo", "hi", "iterations", "bracket_width",
             "c_disc", "theta")}


def _write_critical_cache(outdir: str, cfg: RunConfig, results: dict) -> str:
    path = os.path.join(outdir, "critical.json")
    with open(path, "w") as fh:
        fh.write(manifest_json({"config_hash": config_hash(cfg),
                                "critical": results}))
    return path


def _get_critical(cfg, env, model, grid, outdir, compute_c: bool,
                  out) -> dict:
    cached = _load_critical_cache(outdir)
    if cached is not None and cached.get("config_hash") == config_hash(cfg):
        return dict(cached["critical"])
    if not compute_c:
        raise ConfigError(
            f"no cached critical value for this config in {outdir}; "
            f"run the 'critical' command first or pass --compute-c")
    out("no usable critical cache; computing the level first")
    crit = stage_critical(cfg, env, model, grid)
    _write_critical_cache(outdir, cfg, _critical_results(crit))
    return crit


# -- commands ----------------------------------------------------------------


def cmd_critical(cfg: RunConfig, outdir: str, out) -> int:
    env = build_environment(cfg)[1]
    model = build_model(cfg)
    grid = build_grid(cfg)
    crit = stage_critical(cfg, env, model, grid)
    results = _critical_results(crit)
    cache_path = _write_critical_cache(outdir, cfg, results)
    manifest = _write_manifest(outdir, "critical", cfg, results,
                               [cache_path])
    out(f"critical value: {crit['c_bisect']!r} in "
        f"[{crit['lo']!r}, {crit['hi']!r}] "
        f"(bracket {crit['bracket_width']!r}, ladder fold {crit['c_disc']!r})")
    out(f"manifest: {manifest}")
    return 0


def cmd_aubry(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    env = build_environment(cfg)[1]
    model = build_model(cfg)
    grid = build_grid(cfg)
    crit = _get_critical(cfg, env, model, grid, outdir, compute_c, out)
    kern = stage_kernel(cfg, env, model, grid, crit)
    aub = stage_aubry(cfg, env, model, grid, kern)
    am, w = aub["mask"], aub["w"]
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
    manifest = _write_manifest(outdir, "aubry", cfg, results,
                               [mask_path, w_path, res_path])
    out(f"aubry mask: {int(am.mask.sum())} of {grid.size} cells at "
        f"eps={am.eps!r} (level {kern.shift!r})")
    out(f"manifest: {manifest}")
    return 0


def cmd_strict(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    env = build_environment(cfg)[1]
    model = build_model(cfg)
    grid = build_grid(cfg)
    crit = _get_critical(cfg, env, model, grid, outdir, compute_c, out)
    kern = stage_kernel(cfg, env, model, grid, crit)
    aub = stage_aubry(cfg, env, model, grid, kern)
    strict = stage_strict(cfg, env, model, grid, kern, aub)
    w_path = os.path.join(outdir, "strict_w_eps.csv")
    save_gridfn_csv(strict["w_eps"], w_path)
    grads = strict["w_eps"].central_gradient()
    margin = kern.shift - np.asarray(
        model.eval_H(grid.points(), grads, env), dtype=float)
    margin_path = os.path.join(outdir, "strict_margin.csv")
    save_gridfn_csv(GridFn(grid, margin), margin_path)
    cert = strict["strict_cert"]
    report_path = os.path.join(outdir, "strict_report.txt")
    lines = [
        f"branch: {strict['branch']}",
        f"subsolution edges: {'PASS' if strict['sub_ok'] else 'FAIL'} "
        f"(worst violation {strict['edge_violation']!r})",
        f"sup change {strict['sup_change']!r} <= budget {strict['budget']['total']!r}: "
        f"{'PASS' if strict['sup_change'] <= strict['budget']['total'] + 1e-12 else 'FAIL'}",
        f"mask agreement {strict['mask_agreement']!r} <= {strict['mask_eps']!r}: "
        f"{'PASS' if strict['mask_agreement'] <= strict['mask_eps'] else 'FAIL'}",
        f"strict margin delta={cert.delta!r} at d0={cert.d0!r} "
        f"over {cert.n_region} cells: {'PASS' if cert.passed else 'FAIL'}",
    ]
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    manifest = _write_manifest(outdir, "strict", cfg, results,
                               [w_path, margin_path, report_path])
    for line in lines:
        out(line)
    out(f"manifest: {manifest}")
    return 0 if strict["passed"] else 1


def cmd_regularize(cfg: RunConfig, outdir: str, out, compute_c: bool) -> int:
    env = build_environment(cfg)[1]
    model = build_model(cfg)
    grid = build_grid(cfg)
    crit = _get_critical(cfg, env, model, grid, outdir, compute_c, out)
    kern = stage_kernel(cfg, env, model, grid, crit)
    aub = stage_aubry(cfg, env, model, grid, kern)
    strict = stage_strict(cfg, env, model, grid, kern, aub)
    reg = stage_regularize(cfg, env, model, grid, kern, aub, strict)
    rep = reg["report"]
    w_path = os.path.join(outdir, "regularized.csv")
    save_gridfn_csv(reg["w_reg"], w_path)
    report_path = os.path.join(outdir, "regularize_report.txt")
    lines = [
        f"subsolution edges: {'PASS' if rep.subsolution_ok else 'FAIL'} "
        f"(worst {rep.edge_violation!r})",
        f"two-sided curvature [{rep.curvature.k_lower!r}, {rep.curvature.k_upper!r}] "
        f"within {reg['curvature_bound']!r}: "
        f"{'PASS' if rep.curvature_ok else 'FAIL'}",
        f"sup change {rep.sup_change!r} <= {rep.sup_bound!r}: "
        f"{'PASS' if rep.sup_ok else 'FAIL'}",
        f"mask agreement {rep.mask_agreement!r} <= {rep.mask_eps!r}: "
        f"{'PASS' if rep.mask_ok else 'FAIL'}",
        f"strict margin delta={rep.strictness.delta!r}: "
        f"{'PASS' if rep.strict_ok else 'FAIL'}",
    ]
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    results = {
        "s": rep.s, "t": rep.t,
        "edge_violation": rep.edge_violation,
        "k_lower": rep.curvature.k_lower, "k_upper": rep.curvature.k_upper,
        "curvature_bound": reg["curvature_bound"],
        "window_t0": reg["window"].t0, "window_a": reg["window"].a_const,
        "smoothing_dt": reg["smoothing_dt"],
        "sup_change": rep.sup_change, "sup_bound": rep.sup_bound,
        "mask_agreement": rep.mask_agreement,
        "delta": rep.strictness.delta,
        "warnings": rep.warnings,
        "passed": rep.passed,
    }
    manifest = _write_manifest(outdir, "regularize", cfg, results,
                               [w_path, report_path])
    for line in lines:
        out(line)
    out(f"manifest: {manifest}")
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

    env = build_environment(cfg)[1]
    model = build_model(cfg)
    grid = build_grid(cfg)
    tol_b = cfg.get("tolerances", "tol_bisect")
    t_max = cfg.get("ladder", "t_max")

    crit = stage_critical(cfg, env, model, grid)
    kern = stage_kernel(cfg, env, model, grid, crit)
    a = kern.shift
    aub = stage_aubry(cfg, env, model, grid, kern)
    w, am = aub["w"], aub["mask"]

    run("critical_bracket_width", lambda: (
        crit["bracket_width"] <= 2 * tol_b + 1e-12,
        f"c={crit['c_bisect']!r} width={crit['bracket_width']!r}"))
    run("graph_vs_ladder_level_gap", lambda: (
        abs(crit["c_disc"] - crit["c_bisect"])
        <= max(0.02, crit["bracket_width"]),
        f"gap={abs(crit['c_disc'] - crit['c_bisect'])!r}"))

    def _edges():
        ok, worst = verify_member(w, kern, a)
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
        rep = check_monotone_semigroup(w, kern, a, kern.ladder(t_max))
        return rep.passed, f"min_increment={rep.min_increment!r}"
    run("monotone_level_adjusted_images", _monotone)

    run("mask_nonempty_zero_residual", lambda: (
        bool(am.mask.any())
        and float(np.max(am.residual[am.mask],
                         initial=-np.inf)) <= am.eps,
        f"cells={int(am.mask.sum())} eps={am.eps!r}"))

    def _classical_subset():
        closed = classical_aubry(kern)
        det = am.mask.reshape(grid.shape)
        dil = det.copy()
        for ax in range(grid.dim):
            dil |= np.roll(det, 1, axis=ax) | np.roll(det, -1, axis=ax)
        ok = bool(np.all(dil.ravel()[closed]))
        return ok, f"closed_orbit_cells={int(closed.sum())}"
    run("closed_orbits_inside_mask", _classical_subset)

    def _extension():
        u = lax_extension(w, am.mask, model, a, env, kernel=kern)
        tail = [t for t in kern.ladder(t_max) if t >= 0.49 * t_max]
        r_k = lipschitz_radius(kappa(model, a, env), model)
        tol = 1.5 * grid.h * r_k
        rep = check_corrector(u, kern, a, tail, tol=tol)
        return rep.passed, f"residual={float(rep.residuals.max())!r} tol={tol!r}"
    run("mask_extension_is_corrector", _extension)

    def _reversal():
        from .hamiltonian import reversed_model

        kr = build_kernel(reversed_model(model), env, grid, kern.dt,
                          kern.theta, shift=kern.shift).reversed()
        # the reversed model's edge x -> y, turned around, must price y -> x
        # as the kernel does; offsets are matched mod n (+-n/2 is one move)
        rows = [{tuple(k % grid.n): w for k, w in zip(st.offsets, st.weights)}
                for st in (kern, kr)]
        moves = sorted(rows[0].keys() | rows[1].keys())
        none = np.full(grid.size, np.inf)
        fwd, rev = (np.array([r.get(k, none) for k in moves]) for r in rows)
        both = np.isfinite(fwd) & np.isfinite(rev)
        only = np.isfinite(fwd) ^ np.isfinite(rev)
        gap = float(np.max(np.abs(fwd[both] - rev[both])))
        return gap <= 1e-9 and not only.any(), f"gap={gap!r}"
    run("reversal_transposes_kernel", _reversal)

    def _triangle():
        seeds = [0, grid.size // 3, (2 * grid.size) // 3]
        sd = semidistance(model, a, seeds, env, grid, offsets=kern.offsets)
        rng = np.random.default_rng(3)
        worst = -np.inf
        for _ in range(200):
            i = rng.integers(len(seeds))
            x = int(rng.integers(grid.size))
            kseed = int(rng.integers(len(seeds)))
            z = int(sd.source_indices[kseed])
            lhs = sd.values[i, x]
            rhs = sd.values[i, z] + sd.values[kseed, x]
            worst = max(worst, float(lhs - rhs))
        return worst <= 1e-9, f"worst_excess={worst!r}"
    run("semidistance_triangle", _triangle)

    try:
        strict = stage_strict(cfg, env, model, grid, kern, aub)
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
        reg = stage_regularize(cfg, env, model, grid, kern, aub, strict)
        rep = reg["report"]
        detail = (f"k=[{rep.curvature.k_lower!r}, {rep.curvature.k_upper!r}] "
                  f"bound={reg['curvature_bound']!r}")
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

    return rows


def cmd_verify(cfg: RunConfig, outdir: str, out, as_json: bool) -> int:
    rows = _battery(cfg)
    report_lines = [f"{status:4s} {name}  {detail}" for name, status, detail in rows]
    n_fail = sum(1 for _, status, _ in rows if status == "FAIL")
    report_lines.append(f"==== {len(rows) - n_fail}/{len(rows)} checks passed")
    report_path = os.path.join(outdir, "verify_report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    results = {name: {"status": status, "detail": detail}
               for name, status, detail in rows}
    manifest = _write_manifest(outdir, "verify", cfg, results, [report_path])
    if as_json:
        out(manifest_json({"checks": results, "config_hash": config_hash(cfg)})
            .rstrip("\n"))
    else:
        for line in report_lines:
            out(line)
        out(f"manifest: {manifest}")
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
