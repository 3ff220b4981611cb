"""Acceptance battery: one test and one scoreboard line per criterion.

Every test measures against an independent oracle or an a-priori budget,
records its verdict via the shared scoreboard hook, and then asserts.  The
pinned tolerances live next to each measurement; frozen reference values
protect against silent drift in follow-up asserts.
"""

import json
import math
import os

import numpy as np
import pytest
from conftest import record_criterion
from oracles import lifted_mask_deviation, mask_gradient_agreement, min_image

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry, verify_member
from weakkam.cli import main
from weakkam.env import ky_fan_distance
from weakkam.grid import GridFn, GridSpec
from weakkam.hamiltonian import (eikonal_model, kappa, lipschitz_radius,
                                 mechanical_model, nonstrict_model,
                                 reversed_model)
from weakkam.metric import (build_cost_graph, critical_value_free,
                            critical_value_stationary, semidistance)
from weakkam.semigroup import (build_kernel, check_corrector,
                               check_monotone_semigroup,
                               discrete_critical_value, refold_kernel)
from weakkam.subsol import (build_strict_convex, build_strict_strictly_convex,
                            check_strict, density_mix, truncation_budget)
from weakkam.tonelli import (FlowState, bernard_regularize, contraction_check,
                             flow_integrate, kernel_semiconcavity, regular_window)


@pytest.fixture(scope="module")
def pend256():
    """Desk-scale pendulum pipeline: n=256, dt=1/64, exact folded level."""
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (1.0,)})
    env = wk.sample_realization(spec, 0)
    model = wk.mechanical_model(dim=1, field_bound=1.0)
    grid = GridSpec(dim=1, n=256)
    raw = build_kernel(model, env, grid, dt=1.0 / 64.0,
                       theta=kappa(model, 1.02, env) + 1.0)
    c = discrete_critical_value(raw)
    kern = refold_kernel(raw, c)
    lib = build_library(kern, n_seeds=4)
    w = build_w(lib)
    mask = detect_aubry(w, kern, 4.0)
    return {"spec": spec, "env": env, "model": model, "grid": grid,
            "raw": raw, "kernel": kern, "c": c, "lib": lib, "w": w,
            "mask": mask}


def test_criterion_01_free_action_oracle(flat64):
    grid = GridSpec(dim=1, n=256)
    kern = build_kernel(flat64["model"], flat64["env"], grid,
                        dt=1.0 / 64.0, theta=1.02)
    table = kern.at(1.0)
    pts = grid.points()
    gap = min_image(pts[None, :, :] - pts[:, None, :])[..., 0]
    err = float(np.max(np.abs(table - gap * gap / 2.0)))
    passed = err <= 5e-2
    record_criterion(1, "free-action-oracle", passed,
                     f"max |h_1 - d^2/2| = {err:.6g} <= 5e-2 at n=256, dt=1/64")
    assert passed
    # midpoint quadrature of the pure kinetic action: error is exactly
    # (h/dt)^2 t / 8 at this resolution
    assert err == (grid.h / kern.dt) ** 2 / 8.0


def test_criterion_02_pendulum_critical_value(pend256):
    res = critical_value_free(pend256["model"], pend256["env"],
                              pend256["grid"], tol_bisect=5e-3)
    err = abs(res.value - 1.0)
    passed = err <= 2e-2 and res.bracket_width <= 1e-2
    record_criterion(2, "pendulum-critical-value", passed,
                     f"|c_hat - 1| = {err:.6g} <= 2e-2, "
                     f"bracket {res.bracket_width:.6g} <= 1e-2")
    assert passed
    assert res.value == 0.99853515625
    assert res.lo == 0.9970703125 and res.hi == 1.0
    # the ladder fold lands on the exact value
    assert pend256["c"] == 1.0


def test_criterion_03_aubry_detection(pend256, flat64):
    checks = []
    # cosine well: single hilltop cell at every threshold
    pm = pend256["mask"]
    checks.append(list(pm.indices()) == [0])
    checks.append(all(np.array_equal(pm.thresholds[k], pm.mask)
                      for k in ("half", "one", "two")))
    # zero field: the whole torus, level exactly 0
    grid256 = GridSpec(dim=1, n=256)
    kf = build_kernel(flat64["model"], flat64["env"], grid256,
                      dt=1.0 / 64.0, theta=1.02)
    assert discrete_critical_value(kf) == 0.0
    fm = detect_aubry(GridFn.zeros(grid256), refold_kernel(kf, 0.0), 2.0)
    checks.append(bool(fm.mask.all()))
    checks.append(all(np.array_equal(fm.thresholds[k], fm.mask)
                      for k in ("half", "one", "two")))
    # speed-limited model: mask within one cell of the slowest point
    me = eikonal_model(dim=1, offset=2.0, field_bound=1.0)
    rawe = build_kernel(me, pend256["env"], grid256, dt=1.0 / 128.0, theta=3.0)
    ce = discrete_critical_value(rawe)
    assert ce == -1.0
    ke = refold_kernel(rawe, ce)
    we = build_w(build_library(ke, n_seeds=4))
    em = detect_aubry(we, ke, 2.0)
    slowest = 128  # argmin of the speed field at x = 1/2
    checks.append(set(em.indices()) <= {slowest - 1, slowest, slowest + 1}
                  and slowest in em.indices())
    checks.append(all(np.array_equal(em.thresholds[k], em.mask)
                      for k in ("half", "one", "two")))
    passed = all(checks)
    record_criterion(3, "aubry-detection", passed,
                     f"pendulum {{0}}, zero-field full torus, speed-limited "
                     f"{sorted(int(i) for i in em.indices())} ~ {{{slowest}}} +- 1 "
                     f"cell; all three thresholds agree")
    assert passed


def test_criterion_04_semigroup_laws(pend256, pendulum_corrector):
    kern, c, grid = pend256["kernel"], pend256["c"], pend256["grid"]
    times = kern.ladder(1.0)
    five = pend256["lib"].members[:4] + [GridFn.zeros(grid)]
    reports = [check_monotone_semigroup(v, kern, times) for v in five]
    worst_inc = min(rep.min_increment for rep in reports)
    mono_ok = all(rep.passed for rep in reports) and worst_inc >= -1e-9
    u = GridFn(grid, pendulum_corrector(grid.points()[:, 0]))
    r_hat = lipschitz_radius(kappa(pend256["model"], c + 0.02, pend256["env"]),
                             pend256["model"])
    tol = 1.5 * grid.h * r_hat
    rep = check_corrector(u, kern, times, tol)
    resid = float(np.max(rep.residuals))
    passed = mono_ok and rep.passed
    record_criterion(4, "semigroup-laws", passed,
                     f"5 subsolutions monotone (worst increment {worst_inc:.2e} "
                     f">= -1e-9); corrector residual {resid:.6g} <= {tol:.6g}")
    assert passed
    assert resid <= 0.003  # frozen: 0.00263 at n=256


def test_criterion_05_metric_consistency(pend256):
    kern, c, grid = pend256["kernel"], pend256["c"], pend256["grid"]
    model, env = pend256["model"], pend256["env"]
    rng = np.random.default_rng(0)
    sources = sorted(set(int(v) for v in rng.integers(0, grid.size, 8)))
    sd = semidistance(build_cost_graph(model, c, env, grid, kern.offsets), sources)
    # ladder minima h_t(y, x) from the sampled sources only
    folded = np.min([kern.walk_costs(sources, kern.steps_of(t))
                     for t in kern.ladder(4.0)], axis=0)
    pairs = [(row, int(x)) for row in range(len(sources))
             for x in rng.integers(0, grid.size, 50 // len(sources) + 1)][:50]
    gaps = [sd[row, x] - folded[row, x] for row, x in pairs]
    two_route = float(np.max(np.abs(gaps)))
    tol = 2.0 * grid.h * kern.speed_radius + 4.0 * kern.kappa * kern.dt
    # the metric route can only under-price the ladder route
    one_sided = float(np.max(gaps))
    tri_worst, count = -np.inf, 0
    for i in range(len(sources)):
        for k in range(len(sources)):
            if i == k or count >= 200:
                continue
            for x in rng.integers(0, grid.size, 4):
                tri_worst = max(tri_worst, sd[i, int(x)]
                                - sd[i, sources[k]]
                                - sd[k, int(x)])
                count += 1
    passed = (two_route <= tol and one_sided <= 1e-9
              and count >= 200 and tri_worst <= 1e-9)
    record_criterion(5, "metric-consistency", passed,
                     f"50 pairs |S - ladder min| = {two_route:.6g} <= {tol:.6g}; "
                     f"triangle worst {tri_worst:.2e} <= 1e-9 on {count} triples")
    assert passed
    assert two_route <= 0.03  # frozen: 0.0237 at n=256


def test_criterion_06_strictness_pipeline(pend256):
    kern, grid, w, mask, env = (pend256[k] for k in
                                ("kernel", "grid", "w", "mask", "env"))
    tau, m_terms, eps_a = 0.125, 6, 1e-6
    checks = {}
    v = build_strict_strictly_convex(w, kern, tau, m_terms)
    budget = tau * kern.speed_radius + truncation_budget(w, m_terms)
    sup = float(np.max(np.abs(v.values - w.values)))
    agree = float(np.max(np.abs(v.values[mask.mask] - w.values[mask.mask])))
    cert = check_strict(v, kern, mask.mask, 0.1)
    checks["time-mix"] = (sup <= budget and agree <= eps_a
                          and cert.passed and cert.delta > 0)
    mn = nonstrict_model(dim=1, field_bound=1.0)
    rawn = build_kernel(mn, env, grid, dt=kern.dt, theta=3.0)
    cn = discrete_critical_value(rawn)
    kn = refold_kernel(rawn, cn)
    wn = build_w(build_library(kn, n_seeds=4))
    maskn = detect_aubry(wn, kn, 4.0)
    delta_pen = 0.05
    r_kn = kn.speed_radius
    vn = build_strict_convex(wn, kn, delta_pen, tau, m_terms)
    budget_n = tau * r_kn + truncation_budget(wn, m_terms) + 2 * delta_pen * r_kn
    sup_n = float(np.max(np.abs(vn.values - wn.values)))
    agree_n = float(np.max(np.abs(vn.values[maskn.mask] - wn.values[maskn.mask])))
    cert_n = check_strict(vn, kn, maskn.mask, 0.1)
    checks["sup-convolution"] = (sup_n <= budget_n and agree_n <= eps_a
                                 and cert_n.passed and cert_n.delta > 0)
    passed = all(checks.values())
    record_criterion(6, "strictness-pipeline", passed,
                     f"time-mix delta {cert.delta:.4g}, sup {sup:.4g} <= "
                     f"{budget:.4g}; sup-convolution delta {cert_n.delta:.4g}, "
                     f"sup {sup_n:.4g} <= {budget_n:.4g}; mask moves <= {eps_a}")
    assert passed
    assert cert.delta == pytest.approx(0.134716, abs=1e-4)
    assert cert_n.delta == pytest.approx(0.196792, abs=1e-4)


def test_criterion_07_bernard_regularization(pend256):
    kern, c, grid, w, mask = (pend256[k] for k in
                              ("kernel", "c", "grid", "w", "mask"))
    model, env = pend256["model"], pend256["env"]
    v_strict = build_strict_strictly_convex(w, kern, 0.125, 6)
    win = regular_window(kern, 1.0)
    fine = refold_kernel(build_kernel(model, env, grid, dt=win.t0,
                                      theta=kern.theta), c)
    bound = max(win.a_const, kernel_semiconcavity(fine, win.t0))
    r_k = kern.speed_radius
    _, rep = bernard_regularize(v_strict, fine, win.t0, win.t0, mask=mask.mask, d0=0.1,
                                strict_input=True, window=win)
    two_sided = max(abs(rep.curvature.k_upper), abs(rep.curvature.k_lower))
    passed = (rep.passed and rep.subsolution_ok and rep.curvature_ok
              and rep.sup_ok and rep.mask_ok and rep.strict_ok
              and rep.curvature_bound == bound
              and np.isfinite(two_sided) and two_sided <= bound
              and rep.sup_change <= (rep.s + rep.t) * r_k)
    record_criterion(7, "bernard-regularization", passed,
                     f"five certificates PASS at s=t={win.t0}; curvature "
                     f"{two_sided:.4g} <= max(A, K_t) = {bound:.4g}; sup move "
                     f"{rep.sup_change:.3g} <= (t+s)R = {rep.sup_bound:.4g}")
    assert passed
    assert win.t0 == 2.0**-8 and rep.warnings == []


def test_criterion_08_contraction_window(pend256):
    model, env = pend256["model"], pend256["env"]
    win = regular_window(pend256["kernel"], 1.0)
    rep = contraction_check(win, model, env)
    drift = flow_integrate(model, env, FlowState([0.25], [0.5]),
                           10.0, 1e-3).drift
    passed = rep.passed and rep.lipschitz <= 0.5 and drift <= 1e-6
    record_criterion(8, "contraction-window", passed,
                     f"Lip(R_t0 - id) = {rep.lipschitz:.6g} <= 1/2 over "
                     f"{rep.n_pairs} pairs; energy drift {drift:.3g} <= 1e-6 "
                     f"over t=10 at dt=1e-3")
    assert passed
    assert rep.lipschitz == pytest.approx(0.0041605, abs=1e-5)


def test_criterion_09_aubry_rigidity(pend256):
    kern, c, grid, mask = (pend256[k] for k in ("kernel", "c", "grid", "mask"))
    model, env = pend256["model"], pend256["env"]
    rows = semidistance(build_cost_graph(model, c, env, grid, kern.offsets), [0, 64])
    rev = semidistance(build_cost_graph(reversed_model(model), c, env, grid, kern.offsets), [0])
    members = [GridFn(grid, rows[0]).normalized_at_origin(),
               GridFn(grid, rows[1]).normalized_at_origin(),
               GridFn(grid, -rev[0]).normalized_at_origin()]
    verdicts = [verify_member(v, kern) for v in members]
    agree = mask_gradient_agreement(members, mask.mask)
    mean = GridFn(grid, np.mean([v.values for v in members], axis=0))
    mean_ok, _ = verify_member(mean, kern)
    lifted = lifted_mask_deviation(mask.mask, mean, model, env, t_span=1.0, dt=1e-3)
    passed = (all(ok for ok, _ in verdicts) and mean_ok
              and agree <= 4 * grid.h and lifted <= 2 * grid.h)
    record_criterion(9, "aubry-rigidity", passed,
                     f"3 certified subsolutions: gradients agree on the mask "
                     f"within {agree:.3g} <= 4h = {4 * grid.h}; lifted-mask "
                     f"flow deviation {lifted:.3g} <= 2h = {2 * grid.h} "
                     f"for |t| <= 1")
    assert passed
    assert max(worst for _, worst in verdicts) == 0.0  # frozen: exact edges


def test_criterion_10_density():
    grid = GridSpec(dim=1, n=64)
    spec = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                      params={"k_max": 3, "amplitude": 0.5, "decay": 1.0})
    cache = {}

    def pipeline(omega):
        if omega.index not in cache:
            model = mechanical_model(dim=1, field_bound=omega.field_bound())
            theta = kappa(model, omega.field_bound() + 0.02, omega) + 1.0
            raw = build_kernel(model, omega, grid, dt=1.0 / 64.0, theta=theta)
            kern = refold_kernel(raw, discrete_critical_value(raw))
            w = build_w(build_library(kern, n_seeds=4))
            v = build_strict_strictly_convex(w, kern, 0.125, 6)
            cache[omega.index] = (w, v)
        return cache[omega.index]

    n_samples = 32
    budget = max(float(np.max(np.abs(pipeline(wk.sample_realization(spec, i))[1].values
                                     - pipeline(wk.sample_realization(spec, i))[0].values)))
                 for i in range(n_samples))
    n_star = math.ceil(budget / 1e-2)
    ladder = sorted({1, 2, 4, n_star, 2 * n_star})
    values = [ky_fan_distance(spec,
                              lambda om, k=n: density_mix(pipeline(om)[1],
                                                          pipeline(om)[0], k),
                              lambda om: pipeline(om)[0], n_samples)[0]
              for n in ladder]
    monotone = all(values[i + 1] <= values[i] + 1e-15
                   for i in range(len(values) - 1))
    at_star = values[ladder.index(n_star)]
    passed = monotone and at_star < 1e-2
    record_criterion(10, "density", passed,
                     f"Ky Fan over {n_samples} sampled realizations decreases "
                     f"along n={ladder} to {at_star:.6g} < 1e-2 at the derived "
                     f"n* = ceil({budget:.4g}/1e-2) = {n_star}")
    assert passed
    assert n_star == 5


def test_criterion_11_stationary_concentration():
    spec = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                      params={"k_max": 6, "amplitude": 0.5, "decay": 1.0,
                              "period": 16.0})
    model = mechanical_model(dim=1, field_bound=0.5)
    res = critical_value_stationary(model, spec, 8, (2.0, 4.0, 8.0),
                                    points_per_unit=24, tol_bisect=5e-3)
    spreads = [float(s) for s in res.spreads]
    # 10% slack absorbs bisection quantization of the per-box estimates
    monotone = all(spreads[j + 1] <= spreads[j] * 1.10
                   for j in range(len(spreads) - 1))
    halved = spreads[-1] < spreads[0] / 2.0
    passed = monotone and halved
    record_criterion(11, "stationary-concentration", passed,
                     f"cross-realization spreads {[f'{s:.4g}' for s in spreads]} "
                     f"shrink monotonically (10% slack) and more than halve "
                     f"over radii (2, 4, 8), 8 realizations")
    assert passed
    assert spreads == pytest.approx([0.46984, 0.26448, 0.16868], abs=1e-4)


def test_criterion_12_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nn = 64\n\n[ladder]\ndt = 0.015625\nt_max = 2.0\n")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    rc_a = main(["verify", str(cfg), "--outdir", out_a])
    rc_b = main(["verify", str(cfg), "--outdir", out_b])
    capsys.readouterr()
    report_a = open(os.path.join(out_a, "verify_report.txt"), "rb").read()
    report_b = open(os.path.join(out_b, "verify_report.txt"), "rb").read()
    man_a = json.load(open(os.path.join(out_a, "manifest_verify.json")))
    man_b = json.load(open(os.path.join(out_b, "manifest_verify.json")))
    statuses = {row["status"] for row in man_a["results"].values()}
    passed = (rc_a == rc_b == 0 and report_a == report_b
              and man_a["results"] == man_b["results"]
              and man_a["config_hash"] == man_b["config_hash"]
              and statuses == {"PASS"})
    record_criterion(12, "determinism", passed,
                     f"verify twice: byte-identical report "
                     f"({len(report_a)} bytes), equal manifest results, "
                     f"{len(man_a['results'])} checks PASS")
    assert passed
