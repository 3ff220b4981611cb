"""Characteristic flows, curvature estimates, windows, two-sided smoothing."""

import tracemalloc

import numpy as np
import pytest
from conftest import CountingField, verify_config, walk_table
from oracles import (check_envelope_identity, lifted_mask_deviation,
                     mask_gradient_agreement, min_image,
                     verify_minimizer_is_characteristic)

import weakkam as wk
from weakkam.config import build_environment, build_grid, build_model, parse_config_text
from weakkam.errors import ConfigError, NotTonelliError
from weakkam.grid import GridFn, GridSpec
from weakkam.hamiltonian import (eikonal_model, kappa, lipschitz_radius, mechanical_model,
                                 reversed_model, tilted_mechanical_model)
from weakkam.semigroup import build_kernel, refold_kernel
from weakkam.subsol import build_strict_strictly_convex
from weakkam.tonelli import (FlowState, bernard_regularize, contraction_check,
                             estimate_semiconcavity, flow_integrate,
                             kernel_semiconcavity, regular_window)


def test_non_tonelli_models_are_refused(flat64):
    model = eikonal_model(dim=1, offset=2.0, field_bound=1.0)
    env = flat64["env"]
    with pytest.raises(NotTonelliError) as exc:
        flow_integrate(model, env, FlowState([0.0], [0.5]), 1.0, 1e-2)
    assert exc.value.failed_conditions
    with pytest.raises(NotTonelliError):
        regular_window(2.0, 1.0, model, env)


def test_free_particle_flow_is_exact(flat64):
    model, env = flat64["model"], flat64["env"]
    traj = flow_integrate(model, env, FlowState([0.0], [1.0]), 1.0, 1.0 / 64.0)
    # the RK4 stages are exact on a linear-in-time flow
    assert traj.xi[-1][0] == 1.0
    assert float(np.ptp(traj.eta)) == 0.0
    assert traj.drift == 0.0
    with pytest.raises(ConfigError):
        flow_integrate(model, env, FlowState([0.0], [1.0]), 1.0, 0.0)


def test_pendulum_flow_reverses_and_conserves_energy(pend64):
    model, env = pend64["model"], pend64["env"]
    fwd = flow_integrate(model, env, FlowState([0.3], [0.7]), 0.5, 1e-3)
    back = flow_integrate(model, env, FlowState(fwd.xi[-1], fwd.eta[-1]),
                          -0.5, 1e-3)
    assert abs(back.xi[-1][0] - 0.3) <= 1e-10
    assert abs(back.eta[-1][0] - 0.7) <= 1e-10
    long_run = flow_integrate(model, env, FlowState([0.25], [0.5]), 10.0, 1e-3)
    assert long_run.drift <= 1e-6


def _textbook_rk4(model, env, x, p, step, n):
    """n classical RK4 steps of xi' = H_p, eta' = -H_x on (dim,) arrays,
    the field read off the model's rate function one point at a time."""
    rate = model.rates(env)

    def rhs(x, p):
        out = np.array(rate(*x.tolist(), *p.tolist()))
        return out[:model.dim], out[model.dim:]

    xs, ps = [x], [p]
    for _ in range(n):
        k1x, k1p = rhs(x, p)
        k2x, k2p = rhs(x + 0.5 * step * k1x, p + 0.5 * step * k1p)
        k3x, k3p = rhs(x + 0.5 * step * k2x, p + 0.5 * step * k2p)
        k4x, k4p = rhs(x + step * k3x, p + step * k3p)
        x = x + step / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + step / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        xs.append(x)
        ps.append(p)
    return np.array(xs), np.array(ps)


def test_flow_steps_are_textbook_rk4(pend64):
    # one case per gradient path: cosine sums in 1D and 2D (the verify1d
    # random field among them), bump clouds in 1D and 2D, a tilt, no field
    # and the time-reversed wrapper, each run in both directions
    def field(kind, dim, params=None):
        return wk.sample_realization(
            wk.EnvSpec(kind=kind, dimension=dim, seed=3, params=params or {}), 0)

    dense = {"intensity": 4.0, "coverage": 2.0}
    env1, env2 = field("random_fourier", 1), field("random_fourier", 2)
    one, two = ([0.3], [0.7]), ([0.3, 0.6], [0.7, -0.2])
    cases = [(pend64["model"], pend64["env"], one),
             (mechanical_model(dim=1, field_bound=env1.field_bound()), env1, one),
             (mechanical_model(dim=2, field_bound=env2.field_bound()), env2, two),
             (mechanical_model(dim=1), field("poisson_bumps", 1, dense), one),
             (mechanical_model(dim=2), field("poisson_bumps", 2, dense), two),
             (tilted_mechanical_model([0.2, -0.4], dim=2), env2, two),
             (mechanical_model(dim=2), None, two),
             (reversed_model(tilted_mechanical_model([0.3], dim=1)), env1, one)]
    for model, env, (x0, p0) in cases:
        for t in (0.5, -0.5):
            traj = flow_integrate(model, env, FlowState(x0, p0), t, 1e-2)
            xs, ps = _textbook_rk4(model, env, np.array(x0), np.array(p0), t / 50, 50)
            assert np.array_equal(traj.xi, xs) and np.array_equal(traj.eta, ps)
            if env is not None:
                assert np.all(np.ptp(traj.eta, axis=0) > 0)


@pytest.mark.parametrize("label, drift", [("mechanical", 1.334971244659755e-09),
                                          ("random", 1.2299050666797484e-11),
                                          ("periodic2d", 1.470688459903613e-09)],
                         ids=["mechanical", "random", "periodic2d"])
def test_verify_drift_rows_keep_their_digits(label, drift):
    # the flow_energy_drift row of `weakkam verify` on the verify1d configs
    # and on the 2D n=16 periodic mechanical torus
    if label == "periodic2d":
        cfg = parse_config_text("[environment]\nkind = periodic\ndimension = 2\n"
                                "[grid]\ndim = 2\nn = 16\n", source=label)
    else:
        cfg = verify_config(label)
    env, model, grid = build_environment(cfg)[1], build_model(cfg), build_grid(cfg)
    pts = grid.points()
    p0 = GridFn(grid, env.evaluate(pts)).central_gradient()[grid.size // 3]
    traj = flow_integrate(model, env, FlowState(pts[grid.size // 3], p0), 10.0, 1e-3)
    assert traj.drift == drift


# Long 2D flows on the 14-mode random_fourier field (seed 3), from
# (0.3, 0.6) with momentum (0.7, -0.2), dt = 1e-3: the drift and the final
# state of each direction, untilted and tilted by (0.2, -0.4).
LONG_2D_FLOWS = {
    ("mechanical", 10.0): (6.9333427887841026e-12,
                           [-0.8858060220459757, -0.7944581962855413],
                           [-0.6616507591669034, -0.11034104125170104]),
    ("mechanical", -10.0): (1.2282397321428107e-11,
                            [-0.4954252958207003, 0.4349238852922622],
                            [0.4212553968721481, -0.09652679756518918]),
    ("tilted", 10.0): (1.757716194816794e-11,
                       [2.54492741463634, 0.7677360477866313],
                       [-0.4172764134173358, 0.09680057744288374]),
    ("tilted", -10.0): (1.7514711903032776e-11,
                        [5.697347592646675, -1.795563791960899],
                        [-1.0641671436289777, -0.07226601407322454]),
}


@pytest.mark.parametrize("name, t", sorted(LONG_2D_FLOWS))
def test_long_2d_flows_keep_their_digits(name, t):
    env = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=2, seed=3), 0)
    assert len(env.amplitudes) == 14
    bound = env.field_bound()
    model = {"mechanical": mechanical_model(dim=2, field_bound=bound),
             "tilted": tilted_mechanical_model([0.2, -0.4], dim=2, field_bound=bound)}[name]
    traj = flow_integrate(model, env, FlowState([0.3, 0.6], [0.7, -0.2]), t, 1e-3)
    drift, xi, eta = LONG_2D_FLOWS[name, t]
    assert len(traj.xi) == 10001
    assert traj.drift == drift
    assert traj.xi[-1].tolist() == xi and traj.eta[-1].tolist() == eta


def test_contraction_check_keeps_its_digits_on_the_smoothing_window():
    # the two_sided_smoothing demo's window: the cosine well at its level
    # c = 1, kappa_c = 2 and lam = 1, which gives t0 = 2^-8
    env = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                                           params={"amplitudes": (1.0,)}), 0)
    model = mechanical_model(dim=1, field_bound=1.0)
    win = regular_window(kappa(model, 1.0, env), 1.0, model, env)
    assert win.t0 == 2.0**-8
    rep = contraction_check(win, model, env)
    assert rep.lipschitz == 0.004160534830691186
    assert rep.max_energy_drift == 6.210656988692165e-14
    assert rep.n_pairs == 100 and rep.passed


def test_flow_calls_the_field_gradient_once_per_stage(pend64):
    env2 = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=2, seed=3), 0)
    cases = [(pend64["model"], pend64["env"], [0.3], [0.7]),
             (mechanical_model(dim=2), env2, [0.3, 0.6], [0.7, -0.2])]
    for model, env, x0, p0 in cases:
        counted = CountingField(env)
        traj = flow_integrate(model, counted, FlowState(x0, p0), 0.5, 1e-2)
        plain = flow_integrate(model, env, FlowState(x0, p0), 0.5, 1e-2)
        assert counted.gradients == [(model.dim,)] * (4 * 50)
        assert counted.evaluated == [(51, model.dim)]
        assert np.array_equal(traj.xi, plain.xi) and np.array_equal(traj.eta, plain.eta)


@pytest.mark.parametrize("t, dt, named", [
    (float("nan"), 1e-2, "t=nan"), (0.5, float("nan"), "dt=nan"),
    (float("inf"), 1e-2, "t=inf"), (0.5, float("inf"), "dt=inf"),
    (1e300, 1e-300, "t=1e+300")],
    ids=["nan_t", "nan_dt", "inf_t", "inf_dt", "overflowing_steps"])
def test_flow_refuses_a_time_or_step_that_is_not_finite(flat64, t, dt, named):
    with pytest.raises(ConfigError) as exc:
        flow_integrate(flat64["model"], flat64["env"], FlowState([0.0], [0.5]), t, dt)
    assert named in str(exc.value)


def test_flow_refuses_a_dimension_without_an_rk4_body():
    with pytest.raises(ConfigError, match="dimension 1 or 2"):
        flow_integrate(mechanical_model(dim=3), None,
                       FlowState([0.3, 0.6, 0.1], [0.7, -0.2, 0.4]), 0.1, 1e-2)


@pytest.mark.parametrize("x0, p0", [([0.3, 0.6], [0.7]), ([0.3], [0.7, 0.1]),
                                    ([0.3, 0.6, 0.1], [0.7, -0.2, 0.4])],
                         ids=["short_momentum", "short_position", "three_vectors"])
def test_flow_refuses_a_state_of_the_wrong_size(x0, p0):
    env2 = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=2, seed=3), 0)
    with pytest.raises(ConfigError) as exc:
        flow_integrate(mechanical_model(dim=2), env2, FlowState(x0, p0), 0.1, 1e-2)
    assert f"xi.size={len(x0)}" in str(exc.value)
    assert f"eta.size={len(p0)}" in str(exc.value)
    assert "dimension 2" in str(exc.value)


def test_second_difference_scan_matches_discrete_eigenvalue(pend64):
    grid = pend64["grid"]
    v = GridFn(grid, np.cos(2 * np.pi * grid.points()[:, 0]))
    rep = estimate_semiconcavity(v)
    exact = (2.0 - 2.0 * np.cos(2 * np.pi * grid.h)) / grid.h**2
    assert rep.k_upper == exact
    assert rep.k_lower == -exact
    assert not rep.unbounded_above and not rep.unbounded_below
    # within the continuum constant (2 pi)^2 on both sides
    assert rep.k_upper <= (2 * np.pi) ** 2 and rep.k_lower >= -(2 * np.pi) ** 2


def test_kinks_score_at_the_flagging_scale(pend64):
    grid = pend64["grid"]
    x = grid.points()[:, 0] % 1.0
    v = GridFn(grid, np.minimum(x, 1.0 - x))
    rep = estimate_semiconcavity(v)
    assert rep.k_upper == 2.0 / grid.h and rep.k_lower == -2.0 / grid.h
    assert rep.unbounded_above and rep.unbounded_below
    assert rep.kink_scale == 1.0 / grid.h
    assert rep.argmax_index == 0 and rep.argmin_index == grid.size // 2


def test_kernel_curvature_is_a_staircase_in_time(pend64):
    kern = pend64["kernel"]
    one = kernel_semiconcavity(kern, kern.dt)
    four = kernel_semiconcavity(kern, 4 * kern.dt)
    assert one == pytest.approx(four, rel=1e-9)
    assert 1.0 / kern.dt <= one <= 1.05 / kern.dt


def _dense_semiconcavity(table, grid):
    """The largest axis second difference of the rows of a whole table."""
    shaped = table.reshape((grid.size,) + grid.shape)
    best = -np.inf
    for ax in range(grid.dim):
        with np.errstate(invalid="ignore"):
            q = (np.roll(shaped, -1, axis=1 + ax) + np.roll(shaped, 1, axis=1 + ax)
                 - 2 * shaped) / grid.h**2
        best = max(best, float(np.max(q[np.isfinite(q)], initial=-np.inf)))
    return best


def _grid2d_kernel(n):
    env = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=2, seed=0,
                                           params={"amplitudes": (0.5,)}), 0)
    return build_kernel(mechanical_model(dim=2, field_bound=0.5), env,
                        GridSpec(dim=2, n=n), dt=1.0 / (2 * n), theta=2.0)


@pytest.mark.parametrize("case", ["pend64", "grid2d_n16", "tilted64"])
def test_kernel_semiconcavity_matches_the_dense_table(case, pend64):
    """Blocks of rows walked on the stencil give the whole table's constant
    to the last bit."""
    kern = {"pend64": lambda: pend64["kernel"],
            "grid2d_n16": lambda: _grid2d_kernel(16),
            "tilted64": lambda: build_kernel(
                wk.tilted_mechanical_model(0.5, dim=1, field_bound=1.0),
                pend64["env"], pend64["grid"], dt=1.0 / 64.0, theta=3.0)}[case]()
    for steps in (1, 2, 4):
        expected = _dense_semiconcavity(walk_table(kern, steps), kern.grid)
        assert kernel_semiconcavity(kern, steps * kern.dt) == expected


def test_kernel_semiconcavity_holds_no_whole_table():
    kern = _grid2d_kernel(32)
    tracemalloc.start()
    try:
        kernel_semiconcavity(kern, kern.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kern.size**2 * 8 / 4


def test_window_constants_are_reproducible(pend64):
    model, env = pend64["model"], pend64["env"]
    win = regular_window(2.0, 1.0, model, env)
    assert win.t0 == 2.0**-8
    # energy ceiling from |p| <= 2 is 3, giving momentum radius sqrt(8)
    assert win.rho == pytest.approx(np.sqrt(8.0), abs=1e-4)
    assert win.ell == pytest.approx((2 * np.pi) ** 2, rel=1e-12)
    assert win.r_kappa0 == pytest.approx(2.0 + 2.0 * np.sqrt(2.0), rel=1e-12)
    assert win.a_const == pytest.approx(3.3000358749388656, rel=1e-9)
    assert set(win.constraints) == {"contraction", "rate_time", "excursion"}
    assert win.constraints["contraction"] < 0.5
    assert win.constraints["rate_time"] < 0.25
    assert win.constraints["excursion"] < 0.25


def test_gradient_fed_flows_contract_inside_the_window(pend64):
    model, env = pend64["model"], pend64["env"]
    win = regular_window(2.0, 1.0, model, env)
    rep = contraction_check(win, model, env)
    assert rep.passed and rep.lipschitz <= 0.5
    assert rep.lipschitz == pytest.approx(0.0041605, abs=1e-5)
    assert rep.max_energy_drift <= 1e-9


def test_two_sided_smoothing_earns_all_five_certificates(pend64):
    model, env, grid = pend64["model"], pend64["env"], pend64["grid"]
    kern, c, w, mask = (pend64[k] for k in ("kernel", "c", "w", "mask"))
    win = regular_window(2.0, 1.0, model, env)
    fine = refold_kernel(build_kernel(model, env, grid, dt=win.t0,
                                      theta=kern.theta), c)
    v_strict = build_strict_strictly_convex(w, kern, 0.125, 6)
    bound = max(win.a_const, kernel_semiconcavity(fine, win.t0))
    w_eps, rep = bernard_regularize(v_strict, fine, win.t0, win.t0,
                                    mask=mask.mask, d0=0.1, strict_input=True,
                                    curvature_bound=bound,
                                    r_kappa=lipschitz_radius(kappa(model, c, env), model))
    assert rep.passed
    assert rep.subsolution_ok and rep.curvature_ok and rep.sup_ok
    assert rep.mask_ok and rep.strict_ok
    assert rep.warnings == []
    assert rep.mask_agreement == 0.0
    assert rep.sup_change <= rep.sup_bound
    assert w_eps.grid.size == grid.size


def test_smoothing_an_uncertified_input_warns_and_still_certifies(pend64):
    model, env, grid = pend64["model"], pend64["env"], pend64["grid"]
    kern, c, w, mask = (pend64[k] for k in ("kernel", "c", "w", "mask"))
    win = regular_window(2.0, 1.0, model, env)
    fine = refold_kernel(build_kernel(model, env, grid, dt=win.t0,
                                      theta=kern.theta), c)
    bound = max(win.a_const, kernel_semiconcavity(fine, win.t0))
    _, rep = bernard_regularize(w, fine, win.t0, win.t0, mask=mask.mask, d0=0.1,
                                strict_input=False, curvature_bound=bound,
                                r_kappa=lipschitz_radius(kappa(model, c, env), model))
    assert len(rep.warnings) == 1  # input strictness not certified
    assert rep.passed == (rep.subsolution_ok and rep.sup_ok and rep.curvature_ok
                          and rep.mask_ok and rep.strict_ok)


def test_envelope_identity_at_one_step(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    u0 = GridFn(grid, 0.3 * np.cos(2 * np.pi * grid.points()[:, 0]))
    rep = check_envelope_identity(u0, kern, kern.dt, 0.3 * (2 * np.pi) ** 2,
                                  [0, 16, 32, 48])
    # the paraboloid sits below the data and shares the contact argmin
    assert rep.min_discrepancy >= 0.0
    assert rep.max_discrepancy == 0.0


def test_envelope_columns_match_the_all_pairs_table(pend64):
    """check_envelope_identity walks the columns h_t(., x) on the reversed
    stencil; the dense all-pairs table is the independent route.  The tilt
    makes h_t(y, x) and h_t(x, y) differ, and rough data makes every sampled
    x give its own discrepancy."""
    model = wk.tilted_mechanical_model(0.5, dim=1, field_bound=1.0)
    grid = pend64["grid"]
    kern = build_kernel(model, pend64["env"], grid, dt=1.0 / 64.0, theta=3.0)
    w = GridFn(grid, 0.1 * np.random.default_rng(5).standard_normal(grid.size))
    pts, grads, k_semiconvex, samples = grid.points(), w.central_gradient(), 1.0, [0, 5, 16, 40]
    for steps in (1, 3, 4):
        t = steps * kern.dt
        table = walk_table(kern, steps)
        expected = []
        for x in samples:
            col = w.values + table[:, x]
            y = int(np.argmin(col))
            delta = min_image(pts - pts[y])
            psi = (w.values[y] + delta @ grads[y]
                   - 0.5 * k_semiconvex * np.sum(delta * delta, axis=1))
            expected.append(col[y] - np.min(psi + table[:, x]))
        rep = check_envelope_identity(w, kern, t, k_semiconvex, samples)
        assert np.max(np.abs(rep.discrepancies - expected)) <= 1e-12
        assert np.ptp(expected) > 0.0


def test_lifted_mask_is_flow_invariant_for_the_corrector(pend64, pendulum_corrector):
    model, env, mask = pend64["model"], pend64["env"], pend64["mask"]
    u = GridFn(pend64["grid"], pendulum_corrector(pend64["grid"].points()[:, 0]))
    assert u.central_gradient()[0][0] == 0.0
    dev = lifted_mask_deviation(mask.mask, u, model, env, t_span=1.0, dt=1e-3)
    assert dev == 0.0
    with pytest.raises(ConfigError):
        lifted_mask_deviation(np.zeros(u.grid.size, dtype=bool), u, model, env)


def test_gradients_agree_on_the_mask_for_symmetric_members(pend64, pendulum_corrector):
    lib, mask = pend64["lib"], pend64["mask"]
    corrector = GridFn(pend64["grid"], pendulum_corrector(pend64["grid"].points()[:, 0]))
    assert mask_gradient_agreement(lib.members[:2], mask.mask) == 0.0
    assert mask_gradient_agreement([corrector, lib.members[0]], mask.mask) == 0.0
    with pytest.raises(ConfigError):
        mask_gradient_agreement(lib.members[:2],
                                np.zeros(pend64["grid"].size, dtype=bool))


def test_minimizing_chains_shadow_characteristics(pend64):
    kern, w = pend64["kernel"], pend64["w"]
    rep = verify_minimizer_is_characteristic(w, kern, 16, 0.5)
    assert rep.max_deviation <= 0.15  # ~10 cells at n=64; halves at n=128
    assert rep.energy_drift <= 1e-9
    assert rep.chain_indices.shape == (33,)
    assert rep.chain_points.shape == rep.flow_points.shape == (33, 1)
    assert np.isfinite(rep.terminal_momentum).all()
