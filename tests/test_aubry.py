"""Subsolution libraries, fixed-point masks, extensions, calibrated chains."""

import math

import numpy as np
import pytest
from conftest import VERIFY_CONFIGS, minplus_product, one_step_table, verify_config

import weakkam as wk
from weakkam.aubry import (build_library, build_w,
                           classical_aubry, default_eps, detect_aubry,
                           extract_calibrated_curve, fixed_point_set,
                           lax_extension, verify_member)
from weakkam.cli import stage_critical, stage_kernel
from weakkam.config import build_environment, build_grid, build_model
from weakkam.errors import (ConfigError, EmptyAubryMaskError,
                            NotASubsolutionError, SubcriticalLevelError)
from weakkam.grid import GridFn, GridSpec, policy_iteration, relax
from weakkam.hamiltonian import kappa, mechanical_model
from weakkam.semigroup import build_kernel, discrete_critical_value, refold_kernel


def test_every_library_member_verifies_on_every_edge(pend64):
    lib = pend64["lib"]
    assert len(lib.members) == 8  # cone + anticone per seed
    assert all(lib.verified)
    assert max(lib.violations) <= 1e-12
    assert {"cone[0]", "anticone[0]"} <= set(lib.labels)
    # members are pinned to vanish at the origin node
    for v in lib.members:
        assert v.values[0] == 0.0


def test_library_image_and_extra_members_also_verify(pend64):
    kern, model, env, c, grid = (pend64[k] for k in
                                 ("kernel", "model", "env", "c", "grid"))
    lib = build_library(model, c, env, kern, n_seeds=2,
                        image_time=2 * kern.dt, extra=(GridFn.zeros(grid),))
    assert len(lib.members) == 6
    assert all(lib.verified), lib.violations
    assert lib.labels[-1] == "user[0]"
    assert any(lab.startswith("image[") for lab in lib.labels)


def test_a_member_with_an_infinite_value_fails_with_infinite_violation(pend64):
    kern, model, env, c, grid = (pend64[k] for k in
                                 ("kernel", "model", "env", "c", "grid"))
    holed = GridFn.zeros(grid)
    holed.values[5] = np.inf
    lib = build_library(model, c, env, kern, seeds=[0], extra=(holed,))
    assert lib.labels[-1] == "user[0]"
    assert lib.verified[-1] is False and lib.violations[-1] == np.inf
    assert verify_member(holed, kern, c) == (False, np.inf)


def test_mix_weights_are_geometric_and_renormalized(pend64):
    lib = pend64["lib"]
    w2 = build_w(lib, m_terms=2)
    expect = (0.5 * lib.members[0].values + 0.25 * lib.members[1].values) / 0.75
    assert np.max(np.abs(w2.values - expect)) <= 1e-15
    with pytest.raises(ConfigError):
        build_w(lib, m_terms=0)
    with pytest.raises(ConfigError):
        build_w(lib, m_terms=len(lib.members) + 1)


def test_mix_refuses_unverified_member(pend64):
    kern, model, env, c, grid = (pend64[k] for k in
                                 ("kernel", "model", "env", "c", "grid"))
    lib = build_library(model, c, env, kern, n_seeds=2)
    rng = np.random.default_rng(0)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    assert lib.add(bad, kern, "bad") is False
    with pytest.raises(NotASubsolutionError):
        build_w(lib)
    # mixing only the clean prefix still works
    build_w(lib, m_terms=4)


def test_fixed_point_set_requires_a_subsolution(pend64):
    kern, c, grid, w = (pend64[k] for k in ("kernel", "c", "grid", "w"))
    rng = np.random.default_rng(4)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    with pytest.raises(NotASubsolutionError):
        fixed_point_set(bad, kern, c, kern.dt, 1e-6)
    fp = fixed_point_set(w, kern, c, kern.dt, 1e-6)
    assert fp.dtype == bool and fp.shape == (grid.size,)
    assert fp[0]  # the hilltop is fixed already at one step


def test_pendulum_mask_is_the_single_hilltop_cell(pend64):
    mask = pend64["mask"]
    assert list(mask.indices()) == [0]
    # folded residual is exactly zero on the Aubry cell
    assert mask.residual[0] == 0.0
    # threshold sensitivity: halving or doubling eps moves nothing
    for lab in ("half", "two"):
        assert np.array_equal(mask.thresholds[lab], mask.mask)
    assert mask.coords().shape == (1, 1)


def test_flat_mask_is_the_whole_torus_with_zero_residual(flat64):
    kern, c, grid = flat64["kernel"], flat64["c"], flat64["grid"]
    mask = detect_aubry(GridFn.zeros(grid), kern, c, 2.0)
    assert bool(np.all(mask.mask))
    assert float(np.max(np.abs(mask.residual))) == 0.0


def test_closed_orbit_surrogate_agrees_with_fixed_point_route(pend64):
    kern, mask = pend64["kernel"], pend64["mask"]
    assert np.array_equal(classical_aubry(kern), mask.mask)


def _folded_grid2d_kernel():
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0,
                      params={"amplitudes": (0.5,)})
    env = wk.sample_realization(spec, 0)
    model = mechanical_model(dim=2, field_bound=0.5)
    raw = build_kernel(model, env, GridSpec(dim=2, n=16), dt=1.0 / 32.0, theta=2.0)
    c = discrete_critical_value(raw)
    return refold_kernel(raw, c), c


def _folded_tilted64_kernel(env):
    model = wk.tilted_mechanical_model(0.5, dim=1, field_bound=1.0)
    raw = build_kernel(model, env, GridSpec(dim=1, n=64), dt=1.0 / 64.0, theta=3.0)
    c = discrete_critical_value(raw)
    return refold_kernel(raw, c), c


def _folded_random256_kernel():
    env = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=1, seed=1), 0)
    model = mechanical_model(dim=1, field_bound=1.0)
    raw = build_kernel(model, env, GridSpec(dim=1, n=256), dt=1.0 / 256.0,
                       theta=kappa(model, 1.02, env) + 1.0)
    c = discrete_critical_value(raw)
    return refold_kernel(raw, c), c


@pytest.mark.parametrize("case", ["pend64", "flat64", "grid2d_n16", "tilted64", "random256"])
def test_critical_graph_matches_the_closed_orbit_diagonals(case, pend64, flat64):
    """The closed-orbit rule the critical graph replaced is the oracle: a
    node is critical iff a closed walk through it, of a ladder-tail length,
    has folded cost within default_eps of zero."""
    kern, c = {"pend64": lambda: (pend64["kernel"], pend64["c"]),
               "flat64": lambda: (flat64["kernel"], flat64["c"]),
               "grid2d_n16": _folded_grid2d_kernel,
               "tilted64": lambda: _folded_tilted64_kernel(pend64["env"]),
               "random256": _folded_random256_kernel}[case]()
    ladder = kern.ladder(4.0)      # t = dt * 2^k: the table squared k times
    table, rows = one_step_table(kern), np.inf
    for t in ladder:
        if t >= 0.49 * ladder[-1]:
            rows = np.minimum(rows, np.diagonal(table) + (c - kern.shift) * t)
        if t < ladder[-1]:
            table = minplus_product(table, table)
    oracle = rows <= default_eps(rows)
    assert oracle.any()
    assert np.array_equal(classical_aubry(kern), oracle)
    crit = policy_iteration(kern)
    hops = zip(crit.cycle, crit.cycle[1:] + crit.cycle[:1])
    costs = [kern.edge_cost(y, x) for y, x in hops]
    assert crit.mean == math.fsum(costs) / len(costs)
    assert all(crit.mask[crit.cycle])
    karp = (kern.shift - discrete_critical_value(kern)) * kern.dt
    assert abs(crit.mean - karp) <= crit.budget


@pytest.mark.parametrize("label", sorted(VERIFY_CONFIGS))
def test_unsaturated_slack_clears_the_budget_on_the_verify_kernels(label):
    """On the 1D n=512 verify configs the edges the budget leaves
    unsaturated miss saturation by at least 1e3 budgets."""
    cfg = verify_config(label)
    env = build_environment(cfg)[1]
    model, grid = build_model(cfg), build_grid(cfg)
    kern = stage_kernel(cfg, env, model, grid, stage_critical(cfg, env, model, grid))
    crit = policy_iteration(kern)
    slack = np.array([grid.roll_flat(crit.bias, k) + w - crit.mean - crit.bias
                      for k, w in zip(kern.offsets, kern.weights)])
    loose = slack[np.isfinite(slack) & (slack > crit.budget)]
    assert np.min(loose) >= 1e3 * crit.budget
    assert int(crit.mask.sum()) == 1


def test_default_eps_scales_with_range():
    assert default_eps(np.array([0.0, 2.0])) == pytest.approx(2e-6)
    assert default_eps(np.array([0.0, 0.5])) == pytest.approx(1e-6)


def test_tail_warnings_and_too_short_ladder(pend64):
    kern, c, w = pend64["kernel"], pend64["c"], pend64["w"]
    long_run = detect_aubry(w, kern, c, 4.0)
    assert long_run.warnings == []
    short_run = detect_aubry(w, kern, c, 0.5)
    assert any("ladder" in msg for msg in short_run.warnings)
    with pytest.raises(ConfigError):
        detect_aubry(w, kern, c, 0.5 * kern.dt)


def test_detect_aubry_rejects_non_subsolutions(pend64):
    kern, c, grid = pend64["kernel"], pend64["c"], pend64["grid"]
    rng = np.random.default_rng(5)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    with pytest.raises(NotASubsolutionError) as exc:
        detect_aubry(bad, kern, c, 2.0)
    assert exc.value.violation > 0


def test_subcritical_level_is_flagged_as_negative_cycle(pend64):
    kern, c = pend64["kernel"], pend64["c"]
    low = refold_kernel(kern, c - 0.5)
    source = np.where(np.arange(kern.grid.size) == 0, 0.0, np.inf)
    for forward in (False, True):
        with pytest.raises(SubcriticalLevelError) as exc:
            relax(low, source, forward=forward)
        cycle = exc.value.cycle
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert exc.value.cycle_cost < 0
        assert exc.value.cycle_cost == sum(low.edge_cost(y, x) for y, x in hops)
        assert all(np.isfinite(low.edge_cost(y, x)) for y, x in hops)
    with pytest.raises(SubcriticalLevelError):
        build_library(pend64["model"], c - 0.5, pend64["env"], kern)


def test_lax_extension_from_the_mask_is_a_subsolution(pend64):
    kern, c, grid, mask = (pend64[k] for k in ("kernel", "c", "grid", "mask"))
    model, env = pend64["model"], pend64["env"]
    u = lax_extension(GridFn.zeros(grid), mask.mask, model, c, env, kernel=kern)
    assert u.values[0] == 0.0
    ok, worst = verify_member(u, kern, c)
    assert ok and worst <= 1e-9
    with pytest.raises(EmptyAubryMaskError):
        lax_extension(GridFn.zeros(grid), np.zeros(grid.size, dtype=bool),
                      model, c, env, kernel=kern)


def test_calibrated_chain_at_the_rest_point(pend64):
    kern, c, w, mask = (pend64[k] for k in ("kernel", "c", "w", "mask"))
    cur = extract_calibrated_curve(0, w, kern, c, 8, model=pend64["model"],
                                   env=pend64["env"], mask=mask.mask)
    assert np.array_equal(cur.indices, np.zeros(9, dtype=int))
    assert cur.calibration_defect == 0.0
    assert cur.action_vs_semidistance == 0.0
    assert cur.stays_in_mask is True
    assert cur.step_costs.shape == (8,)


def test_moving_chain_action_dominates_semidistance(pend64):
    kern, c, w = pend64["kernel"], pend64["c"], pend64["w"]
    cur = extract_calibrated_curve(16, w, kern, c, 8, model=pend64["model"],
                                   env=pend64["env"], mask=pend64["mask"].mask)
    # each folded kernel edge over-prices the metric edge, so the chain action
    # dominates the semidistance between the endpoints
    assert cur.action_vs_semidistance >= -1e-9
    assert cur.stays_in_mask is False
    assert cur.coords.shape == (9, 1)


def test_two_dimensional_seed_layout_verifies():
    kern, c = _folded_grid2d_kernel()
    lib = build_library(kern.model, c, kern.env, kern, n_seeds=4)
    assert len(lib.members) == 8
    assert all(lib.verified), lib.violations
