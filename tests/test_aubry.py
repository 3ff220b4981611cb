"""Subsolution libraries, fixed-point masks, extensions, calibrated chains."""

import functools
import math

import numpy as np
import pytest
from conftest import VERIFY_CONFIGS, minplus_product, one_step_table, verify_config
from oracles import extract_calibrated_curve, fixed_point_set, rolled, take_min_by_argmin

import weakkam as wk
import weakkam.grid
from weakkam.aubry import (build_library, build_w, classical_aubry, default_eps,
                           detect_aubry, lax_extension, verify_member)
from weakkam.cli import stage_critical, stage_kernel
from weakkam.config import build_environment, build_grid, build_model
from weakkam.errors import (ConfigError, EmptyAubryMaskError,
                            NotASubsolutionError, SubcriticalLevelError)
from weakkam.grid import GridFn, GridSpec, policy_iteration, relax
from weakkam.hamiltonian import kappa, mechanical_model
from weakkam.metric import build_cost_graph
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


def test_a_member_with_an_infinite_value_fails_with_infinite_violation(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    holed = GridFn.zeros(grid)
    holed.values[5] = np.inf
    lib = build_library(kern, n_seeds=1)
    assert lib.add(holed, kern, "holed") is False
    assert lib.verified[-1] is False and lib.violations[-1] == np.inf
    assert np.array_equal(lib.worst_points[-1], grid.points()[5])
    assert verify_member(holed, kern) == (False, np.inf)


def test_mix_weights_are_geometric_and_renormalized(pend64):
    lib = build_library(pend64["kernel"], n_seeds=1)
    assert len(lib.members) == 2
    w2 = build_w(lib)
    expect = (0.5 * lib.members[0].values + 0.25 * lib.members[1].values) / 0.75
    assert np.max(np.abs(w2.values - expect)) <= 1e-15


def test_mix_refuses_unverified_member(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    lib = build_library(kern, n_seeds=2)
    rng = np.random.default_rng(0)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    assert lib.add(bad, kern, "bad") is False
    with pytest.raises(NotASubsolutionError):
        build_w(lib)


def test_fixed_point_set_requires_a_subsolution(pend64):
    kern, grid, w = (pend64[k] for k in ("kernel", "grid", "w"))
    rng = np.random.default_rng(4)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    with pytest.raises(NotASubsolutionError):
        fixed_point_set(bad, kern, kern.dt, 1e-6)
    fp = fixed_point_set(w, kern, kern.dt, 1e-6)
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
    assert mask.grid.points()[mask.mask].shape == (1, 1)


def test_flat_mask_is_the_whole_torus_with_zero_residual(flat64):
    kern, grid = flat64["kernel"], flat64["grid"]
    mask = detect_aubry(GridFn.zeros(grid), kern, 2.0)
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


@functools.lru_cache(maxsize=None)
def _verify_kernel(label):
    """The folded kernel of a verify1d config, built by the CLI stages."""
    cfg = verify_config(label)
    env = build_environment(cfg)[1]
    model, grid = build_model(cfg), build_grid(cfg)
    return stage_kernel(cfg, env, model, grid, stage_critical(cfg, env, model, grid))


@pytest.mark.parametrize("label", sorted(VERIFY_CONFIGS))
def test_unsaturated_slack_clears_the_budget_on_the_verify_kernels(label):
    """On the 1D n=512 verify configs the edges the budget leaves
    unsaturated miss saturation by at least 1e3 budgets."""
    kern = _verify_kernel(label)
    grid = kern.grid
    crit = policy_iteration(kern)
    slack = np.array([rolled(grid, crit.bias, k) + w - crit.mean - crit.bias
                      for k, w in zip(kern.offsets, kern.weights)])
    loose = slack[np.isfinite(slack) & (slack > crit.budget)]
    assert np.min(loose) >= 1e3 * crit.budget
    assert int(crit.mask.sum()) == 1


@pytest.mark.parametrize("label", sorted(VERIFY_CONFIGS))
def test_policy_iteration_is_the_argmin_oracle_on_the_verify_kernels(label, monkeypatch):
    """Policy improvement with the index searched only in lowered columns
    ends on the mean, cycle, bias and mask of a full argmin per block."""
    kern = _verify_kernel(label)
    crit = policy_iteration(kern)
    monkeypatch.setattr(weakkam.grid, "_take_min", take_min_by_argmin)
    want = policy_iteration(kern)
    assert crit.mean == want.mean and crit.cycle == want.cycle
    assert crit.bias.tobytes() == want.bias.tobytes()
    assert crit.mask.tobytes() == want.mask.tobytes()


def test_default_eps_scales_with_range():
    assert default_eps(np.array([0.0, 2.0])) == pytest.approx(2e-6)
    assert default_eps(np.array([0.0, 0.5])) == pytest.approx(1e-6)


def test_tail_warnings_and_too_short_ladder(pend64):
    kern, w = pend64["kernel"], pend64["w"]
    long_run = detect_aubry(w, kern, 4.0)
    assert long_run.warnings == []
    short_run = detect_aubry(w, kern, 0.5)
    assert any("ladder" in msg for msg in short_run.warnings)
    with pytest.raises(ConfigError):
        detect_aubry(w, kern, 0.5 * kern.dt)


def test_detect_aubry_rejects_non_subsolutions(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    rng = np.random.default_rng(5)
    bad = GridFn(grid, 10.0 * rng.standard_normal(grid.size))
    with pytest.raises(NotASubsolutionError) as exc:
        detect_aubry(bad, kern, 2.0)
    assert exc.value.violation > 0


def test_refusals_name_the_node_a_perturbed_member_fails_at(pend64):
    """Raising a verified member at one node breaks only the edges into
    that node, so every refusal of it names that node."""
    kern, grid, w = (pend64[k] for k in ("kernel", "grid", "w"))
    node = 37
    bumped = GridFn(grid, w.values.copy())
    bumped.values[node] += 1.0
    with pytest.raises(NotASubsolutionError) as fixed:
        fixed_point_set(bumped, kern, kern.dt, 1e-6)
    with pytest.raises(NotASubsolutionError) as detected:
        detect_aubry(bumped, kern, 2.0)
    lib = build_library(kern, n_seeds=1)
    lib.add(bumped, kern, "bumped")
    assert lib.worst_points[:2] == [None, None] and lib.verified[2] is False
    with pytest.raises(NotASubsolutionError) as mixed:
        build_w(lib)
    for exc in (fixed, detected, mixed):
        assert exc.value.violation > 0.5
        assert np.array_equal(exc.value.worst_point, grid.points()[node])


def test_subcritical_level_is_flagged_as_negative_cycle(pend64):
    kern, c = pend64["kernel"], pend64["c"]
    low = refold_kernel(kern, c - 0.5)
    source = np.where(np.arange(kern.grid.size) == 0, 0.0, np.inf)
    for relaxed in (low, low.reversed()):
        with pytest.raises(SubcriticalLevelError) as exc:
            relax(relaxed, source)
        cycle = exc.value.cycle
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert exc.value.cycle_cost < 0
        assert exc.value.cycle_cost == sum(relaxed.edge_cost(y, x) for y, x in hops)
        assert all(np.isfinite(relaxed.edge_cost(y, x)) for y, x in hops)
    with pytest.raises(SubcriticalLevelError):
        build_library(low)


def test_build_library_turns_the_kernel_once(pend64, monkeypatch):
    """The anticones of every seed are cones of one turned kernel."""
    turned = []
    reversed_ = weakkam.grid.Stencil.reversed

    def counted(self, *args, **kwargs):
        turned.append(self)
        return reversed_(self, *args, **kwargs)

    monkeypatch.setattr(weakkam.grid.Stencil, "reversed", counted)
    lib = build_library(pend64["kernel"], n_seeds=4)
    assert len(turned) == 1 and turned[0] is pend64["kernel"]
    assert lib.labels[1::2] == [f"anticone[{s}]" for s in (0, 16, 32, 48)]
    assert all(lib.verified)


def test_lax_extension_from_the_mask_is_a_subsolution(pend64):
    kern, grid, mask = (pend64[k] for k in ("kernel", "grid", "mask"))
    graph = build_cost_graph(kern.model, kern.shift, kern.env, grid, kern.offsets)
    u = lax_extension(GridFn.zeros(grid), mask.mask, graph)
    assert u.values[0] == 0.0
    ok, worst = verify_member(u, kern)
    assert ok and worst <= 1e-9
    with pytest.raises(EmptyAubryMaskError):
        lax_extension(GridFn.zeros(grid), np.zeros(grid.size, dtype=bool), graph)


def test_calibrated_chain_at_the_rest_point(pend64):
    kern, w, mask = (pend64[k] for k in ("kernel", "w", "mask"))
    cur = extract_calibrated_curve(0, w, kern, 8, mask=mask.mask)
    assert np.array_equal(cur.indices, np.zeros(9, dtype=int))
    assert cur.calibration_defect == 0.0
    assert cur.action_vs_semidistance == 0.0
    assert cur.stays_in_mask is True
    assert cur.step_costs.shape == (8,)


def test_moving_chain_action_dominates_semidistance(pend64):
    kern, w = pend64["kernel"], pend64["w"]
    # x = 0.25 is node 16; a point goes to its nearest node
    cur = extract_calibrated_curve(np.array([0.25 + 0.4 * kern.grid.h]), w, kern, 8,
                                   mask=pend64["mask"].mask)
    assert cur.indices[-1] == 16
    # each folded kernel edge over-prices the metric edge, so the chain action
    # dominates the semidistance between the endpoints
    assert cur.action_vs_semidistance >= -1e-9
    assert cur.stays_in_mask is False
    assert cur.coords.shape == (9, 1)


def test_two_dimensional_seed_layout_verifies():
    kern, _ = _folded_grid2d_kernel()
    lib = build_library(kern, n_seeds=4)
    assert len(lib.members) == 8
    assert all(lib.verified), lib.violations
