"""Backward/forward evolution on the dyadic ladder and its exact algebra."""

import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import SMALL_OBJECTS, peak_bytes, walk_table

import weakkam as wk
from weakkam import grid as grid_module
from weakkam.errors import LadderError, WeakKamError
from weakkam.grid import BoxSpec, GridFn, GridSpec, Stencil
from weakkam.hamiltonian import (eikonal_model, kappa, mechanical_model,
                                 nonstrict_model, reversed_model)
from weakkam.semigroup import (build_kernel, check_corrector,
                               check_monotone_semigroup,
                               check_time_dependent_solution,
                               discrete_critical_value, lax_minus,
                               lax_minus_images, lax_plus, refold_kernel,
                               semigroup_orbit)


def brute_force_backward(u, model, env, grid, dt, radius):
    """Independent one-step evolution: scan every in-radius predecessor."""
    pts = grid.points()
    offs = grid.offsets_within(radius, include_zero=True)
    out = np.full(grid.size, np.inf)
    for k in offs:
        disp = k * grid.h
        prev = grid.roll_flat(u, int(k[0]))  # prev[i] = u(x_i - disp)
        mids = pts - disp[None, :] / 2.0
        cost = dt * np.asarray(
            model.eval_L(mids, np.repeat(disp[None, :] / dt, grid.size, axis=0), env),
            dtype=float)
        out = np.minimum(out, prev + cost)
    return out


def test_one_step_backward_matches_brute_force(pend64):
    kern, grid, env, model = (pend64[k] for k in ("raw_kernel", "grid", "env", "model"))
    rng = np.random.default_rng(1)
    u = GridFn(grid, rng.standard_normal(grid.size))
    img = lax_minus(u, kern, kern.dt)
    brute = brute_force_backward(u.values, model, env, grid, kern.dt, kern.radius_one)
    assert np.max(np.abs(img.values - brute)) <= 1e-12


def test_composition_on_the_ladder_is_exact(pend64):
    kern, grid = pend64["raw_kernel"], pend64["grid"]
    rng = np.random.default_rng(2)
    u = GridFn(grid, rng.standard_normal(grid.size))
    for steps in ((1, 1), (2, 3), (5, 7)):
        whole = lax_minus(u, kern, sum(steps) * kern.dt)
        first = lax_minus(u, kern, steps[0] * kern.dt)
        chained = lax_minus(first, kern, steps[1] * kern.dt)
        assert np.array_equal(whole.values, chained.values)
    # one walk to the largest time gives every image, in the order asked
    times = [3 * kern.dt, kern.dt, 12 * kern.dt, 3 * kern.dt]
    for t, img in zip(times, lax_minus_images(u, kern, times)):
        assert np.array_equal(img, lax_minus(u, kern, t).values)


def _grid2d_kernel():
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0,
                      params={"amplitudes": (0.5,)})
    env = wk.sample_realization(spec, 0)
    model = mechanical_model(dim=2, field_bound=0.5)
    return build_kernel(model, env, GridSpec(dim=2, n=16), dt=1.0 / 32.0, theta=2.0)


@pytest.mark.parametrize("case", ["pend64", "grid2d_n16"])
def test_stepped_operators_match_the_all_pairs_tables(case, pend64):
    """Stencil stepping and dense min-plus products are independent routes
    to h_t."""
    kern = pend64["raw_kernel"] if case == "pend64" else _grid2d_kernel()
    grid = kern.grid
    u = GridFn(grid, np.random.default_rng(4).standard_normal(grid.size))
    for steps in (1, 2, 3, 5, 12):
        t = steps * kern.dt
        table = walk_table(kern, steps)
        down = np.min(u.values[:, None] + table, axis=0)
        up = -np.min(table - u.values[None, :], axis=1)
        assert np.max(np.abs(lax_minus(u, kern, t).values - down)) <= 1e-12
        assert np.max(np.abs(lax_plus(u, kern, t).values - up)) <= 1e-12


def test_minimizing_chain_breaks_ties_to_the_smallest_index(flat64):
    """A flat field prices the steps +-h alike: both neighbours of a high
    node tie, and the chain must take the smaller flat index."""
    kern, grid = flat64["kernel"], flat64["grid"]
    u = np.zeros(grid.size)
    u[5] = 1.0
    orbit = np.stack([u, kern.pull(u)])
    costs = kern.at(kern.dt)[:, 5]
    cand = u + costs
    assert cand[4] == cand[6] == np.min(cand)
    chain, step_costs = kern.minimizing_chain(orbit, 5)
    assert chain.tolist() == [4, 5] and int(np.argmin(cand)) == 4
    assert step_costs.tolist() == [costs[4]]


def test_ladder_times_and_off_ladder_rejection(pend64):
    kern = pend64["raw_kernel"]
    times = kern.ladder(8 * kern.dt)
    assert list(times) == [kern.dt, 2 * kern.dt, 4 * kern.dt, 8 * kern.dt]
    assert kern.steps_of(3 * kern.dt) == 3
    with pytest.raises(LadderError):
        kern.steps_of(1.5 * kern.dt)
    with pytest.raises(LadderError):
        kern.at(0.7 * kern.dt)


def test_exact_discrete_critical_values():
    grid = GridSpec(dim=1, n=64)
    dt = 1.0 / 64.0
    cases = []
    spec1 = wk.EnvSpec(kind="periodic", dimension=1, seed=0, params={"amplitudes": (1.0,)})
    env1 = wk.sample_realization(spec1, 0)
    cases.append((mechanical_model(dim=1, field_bound=1.0), env1, 3.0, 1.0))
    spec0 = wk.EnvSpec(kind="periodic", dimension=1, seed=0, params={"amplitudes": (0.0,)})
    env0 = wk.sample_realization(spec0, 0)
    cases.append((mechanical_model(dim=1, field_bound=0.0), env0, 2.0, 0.0))
    cases.append((eikonal_model(dim=1, offset=2.0, field_bound=1.0), env1, 3.0, -1.0))
    cases.append((nonstrict_model(dim=1, field_bound=1.0), env1, 3.0, 1.0))
    for model, env, theta, expect in cases:
        kern = build_kernel(model, env, grid, dt=dt, theta=theta)
        c = discrete_critical_value(kern)
        # Exact up to one ulp of rounding in the cycle-mean quotient.
        assert abs(c - expect) <= 1e-15, f"{model.name}: {c} != {expect}"


def _dense_karp_level(kern):
    """Karp's theorem on the all-pairs one-step table, storing all of D."""
    table = kern.at(kern.dt)
    size = table.shape[0]
    D = np.full((size + 1, size), np.inf)
    D[0, 0] = 0.0
    for m in range(1, size + 1):
        D[m] = np.min(D[m - 1][:, None] + table, axis=0)
    with np.errstate(invalid="ignore"):
        ratios = (D[size] - D[:size]) / (size - np.arange(size))[:, None]
    ratios[~np.isfinite(D[:size])] = -np.inf
    worst = ratios.max(axis=0)
    return kern.shift - float(np.min(worst[np.isfinite(D[size]) & (worst > -np.inf)])) / kern.dt


def _karp_kernels():
    """Kernels whose Karp walks must match pull to the bit: tilted and random
    fields, the field of the verify1d random config (its level sits 1.5e-14
    below the exact mean), a flat field whose edges tie exactly, a negative
    level (eikonal), a nonstrict model and a 2D torus."""
    spec = wk.EnvSpec(kind="random_fourier", dimension=1, seed=7,
                      params={"k_max": 3, "amplitude": 0.5, "decay": 1.0})
    env7 = wk.sample_realization(spec, 0)
    tilted = wk.tilted_mechanical_model(0.3, dim=1, field_bound=env7.field_bound())
    env3 = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=1, seed=3), 0)
    env1 = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                                            params={"amplitudes": (1.0,)}), 0)
    env0 = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                                            params={"amplitudes": (0.0,)}), 0)
    grid, dt = GridSpec(dim=1, n=64), 1.0 / 64.0
    return {
        "tilted": build_kernel(tilted, env7, GridSpec(dim=1, n=32), dt=1.0 / 32.0, theta=3.0),
        "random_seed3": build_kernel(mechanical_model(dim=1, field_bound=env3.field_bound()),
                                     env3, grid, dt=dt, theta=3.0),
        "flat": build_kernel(mechanical_model(dim=1, field_bound=0.0), env0, grid, dt=dt,
                             theta=2.0),
        "eikonal": build_kernel(eikonal_model(dim=1, offset=2.0, field_bound=1.0), env1, grid,
                                dt=dt, theta=3.0),
        "nonstrict": build_kernel(nonstrict_model(dim=1, field_bound=1.0), env1, grid, dt=dt,
                                  theta=3.0),
        "grid2d_n16": _grid2d_kernel(),
    }


def _walk_cases():
    """(name, stencil, start) for the walk: every Karp kernel, a 2D n=32
    cosine torus and its reversal, and a box of random costs with holes,
    each from node 0 alone (+inf elsewhere) and from random values with
    +inf entries."""
    env = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=2, seed=0,
                                           params={"amplitudes": (1.0,)}), 0)
    torus = build_kernel(mechanical_model(dim=2, field_bound=1.0), env, GridSpec(dim=2, n=32),
                         dt=1.0 / 32.0, theta=2.0)
    box = BoxSpec(dim=2, radius=1.0, points_per_unit=8)
    offsets = box.offsets_within(2.5 * box.h, include_zero=True)
    rng = np.random.default_rng(5)
    costs = 1.0 + rng.random((len(offsets), box.size))
    costs[rng.random(costs.shape) < 0.1] = np.inf
    stencils = {**_karp_kernels(), "torus2d_n32": torus, "reversed2d_n32": torus.reversed(),
                "box2d": Stencil(box, offsets, costs)}
    for name, stencil in stencils.items():
        origin = np.where(np.arange(stencil.size) == 0, 0.0, np.inf)
        holes = np.where(rng.random(stencil.size) < 0.2, np.inf, rng.standard_normal(stencil.size))
        yield f"{name}/origin", stencil, origin
        yield f"{name}/holes", stencil, holes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shortlist", [1, 6])
def test_walk_is_pull_to_the_bit(shortlist, monkeypatch):
    """Every walked row equals the repeated pull in every bit, with the
    default shortlist and with one edge per node, where most steps refresh
    or hand over.  A stencil with more offsets than a shortlist holds takes
    some rows from the shortlists; one with fewer is pulled throughout."""
    monkeypatch.setattr(grid_module, "_SHORTLIST", shortlist)
    for name, stencil, start in _walk_cases():
        steps, pulls = min(stencil.size, 400), []
        monkeypatch.setattr(stencil, "pull", lambda u, s=stencil: pulls.append(1) or Stencil.pull(s, u))
        row = start
        for k, walked in enumerate(stencil.walk(start, steps), 1):
            row = Stencil.pull(stencil, row)
            assert np.array_equal(walked.view(np.int64), row.view(np.int64)), (name, k)
        assert k == steps, name
        if len(stencil.offsets) > shortlist:
            assert len(pulls) < steps, name
        else:
            assert len(pulls) == steps, name


KARP_PULLS_2D_N16 = 24    # of the 511 rows Karp walks on the 2D n=16 kernel


def test_karp_without_the_stored_table_matches_the_dense_one(monkeypatch):
    """The walked rows score the same as the stored table, on every kernel,
    also with one edge per shortlist, where nodes are refreshed and the walk
    hands over often.  With the default shortlist the 2D n=16 kernel's two
    walks pull at most KARP_PULLS_2D_N16 rows: those from node 0 until
    every node is reached, and those of the hand-overs while the walk
    settles."""
    kernels = _karp_kernels()
    dense = {name: _dense_karp_level(kern) for name, kern in kernels.items()}
    pulls, refreshed = [], []
    pull, refresh = Stencil.pull, Stencil._refresh
    monkeypatch.setattr(Stencil, "pull", lambda self, u: pulls.append(1) or pull(self, u))
    monkeypatch.setattr(Stencil, "_refresh",
                        lambda self, ext, nodes, *rest: refreshed.append(len(nodes))
                        or refresh(self, ext, nodes, *rest))
    for name, kern in kernels.items():
        pulls.clear()
        assert discrete_critical_value(kern) == dense[name], name
        if name == "grid2d_n16":
            assert len(pulls) <= KARP_PULLS_2D_N16
    monkeypatch.setattr(grid_module, "_SHORTLIST", 1)
    for name, kern in kernels.items():
        refreshed.clear()
        assert discrete_critical_value(kern) == dense[name], (name, "shortlist 1")
        assert sum(refreshed) > kern.size, name


def test_karp_refuses_a_nan_weight():
    """A NaN weight would reach every later row of a pull but not always a
    shortlist, so it is refused up front, by its offset and node."""
    kern = _grid2d_kernel()
    weights = kern.weights.copy()
    weights[0, 37] = np.nan
    broken = replace(kern, weights=weights)
    offset = re.escape(str(tuple(kern.offsets[0].tolist())))
    with pytest.raises(WeakKamError, match=rf"offset {offset} into node 37 "):
        discrete_critical_value(broken)


def test_karp_holds_no_table_and_at_most_its_shortlists():
    """Peak memory of Karp on a 2D n=32 torus, a priori: the padded lattice
    of one pull; at most six arrays of 32768 offset-node entries, a pull's
    block or a refresh chunk (start nodes, costs, sums and their order,
    counting the 2D neighbor arithmetic twice); sixteen N-vectors; and the
    shortlists with their gathered sums, three arrays of s N entries, at
    most 6 bytes per stencil entry.  The N x N table of the dense route
    would be 8 MiB."""
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0, params={"amplitudes": (0.5,)})
    env = wk.sample_realization(spec, 0)
    grid = GridSpec(dim=2, n=32)
    kern = build_kernel(mechanical_model(dim=2, field_bound=0.5), env, grid,
                        dt=1.0 / 32.0, theta=2.0)
    m, size = len(kern.offsets), kern.size
    reach = int(np.max(np.abs(kern.offsets)))
    shortlists = 8 * 3 * grid_module._SHORTLIST * size
    budget = (8 * (grid.n + 2 * reach) ** 2 + 8 * 6 * 32768 + 8 * 16 * size
              + shortlists + SMALL_OBJECTS)
    assert shortlists <= 6 * m * size and budget < 8 * size * size
    assert peak_bytes(discrete_critical_value, kern) <= budget


def test_refold_shifts_tables_linearly(pend64):
    kern = pend64["raw_kernel"]
    folded = refold_kernel(kern, 1.0)
    t = 4 * kern.dt
    assert np.allclose(folded.at(t), kern.at(t) + 1.0 * t, atol=1e-12)
    assert folded.shift == 1.0


def test_forward_backward_envelope_ordering(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    rng = np.random.default_rng(3)
    u = GridFn(grid, rng.standard_normal(grid.size))
    t = 2 * kern.dt
    down = lax_minus(u, kern, t)
    relaxed = lax_plus(down, kern, t)
    assert np.all(relaxed.values <= u.values + 1e-12)
    up = lax_plus(u, kern, t)
    tightened = lax_minus(up, kern, t)
    assert np.all(tightened.values >= u.values - 1e-12)


def test_reversal_transposes_the_one_step_table(pend64):
    env, model, grid = pend64["env"], pend64["model"], pend64["grid"]
    kern = pend64["raw_kernel"]
    rev = build_kernel(reversed_model(model), env, grid, dt=kern.dt, theta=kern.theta)
    transposed = rev.at(rev.dt).T
    table = kern.at(kern.dt)
    finite = np.isfinite(transposed)
    assert np.array_equal(np.isfinite(table), finite)
    assert float(np.max(np.abs(table[finite] - transposed[finite]))) == 0.0


def test_monotone_level_adjusted_images(pend64):
    kern, w, c = pend64["kernel"], pend64["w"], pend64["c"]
    times = kern.ladder(1.0)
    rep = check_monotone_semigroup(w, kern, c, times)
    assert rep.passed and rep.min_increment >= -1e-9


def test_flat_zero_function_is_a_corrector(flat64):
    kern, grid, c = flat64["kernel"], flat64["grid"], flat64["c"]
    assert c == 0.0
    u = GridFn.zeros(grid)
    rep = check_corrector(u, kern, c, kern.ladder(1.0), 1e-12)
    assert rep.passed and float(np.max(rep.residuals)) == 0.0


def test_semigroup_orbit_shape_and_start(pend64):
    kern, grid, w = pend64["kernel"], pend64["grid"], pend64["w"]
    orbit = semigroup_orbit(w, kern, 4)
    assert orbit.shape == (5, grid.size)
    assert np.array_equal(orbit[0], w.values)


def test_kernel_vs_monotone_scheme_comparison(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    u0 = GridFn.from_callable(grid, lambda x: 0.3 * np.cos(2 * np.pi * x[:, 0]))
    rep = check_time_dependent_solution(u0, kern, 0.25)
    assert rep.passed, (rep.max_discrepancy, rep.tol)
    assert rep.max_discrepancy <= 4.0 * np.sqrt(grid.h) * 1.25


def test_kernel_offsets_pruned_to_reachable_speeds(pend64):
    kern = pend64["raw_kernel"]
    speeds = np.linalg.norm(kern.offsets * kern.grid.h, axis=1) / kern.dt
    # the one-step radius bound: dt R(theta) + 2h worth of speed
    max_speed = (kern.radius_one) / kern.dt
    assert np.all(speeds <= max_speed + 1e-9)
    assert len(kern.offsets) >= 3
