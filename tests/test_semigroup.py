"""Backward/forward evolution on the dyadic ladder and its exact algebra."""

import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import SMALL_OBJECTS, peak_bytes, walk_table
from oracles import (check_time_dependent_solution, minimizing_chain, per_offset_kernel,
                     replayed_walk, rolled)

import weakkam as wk
from weakkam import grid as grid_module
from weakkam import semigroup as semigroup_module
from weakkam.errors import ConfigError, LadderError, WeakKamError
from weakkam.grid import _BLOCK, BoxSpec, GridFn, GridSpec, Stencil
from weakkam.hamiltonian import (eikonal_model, kappa, mechanical_model, nonstrict_model,
                                 reversed_model)
from weakkam.semigroup import (build_kernel, check_corrector,
                               check_monotone_semigroup,
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
        prev = rolled(grid, u, k)  # prev[i] = u(x_i - disp)
        mids = pts - disp[None, :] / 2.0
        cost = dt * np.asarray(
            model.L(env.evaluate(mids), np.repeat(disp[None, :] / dt, grid.size, axis=0)),
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
    chain, step_costs = minimizing_chain(kern, orbit, 5)
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


@pytest.mark.parametrize("t_max", [np.nan, np.inf])
def test_ladder_refuses_a_top_that_is_not_finite(t_max, pend64):
    """nan would give an empty ladder and inf one that never ends."""
    with pytest.raises(ConfigError, match="t_max must be finite"):
        pend64["raw_kernel"].ladder(t_max)


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


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name so that each call appends its positional arguments
    to the returned list."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shortlist", [1, 6])
def test_walk_is_pull_to_the_bit(shortlist, monkeypatch):
    """Every walked row, and its replay from the in-edges the walk records,
    equals the repeated pull in every bit, with the default shortlist and
    with one edge per node, where most steps refresh or hand over.  A
    stencil with more offsets than a shortlist holds takes some rows from
    the shortlists; one with fewer is pulled throughout."""
    monkeypatch.setattr(grid_module, "_SHORTLIST", shortlist)
    pulls = _count_calls(monkeypatch, grid_module, "_pull_argmin")
    for name, stencil, start in _walk_cases():
        steps, row = min(stencil.size, 400), start
        pulls.clear()
        for k, (walked, replayed) in enumerate(replayed_walk(stencil, start, steps), 1):
            row = Stencil.pull(stencil, row)
            assert np.array_equal(walked.view(np.int64), row.view(np.int64)), (name, k)
            assert np.array_equal(replayed.view(np.int64), row.view(np.int64)), (name, k, "replay")
        assert k == steps, name
        if len(stencil.offsets) > shortlist:
            assert len(pulls) < steps, name
        else:
            assert len(pulls) == steps, name


KARP_PULLS_2D_N16 = 10    # of the 256 rows Karp walks on the 2D n=16 kernel (8 measured)


def test_karp_without_the_stored_table_matches_the_dense_one(monkeypatch):
    """The replayed rows score the same as the stored table, on every
    kernel, also with one edge per shortlist, where nodes are refreshed and
    the walk hands over often.  With the default shortlist the 2D n=16
    kernel's walk pulls at most KARP_PULLS_2D_N16 rows: those from node 0
    until every node is reached, and those of the hand-overs while the walk
    settles; and it refreshes more than 1/8 of the nodes once, after the
    edges settle (twice when the shortlists resume while they move)."""
    kernels = _karp_kernels()
    dense = {name: _dense_karp_level(kern) for name, kern in kernels.items()}
    pulls = _count_calls(monkeypatch, grid_module, "_pull_argmin")
    refreshed = _count_calls(monkeypatch, Stencil, "_refresh")
    for name, kern in kernels.items():
        pulls.clear()
        refreshed.clear()
        assert discrete_critical_value(kern) == dense[name], name
        if name == "grid2d_n16":
            assert len(pulls) <= KARP_PULLS_2D_N16
            assert sum(8 * len(args[2]) > kern.size for args in refreshed) == 1
    monkeypatch.setattr(grid_module, "_SHORTLIST", 1)
    for name, kern in kernels.items():
        refreshed.clear()
        assert discrete_critical_value(kern) == dense[name], (name, "shortlist 1")
        assert sum(len(args[2]) for args in refreshed) > kern.size, name


@pytest.mark.parametrize("log", ["none", "cut", "whole"])
def test_karp_walks_once_and_replays_its_log(log, monkeypatch):
    """Karp scores rows replayed from its edge log and walks on from the
    last replayed row only past the log's cap.  With the whole walk logged
    (a cap of exactly its entries) the walk takes N steps per call, not
    2N - 1; with no log (cap 0) every row is walked again, D_N included;
    with a cap that a mid-walk step overflows, the steps before it are
    replayed and the rest walked.  Each way the level is the stored
    table's, bit for bit."""
    walk = Stencil.walk
    walks = []

    def counted(self, u, steps):
        walks.append(0)
        for step in walk(self, u, steps):
            walks[-1] += 1
            yield step

    monkeypatch.setattr(Stencil, "walk", counted)
    for name, kern in _karp_kernels().items():
        size = kern.size
        start = np.where(np.arange(size) == 0, 0.0, np.inf)
        counts = np.array([len(nodes) for _, nodes, _ in walk(kern, start, size)])
        changing = np.flatnonzero(counts)
        cut = int(changing[len(changing) // 2])    # 0-based index of the overflowing step
        cap = {"none": 0, "cut": int(np.sum(counts[:cut + 1])) - 1,
               "whole": int(np.sum(counts))}[log]
        monkeypatch.setattr(semigroup_module, "_karp_log_cap", lambda kernel, cap=cap: cap)
        walks.clear()
        assert discrete_critical_value(kern) == _dense_karp_level(kern), (name, log)
        logged = {"none": 0, "cut": cut, "whole": size}[log]
        assert walks == [size] + ([size - logged] if logged < size else []), (name, log)


def test_karp_refuses_a_replay_that_misses_a_bit(monkeypatch):
    """A logged edge that does not attain the walked row leaves the
    replayed D_N off the walked one, and Karp refuses it, naming the first
    node where they differ: here the last logged entry, whose edge no later
    step replaces, is moved to the node's dearest in-edge (the cheapest may
    tie on a symmetric field)."""
    replay = semigroup_module._KarpLog.replay

    def tamper(self, start):
        last = self.ends[self.steps] - 1
        self.offs[last] = np.argmax(self.kernel.weights[:, self.nodes[last]])
        return replay(self, start)

    monkeypatch.setattr(semigroup_module._KarpLog, "replay", tamper)
    with pytest.raises(WeakKamError, match=r"replayed row D_N differs from the walked one "
                                           r"at node \d+: -?\d"):
        discrete_critical_value(_grid2d_kernel())


def test_karp_refuses_a_nan_weight():
    """A NaN weight would reach every later row of a pull but not always a
    shortlist, so it is refused up front, by its offset and node; so is a
    -inf weight, which would make Karp's scores NaN where they count."""
    kern = _grid2d_kernel()
    offset = re.escape(str(tuple(kern.offsets[0].tolist())))
    for bad in (np.nan, -np.inf):
        weights = kern.weights.copy()
        weights[0, 37] = bad
        broken = replace(kern, weights=weights)
        with pytest.raises(WeakKamError, match=rf"offset {offset} into node 37 is {bad!r}"):
            discrete_critical_value(broken)


def test_karp_holds_no_table_and_at_most_its_shortlists():
    """Peak memory of Karp on a 2D n=32 torus, a priori: the padded lattice
    of one pull; at most six arrays of 32768 offset-node entries, a pull's
    block, a refresh chunk (start nodes, costs, sums and their order,
    counting the 2D neighbor arithmetic twice) or a block of the replay's
    logged edges; sixteen N-vectors; the shortlists, three arrays of s N
    entries and their s N offset indices; and the edge log at its cap, a
    node and an offset index per entry.  Shortlists and log take at most 6
    bytes per stencil entry.  The N x N table of the dense route would be
    8 MiB."""
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0, params={"amplitudes": (0.5,)})
    env = wk.sample_realization(spec, 0)
    grid = GridSpec(dim=2, n=32)
    kern = build_kernel(mechanical_model(dim=2, field_bound=0.5), env, grid,
                        dt=1.0 / 32.0, theta=2.0)
    m, size = len(kern.offsets), kern.size
    reach = int(np.max(np.abs(kern.offsets)))
    shortlists = (8 * 3 + 2) * grid_module._SHORTLIST * size
    log = (4 + 2) * semigroup_module._karp_log_cap(kern)
    budget = (8 * (grid.n + 2 * reach) ** 2 + 8 * 6 * 32768 + 8 * 16 * size
              + shortlists + log + SMALL_OBJECTS)
    assert shortlists + log <= 6 * m * size and budget < 8 * size * size
    assert peak_bytes(discrete_critical_value, kern) <= budget


def test_refold_shifts_tables_linearly(pend64):
    kern = pend64["raw_kernel"]
    folded = refold_kernel(kern, 1.0)
    t = 4 * kern.dt
    assert np.allclose(folded.at(t), kern.at(t) + 1.0 * t, atol=1e-12)
    assert folded.shift == 1.0


def test_refold_at_the_kernel_level_is_the_kernel(pend64):
    kern = pend64["kernel"]
    same = refold_kernel(kern, kern.shift)
    assert same.shift == kern.shift
    assert same.model is kern.model and same.env is kern.env
    assert np.array_equal(same.weights, kern.weights)
    t = 4 * kern.dt
    assert np.array_equal(same.at(t), kern.at(t))


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
    kern, w = pend64["kernel"], pend64["w"]
    times = kern.ladder(1.0)
    rep = check_monotone_semigroup(w, kern, times)
    assert rep.passed and rep.min_increment >= -1e-9


def test_flat_zero_function_is_a_corrector(flat64):
    kern, grid, c = flat64["kernel"], flat64["grid"], flat64["c"]
    assert c == 0.0
    u = GridFn.zeros(grid)
    rep = check_corrector(u, kern, kern.ladder(1.0), 1e-12)
    assert rep.passed and float(np.max(rep.residuals)) == 0.0


def test_semigroup_orbit_shape_and_start(pend64):
    kern, grid, w = pend64["kernel"], pend64["grid"], pend64["w"]
    orbit = semigroup_orbit(w, kern, 4)
    assert orbit.shape == (5, grid.size)
    assert np.array_equal(orbit[0], w.values)


def test_kernel_vs_monotone_scheme_comparison(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    u0 = GridFn(grid, 0.3 * np.cos(2 * np.pi * grid.points()[:, 0]))
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("tilted", [False, True], ids=["mechanical", "tilted"])
def test_kernel_rows_are_the_rolled_start_prices(tilted, dim):
    """Each kernel row is its offset's prices at the edge starts rolled onto
    the edge ends (np.roll), to the bit.  At n = 8 and dt = 1/4 the reach
    wraps half the torus, and the row of the offsets +-n/2 that join the
    same node pair is the min of both pricings."""
    env = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=dim, seed=2), 0)
    bound = env.field_bound()
    # tilted against the lattice order, the first of the offsets +-n/2 is the cheaper
    model = (wk.tilted_mechanical_model([-0.5] * dim, dim=dim, field_bound=bound) if tilted
             else wk.mechanical_model(dim=dim, field_bound=bound))
    grid = GridSpec(dim=dim, n=8)
    kern = build_kernel(model, env, grid, dt=0.25, theta=2.0)
    pts, expect, priced = grid.points(), {}, []
    for k in grid.offsets_within(kern.radius_one, include_zero=True):
        disp = k * grid.h
        cost = kern.dt * (model.L(env.evaluate(grid.wrap(pts + 0.5 * disp)), (disp / kern.dt)[None, :])
                          + 0.0)
        if np.any(np.isfinite(cost)):
            pair = tuple(k % grid.n)
            row = rolled(grid, cost, k)
            expect[pair] = np.minimum(row, expect[pair]) if pair in expect else row
            priced.append(pair)
    assert len(priced) > len(expect)    # some rows are merged
    assert sorted(expect) == sorted(tuple(k % grid.n) for k in kern.offsets)
    for k, row in zip(kern.offsets, kern.weights):
        assert row.tobytes() == expect[tuple(k % grid.n)].tobytes()


KERNEL_MODELS = {
    "mechanical": lambda dim: mechanical_model(dim=dim),
    "tilted": lambda dim: wk.tilted_mechanical_model([0.3] * dim, dim=dim),
    "nonstrict": lambda dim: nonstrict_model(dim=dim),
    "eikonal": lambda dim: eikonal_model(dim=dim, offset=2.5, field_bound=1.5),
    "reversed": lambda dim: reversed_model(wk.tilted_mechanical_model([0.3] * dim, dim=dim)),
}


@pytest.mark.parametrize("kind", ["periodic", "quasiperiodic", "random_fourier", "poisson_bumps"])
@pytest.mark.parametrize("dim,n", [(1, 64), (1, 512), (2, 16), (2, 32), (2, 64)])
def test_kernel_build_matches_the_per_offset_oracle(dim, n, kind):
    """build_kernel prices its start-indexed rows off the parity covers
    into one array and turns them in place; the oracle wraps each offset's
    midpoints, evaluates V on them, stacks its rows and turns a copy.  On
    these dyadic lattices every weight has the oracle's bits (compared as
    int64), the offsets are equal, and a refusal has the oracle's message.
    At dt = 1/64 the unit-speed models are refused exactly where a
    one-cell move needs a speed h/dt above 1.  The tilt makes L odd in q,
    so rows priced by the end, or left by the start, move weights."""
    params = {"coverage": 1.0} if kind == "poisson_bumps" else {}
    env = wk.sample_realization(wk.EnvSpec(kind=kind, dimension=dim, seed=1, params=params), 0)
    grid, dt = GridSpec(dim=dim, n=n), 1.0 / 64.0
    for name, make in KERNEL_MODELS.items():
        model = make(dim)
        try:
            offsets, weights = per_offset_kernel(model, env, grid, dt, 1.0, 0.25)
        except ConfigError as exc:
            assert name in ("nonstrict", "eikonal") and grid.h > dt, name
            with pytest.raises(ConfigError) as refused:
                build_kernel(model, env, grid, dt, 1.0)
            assert str(refused.value) == str(exc)
            continue
        assert name not in ("nonstrict", "eikonal") or grid.h <= dt, name
        kern = refold_kernel(build_kernel(model, env, grid, dt, 1.0), 0.25)
        assert np.array_equal(kern.offsets, offsets), name
        assert kern.weights.shape == weights.shape, name
        assert np.array_equal(kern.weights.view(np.int64), weights.view(np.int64)), name


def test_kernel_build_holds_one_weight_array_and_one_hop_stencil():
    """Peak memory of build_kernel on a 2D n=64 torus (241 offsets), a
    priori: its one float64 weight array, priced and turned in place; one
    float32 hop stencil of the connectivity check at a time; and four
    arrays of _BLOCK float64 entries, room for a pull's candidate block,
    its padded vector and float32 cast buffer, and the gather plan's index
    arrays while it is built.  Stacking the rows into a second array, or
    turning them into a fresh one, holds a second weight array."""
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0, params={})
    env = wk.sample_realization(spec, 0)
    model = mechanical_model(dim=2)
    grid = GridSpec(dim=2, n=64)
    theta = kappa(model, 1.0, env) + 1.0
    kern = build_kernel(model, env, grid, 1.0 / 64.0, theta)
    assert len(kern.offsets) == 241
    budget = kern.weights.nbytes + 4 * kern.weights.size + 4 * 8 * _BLOCK + SMALL_OBJECTS
    del kern
    assert peak_bytes(build_kernel, model, env, grid, 1.0 / 64.0, theta) <= budget


def _one_way_ring(cut: int) -> Stencil:
    """The ring 0 -> 1 -> ... -> 7 -> 0 on a 1D torus of 8 nodes, one
    offset +1, with the edge into node cut removed."""
    weights = np.ones((1, 8))
    weights[0, cut] = np.inf
    return Stencil(GridSpec(dim=1, n=8), np.array([[1]]), weights)


@pytest.mark.parametrize("cut,reaches", [(0, (True, False)), (1, (False, True))],
                         ids=["from_node_0_only", "into_node_0_only"])
def test_connectivity_check_reads_each_direction_off_its_own_rows(cut, reaches):
    """Cut at the edge 7 -> 0, node 0 reaches every node and none reaches
    it back; cut at 0 -> 1, every node reaches node 0 and it reaches none.
    The check on the kernel's rows sees the first direction, the check on
    the turned rows the second."""
    ring = _one_way_ring(cut)
    assert (semigroup_module._reaches_every_node(ring),
            semigroup_module._reaches_every_node(ring.reversed())) == reaches


def _one_way_model(phase: float):
    """1D kernel model whose only finite moves at dt = h on 8 nodes are
    standing still and one cell forward, except the forward move whose
    midpoint field value V = cos(2 pi x + phase) is the largest: phase
    pi/8 removes the move 7 -> 0, -pi/8 the move 0 -> 1."""
    def L(V, q):
        speed = np.atleast_2d(q)[:, 0]
        blocked = (speed < 0) | (speed > 1.0) | ((speed > 0) & (V > 0.99))
        return np.where(blocked, np.inf, speed - V)
    env = wk.sample_realization(wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                                           params={"phases": (phase,)}), 0)
    return replace(nonstrict_model(dim=1), L=L), env


@pytest.mark.parametrize("phase,refused_by", [(np.pi / 8, 0), (-np.pi / 8, 1)],
                         ids=["from_node_0_only", "into_node_0_only"])
def test_one_way_kernels_are_refused_by_their_own_direction(phase, refused_by, monkeypatch):
    """A kernel whose graph node 0 spans but that cannot reach node 0 back
    is refused by the first check, on the start-priced rows (every node
    reaches node 0); the converse passes it and is refused by the second,
    on the turned rows (node 0 reaches every node)."""
    model, env = _one_way_model(phase)
    grid = GridSpec(dim=1, n=8)
    check, seen = semigroup_module._reaches_every_node, []

    def recorded(stencil):
        seen.append(check(stencil))
        return seen[-1]
    monkeypatch.setattr(semigroup_module, "_reaches_every_node", recorded)
    with pytest.raises(ConfigError, match="not strongly connected"):
        build_kernel(model, env, grid, grid.h, 1.0)
    assert seen == [True] * refused_by + [False]
