"""Periodic grid container: geometry, shifts, calculus stencils, CSV, and
the stencil graph with its shortest-path and policy-iteration engines."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import SMALL_OBJECTS, one_step_table, peak_bytes, walk_table
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (_index_of, edge_gap_by_rolls, load_gridfn_csv, min_image, one_sided_slopes,
                     pull_argmin_by_rolls, pull_by_rolls, replayed_walk, reversed_by_rolls, rolled,
                     take_min_by_argmin, torus_dist, worst_gap_node_by_rolls)

import weakkam as wk
from weakkam.errors import ConfigError, SubcriticalLevelError
from weakkam.grid import (_BLOCK, BoxSpec, GridFn, GridSpec, Stencil, _pull_argmin,
                          _take_min, policy_iteration, relax, save_gridfn_csv)
from weakkam.hamiltonian import kappa
from weakkam.semigroup import build_kernel


def test_axis_and_points_cover_unit_cell():
    g = GridSpec(dim=1, n=8)
    assert g.h == 0.125
    assert np.array_equal(g.axis(), np.arange(8) / 8.0)
    assert g.points().shape == (8, 1)
    g2 = GridSpec(dim=2, n=8)
    assert g2.size == 64
    assert g2.points().shape == (64, 2)
    # C order: second coordinate varies fastest
    assert np.allclose(g2.points()[1], [0.0, 0.125])


def test_min_image_halves_the_period():
    assert min_image(0.75) == -0.25
    assert min_image(-0.75) == 0.25
    assert min_image(0.5) == -0.5  # half-open convention [-1/2, 1/2)
    assert min_image(0.25) == 0.25


def test_torus_dist_symmetric_and_wrapped():
    g = GridSpec(dim=1, n=16)
    assert np.allclose(torus_dist(g, [0.1], [0.9]), 0.2)
    g2 = GridSpec(dim=2, n=8)
    d = torus_dist(g2, np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert np.allclose(d, np.hypot(0.2, 0.2))


def test_index_of_rounds_to_nearest_node():
    g = GridSpec(dim=1, n=8)
    assert _index_of(g, np.array([0.24])) == 2
    assert _index_of(g, np.array([0.99])) == 0  # wraps
    g2 = GridSpec(dim=2, n=8)
    assert _index_of(g2, np.array([0.25, 0.5])) == 2 * 8 + 4


def test_offsets_within_radius_counts_and_clipping():
    g = GridSpec(dim=1, n=16)
    offs = g.offsets_within(2.5 * g.h)
    assert offs.tolist() == [[-2], [-1], [1], [2]]
    offs0 = g.offsets_within(2.5 * g.h, include_zero=True)
    assert offs0.tolist() == [[-2], [-1], [0], [1], [2]]
    # clipped at half the period no matter how large the radius
    offs_all = g.offsets_within(10.0)
    assert int(np.max(np.abs(offs_all))) == 8


@pytest.mark.parametrize("dim", [1, 2])
def test_box_offsets_take_the_zero_offset_on_request(dim):
    box = BoxSpec(dim=dim, radius=2.0, points_per_unit=8)
    plain = box.offsets_within(2.5 * box.h)
    with_zero = box.offsets_within(2.5 * box.h, include_zero=True)
    is_zero = np.all(with_zero == 0, axis=1)
    assert int(np.sum(is_zero)) == 1
    assert not np.any(np.all(plain == 0, axis=1))
    assert np.array_equal(with_zero[~is_zero], plain)


def test_rolled_oracle_reads_predecessor_values():
    g = GridSpec(dim=1, n=8)
    vals = np.arange(8.0)
    shifted = rolled(g, vals, np.array([3]))
    # out[i] = values[i - 3]
    assert shifted[3] == 0.0 and shifted[0] == 5.0


def test_gridfn_algebra_and_normalization():
    g = GridSpec(dim=1, n=8)
    f = GridFn(g, g.points()[:, 0] + 1.0)
    assert np.all(GridFn.zeros(g).values == 0.0)
    assert f.normalized_at_origin().values[0] == 0.0


def test_central_gradient_second_order_on_sine():
    g = GridSpec(dim=1, n=256)
    f = GridFn(g, np.sin(2 * np.pi * g.points()[:, 0]))
    grad = f.central_gradient()[:, 0]
    exact = 2 * np.pi * np.cos(2 * np.pi * g.axis())
    # central differences: error <= (2 pi)^3 h^2 / 6
    assert np.max(np.abs(grad - exact)) <= (2 * np.pi) ** 3 * g.h**2 / 6


def test_one_sided_slopes_bracket_kinks():
    g = GridSpec(dim=1, n=64)
    f = GridFn(g, np.abs(min_image(g.points()[:, 0])))
    bwd, fwd = one_sided_slopes(f, axis=0)
    assert bwd[0] == -1.0 and fwd[0] == 1.0  # convex kink at the origin


def test_second_differences_exact_on_quadratic_of_the_lattice():
    g = GridSpec(dim=1, n=32)
    # use the locally quadratic cosine: q -> -(2 pi)^2 cos at k h -> 0 scale;
    # instead take an exactly representable parabola of the periodic distance
    f = GridFn(g, np.cos(2 * np.pi * g.points()[:, 0]))
    q1 = f.second_differences(np.array([1]))
    # cosine second difference has the exact eigenvalue 2(cos(2 pi k h)-1)/h^2
    lam = (2 * (np.cos(2 * np.pi * g.h) - 1)) / g.h**2
    assert np.allclose(q1, lam * f.values, atol=1e-9)


def test_periodic_eval_interpolates_and_wraps():
    g = GridSpec(dim=1, n=8)
    f = GridFn(g, np.arange(8.0))
    mid = f.periodic_eval(np.array([[g.h / 2]]))
    assert np.allclose(mid, 0.5)
    # wraps across the seam: between node 7 and node 0
    seam = f.periodic_eval(np.array([[1.0 - g.h / 2]]))
    assert np.allclose(seam, 3.5)
    assert np.allclose(f.periodic_eval(np.array([[g.h]])), 1.0)


def test_gridfn_csv_roundtrip_is_exact():
    g = GridSpec(dim=2, n=8)
    rng = np.random.default_rng(3)
    f = GridFn(g, rng.standard_normal(g.size))
    path = "/tmp/wk_test_gridfn.csv"
    save_gridfn_csv(f, path)
    back = load_gridfn_csv(path)
    assert back.grid.dim == 2 and back.grid.n == 8
    assert np.array_equal(back.values, f.values)  # repr floats: bit-exact


def test_box_spec_is_odd_and_centered():
    b = BoxSpec(dim=1, radius=2.0, points_per_unit=8)
    assert b.n % 2 == 1
    pts = b.points()
    assert np.allclose(pts[0], [-2.0]) and np.allclose(pts[-1], [2.0])
    assert np.allclose(pts[b.size // 2], [0.0])


def test_grid_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n=8)
    with pytest.raises(ConfigError):
        GridSpec(dim=1, n=0)
    for box, named in [({"dim": 3, "radius": 1.0}, "box dimension must be 1 or 2, got 3"),
                       ({"dim": 1, "radius": 1.0, "points_per_unit": 0}, "points_per_unit >= 1, got 0"),
                       ({"dim": 2, "radius": 1.0, "points_per_unit": 0.5}, ">= 1, got 0.5"),
                       ({"dim": 1, "radius": -0.5}, "box radius -0.5 is not"),
                       ({"dim": 2, "radius": math.inf}, "box radius inf is not"),
                       ({"dim": 1, "radius": 1 / 64},    # round(1/2) = 0 nodes per side
                        "box radius 0.015625 at 32 points per unit gives a one-node box")]:
        with pytest.raises(ConfigError, match=re.escape(named)):
            BoxSpec(**box)


@pytest.mark.parametrize("grid", [GridSpec(dim=1, n=8), GridSpec(dim=2, n=12),
                                  BoxSpec(dim=1, radius=0.5, points_per_unit=8),
                                  BoxSpec(dim=2, radius=0.5, points_per_unit=8)],
                         ids=["grid1d", "grid2d", "box1d", "box2d"])
def test_neighbors_match_ravel_multi_index(grid):
    """Random nodes moved by random steps give numpy's flat indices: wrapped
    on a torus, by up to two periods, and -1 past the edge of a box.  Nodes
    broadcast against the leading axes of the steps."""
    rng = np.random.default_rng(grid.size)
    shape, n = grid.shape, grid.shape[0]
    span = 2 * n if grid.periodic else n
    x = rng.integers(0, grid.size, (5, 7))
    step = rng.integers(-span, span + 1, (3, 1, 7, grid.dim))
    moved = np.stack(np.unravel_index(x, shape), axis=-1) + step
    if grid.periodic:
        expect = np.ravel_multi_index(tuple(np.moveaxis(moved, -1, 0)), shape, mode="wrap")
    else:
        inside = np.all((moved >= 0) & (moved < n), axis=-1)
        expect = np.where(inside, np.ravel_multi_index(tuple(np.moveaxis(moved, -1, 0)), shape,
                                                       mode="clip"), -1)
        assert 0 < np.count_nonzero(inside) < inside.size
    got = grid.neighbors(x, step)
    assert got.shape == expect.shape and np.array_equal(got, expect)
    assert int(grid.neighbors(int(x[0, 0]), step[0, 0, 0])) == expect[0, 0, 0]


# -- the stencil graph and its relaxation engine -----------------------------

LATTICES = [GridSpec(dim=1, n=8), GridSpec(dim=2, n=8),
            BoxSpec(dim=2, radius=0.25, points_per_unit=8)]


def _edge_table(stencil):
    """Dense cost[y, x] of the cheapest one-edge move y -> x (+inf: none),
    read off the stencil by coordinates, independently of its methods."""
    grid, size = stencil.grid, stencil.size
    shape = grid.shape
    cost = np.full((size, size), np.inf)
    for x in range(size):
        here = np.array(np.unravel_index(x, shape))
        for k, row in zip(stencil.offsets, stencil.weights):
            there = here - k
            if grid.periodic:
                there = there % grid.n
            elif np.any((there < 0) | (there >= grid.n)):
                continue
            y = int(np.ravel_multi_index(tuple(there), shape))
            cost[y, x] = min(cost[y, x], row[x])
    return cost


def _floyd_warshall(cost):
    dist = cost.copy()
    np.fill_diagonal(dist, np.minimum(np.diag(dist), 0.0))
    for z in range(len(dist)):
        dist = np.minimum(dist, dist[:, z:z + 1] + dist[z:z + 1, :])
    return dist


@st.composite
def small_stencils(draw):
    grid = draw(st.sampled_from(LATTICES))
    offsets = [k for k in grid.offsets_within(2.5 * grid.h) if draw(st.booleans())]
    offsets = np.array(offsets or [grid.offsets_within(grid.h)[0]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.0, 0.3, 0.8]))
    # integer costs keep every path sum exact, so engine and oracle agree bitwise
    weights = rng.integers(0, 10, (len(offsets), grid.size)).astype(float)
    weights[rng.random(weights.shape) < holes] = np.inf
    init = rng.integers(-5, 6, grid.size).astype(float)
    init[rng.random(grid.size) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = np.inf
    return Stencil(grid, offsets, weights), init


@settings(max_examples=60, deadline=None)
@given(small_stencils())
def test_relax_matches_floyd_warshall_on_nonnegative_stencils(case):
    stencil, init = case
    apsp = _floyd_warshall(_edge_table(stencil))
    backward = np.min(init[:, None] + apsp, axis=0)     # min_y init(y) + S(y, x)
    forward = np.min(apsp + init[None, :], axis=1)      # min_x S(y, x) + init(x)
    assert np.array_equal(relax(stencil, init), backward)
    assert np.array_equal(relax(stencil.reversed(), init), forward)


@st.composite
def walk_cases(draw):
    grid = draw(st.sampled_from(LATTICES))
    steps = [*grid.offsets_within(2.5 * grid.h), np.zeros(grid.dim, dtype=int)]
    offsets = np.array([k for k in steps if draw(st.booleans())] or steps[:1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.0, 0.3, 0.8]))
    # integer costs, negative ones too: every walk sum is exact
    weights = rng.integers(-5, 10, (len(offsets), grid.size)).astype(float)
    weights[rng.random(weights.shape) < holes] = np.inf
    sources = rng.integers(0, grid.size, draw(st.integers(1, 6)))
    return Stencil(grid, offsets, weights), sources, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(walk_cases())
def test_walk_costs_match_dense_minplus_powers(case):
    """On a box, starts past the edge have no out-edge: unmasked, they would
    land on the last node."""
    stencil, sources, steps = case
    assert np.array_equal(one_step_table(stencil), _edge_table(stencil))
    assert np.array_equal(stencil.walk_costs(sources, steps),
                          walk_table(stencil, steps)[sources])
    # a stacked pull is the row-by-row pulls, bit for bit, on float data
    rng = np.random.default_rng(steps)
    floats = Stencil(stencil.grid, stencil.offsets,
                     np.where(np.isfinite(stencil.weights),
                              rng.standard_normal(stencil.weights.shape), np.inf))
    stack = rng.standard_normal((len(sources), stencil.size))
    stack[rng.random(stack.shape) < 0.3] = np.inf
    rows = np.stack([floats.pull(row) for row in stack])
    assert floats.pull(stack).tobytes() == rows.tobytes()
    # and a walk is repeated pulls, bit for bit, as is its replay from the
    # in-edges it records
    row = start = rng.standard_normal(stencil.size)
    for walked, replayed in replayed_walk(floats, start, 3 * steps + 5):
        row = floats.pull(row)
        assert walked.tobytes() == row.tobytes() == replayed.tobytes()


@settings(max_examples=60, deadline=None)
@given(small_stencils())
def test_edge_gap_and_the_relax_witness_match_dense_formulas(case):
    """Both reduce the stencil one offset at a time; the dense one-step
    table keeps the cheapest of two offsets that join the same pair."""
    stencil, init = case
    rng = np.random.default_rng(stencil.size)
    floats = Stencil(stencil.grid, stencil.offsets,
                     np.where(np.isfinite(stencil.weights),
                              rng.standard_normal(stencil.weights.shape), np.inf))
    table = one_step_table(floats)
    v = rng.standard_normal(floats.size)
    gaps = (v[None, :] - v[:, None]) - table    # gaps[y, x] for the edge y -> x
    assert floats.edge_gap(v) == np.max(gaps[np.isfinite(table)], initial=-np.inf)
    x = floats.worst_gap_node(v)
    assert np.max(gaps[:, x], where=np.isfinite(table[:, x]), initial=-np.inf) == floats.edge_gap(v)
    # the witness records, per improved node, the first offset that
    # attains the pull, and the start of that edge attains the table's min
    best, arg = _pull_argmin(floats, init)
    assert best.tobytes() == floats.pull(init).tobytes()
    preds = floats.predecessors(np.arange(floats.size))
    dense = np.where(preds >= 0, init[preds] + floats.weights, np.inf)
    nodes = np.flatnonzero(np.isfinite(best))
    assert np.array_equal(arg[nodes], np.argmin(dense, axis=0)[nodes])
    starts = floats.grid.neighbors(nodes, -floats.offsets[arg[nodes]])
    assert np.array_equal(init[starts] + table[starts, nodes], best[nodes])


def _gather_stencil(case: str) -> Stencil:
    """A stencil with normal weights, 30 % of them +inf.  The tori have odd
    n, and offsets out to +-n//2 in 1D (every offset) and in the small 2D
    case; the far ones have offsets past n/2 and past n, and the boxes
    offsets that reach past the box.  torus1d and torus2d span several
    blocks of the gather."""
    grid, offsets = {
        "torus1d": (GridSpec(dim=1, n=1023), 511),
        "torus2d": (GridSpec(dim=2, n=45), 6),
        "torus2d_small": (GridSpec(dim=2, n=9), 4 * math.sqrt(2)),
        "far1d": (GridSpec(dim=1, n=8), [[-11], [-7], [0], [3], [6], [9]]),
        "far2d": (GridSpec(dim=2, n=8), [[5, -6], [0, 7], [-3, 2], [9, 9], [0, 0], [-8, 4]]),
        "box1d": (BoxSpec(dim=1, radius=0.5, points_per_unit=8), [[-9], [-3], [0], [1], [4], [6]]),
        "box2d": (BoxSpec(dim=2, radius=0.25, points_per_unit=8), 3),
        "box2d_float32": (BoxSpec(dim=2, radius=1.0, points_per_unit=8), 5),
    }[case]
    if np.ndim(offsets) == 0:    # a radius in cells
        offsets = grid.offsets_within(offsets * grid.h, include_zero=True)
    offsets = np.array(offsets)
    rng = np.random.default_rng(len(case))
    weights = rng.standard_normal((len(offsets), grid.size))
    weights[rng.random(weights.shape) < 0.3] = np.inf
    dtype = np.float32 if case.endswith("float32") else float
    return Stencil(grid, offsets, weights.astype(dtype))


GATHER_CASES = ["torus1d", "torus2d", "torus2d_small", "far1d", "far2d", "box1d", "box2d",
                "box2d_float32"]


@pytest.mark.parametrize("case", GATHER_CASES)
def test_gathered_pulls_match_the_per_offset_rolls_to_the_byte(case):
    stencil = _gather_stencil(case)
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((3, stencil.size))
    stack[rng.random(stack.shape) < 0.3] = np.inf
    stack[2] = np.inf
    assert stencil.pull(stack).tobytes() == pull_by_rolls(stencil, stack).tobytes()
    for u in stack:
        assert stencil.pull(u).tobytes() == pull_by_rolls(stencil, u).tobytes()
        best, arg = _pull_argmin(stencil, u)
        want_best, want_arg = pull_argmin_by_rolls(stencil, u)
        assert best.tobytes() == want_best.tobytes() and np.array_equal(arg, want_arg)
        # started from each node's sum along a random in-edge, the minimum
        # keeps its bits, and the offset returned where it is lower attains it
        nodes, ext = np.arange(stencil.size), np.append(u, np.inf)
        some = rng.integers(len(stencil.offsets), size=stencil.size)
        start = ext[stencil.predecessors(nodes)[some, nodes]] + stencil.weights[some, nodes]
        best, arg = _pull_argmin(stencil, u, start.copy())    # -1 off a box reads the +inf
        beaten = np.flatnonzero(best < start)
        sums = ext[stencil.predecessors(beaten)[arg[beaten], np.arange(len(beaten))]] \
            + stencil.weights[arg[beaten], beaten]
        assert best.tobytes() == want_best.tobytes()
        assert sums.tobytes() == best[beaten].tobytes()


@pytest.mark.parametrize("case", GATHER_CASES)
def test_gathered_edge_gaps_match_the_per_offset_rolls_to_the_byte(case):
    stencil = _gather_stencil(case)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(stencil.size)
    assert np.float64(stencil.edge_gap(v)).tobytes() == \
        np.float64(edge_gap_by_rolls(stencil, v)).tobytes()
    assert stencil.worst_gap_node(v) == worst_gap_node_by_rolls(stencil, v)
    # integer weights and a flat v tie many edges: the first offset wins,
    # then the first node
    ties = Stencil(stencil.grid, stencil.offsets, np.round(stencil.weights))
    flat = np.zeros(stencil.size)
    assert ties.worst_gap_node(flat) == worst_gap_node_by_rolls(ties, flat)
    v[stencil.size // 2] = np.inf
    assert stencil.edge_gap(v) == np.inf == edge_gap_by_rolls(stencil, v)
    assert stencil.worst_gap_node(v) == stencil.size // 2 == worst_gap_node_by_rolls(stencil, v)


@pytest.mark.parametrize("case", GATHER_CASES)
def test_gathered_reversal_matches_the_per_offset_rolls_to_the_byte(case):
    stencil = _gather_stencil(case)
    back = stencil.reversed()
    offsets, weights = reversed_by_rolls(stencil)
    assert np.array_equal(back.offsets, offsets)
    assert back.weights.dtype == weights.dtype and back.weights.tobytes() == weights.tobytes()
    u = np.random.default_rng(3).standard_normal(stencil.size)
    assert back.pull(u).tobytes() == pull_by_rolls(back, u).tobytes()
    if stencil.grid.periodic:    # no edge leaves a torus
        twice = back.reversed()
        assert np.array_equal(twice.offsets, stencil.offsets)
        assert twice.weights.tobytes() == stencil.weights.tobytes()


def test_reversal_and_edge_gap_hold_one_block_beyond_the_output():
    """Both read the stencil one block of offsets at a time: a reversal
    holds its output and about one block, an edge gap about one block.
    Padding every row at once would hold a second stencil."""
    spec = wk.EnvSpec(kind="periodic", dimension=2, seed=0, params={})
    env = wk.sample_realization(spec, 0)
    model = wk.mechanical_model(dim=2)
    kern = build_kernel(model, env, GridSpec(dim=2, n=64), dt=1.0 / 64.0,
                        theta=kappa(model, 1.0, env) + 1.0)
    block = 2 * 2**20
    assert kern.weights.nbytes > 3 * block
    assert peak_bytes(kern.reversed) <= kern.weights.nbytes + block
    v = np.random.default_rng(0).standard_normal(kern.size)
    assert peak_bytes(kern.edge_gap, v) <= block
    assert peak_bytes(kern.worst_gap_node, v) <= block


@pytest.mark.parametrize("case", ["torus1d", "torus2d"])
def test_reversal_copies_each_window_straight_into_its_turned_row(case):
    """Beyond its output, a reversal holds one padded block of rows (the
    plan built beforehand) and small objects: every row's window is
    copied into its turned row, with no gathered block in between, which
    would hold another block of rows."""
    stencil = _gather_stencil(case)
    plan = stencil._plan
    rows = min(len(stencil.offsets), max(1, _BLOCK // stencil.size))
    padded = rows * plan.pad.size * stencil.weights.itemsize
    assert rows * stencil.size * stencil.weights.itemsize > SMALL_OBJECTS
    assert peak_bytes(stencil.reversed) <= stencil.weights.nbytes + padded + SMALL_OBJECTS


@pytest.mark.parametrize("grid", LATTICES, ids=["grid1d", "grid2d", "box2d"])
def test_planted_negative_cycle_raises_a_closed_walk_witness(grid):
    offsets = grid.offsets_within(2.5 * grid.h)
    stencil = Stencil(grid, offsets, np.full((len(offsets), grid.size), 5.0))
    # plant the directed three-cycle a -> a + k1 -> a + k1 + k2 -> a at cost
    # -1 per edge; the same nodes the other way round cost +5 per edge
    k1, k2 = np.eye(grid.dim, dtype=int)[0], np.eye(grid.dim, dtype=int)[-1]
    a = grid.size // 2
    b = int(grid.neighbors(a, k1))
    c = int(grid.neighbors(b, k2))
    for k, into in ((k1, b), (k2, c), (-(k1 + k2), a)):
        stencil.weights[np.all(offsets == k, axis=1), into] = -1.0
    source = np.where(np.arange(grid.size) == 0, 0.0, np.inf)
    for relaxed in (stencil, stencil.reversed()):
        cost = _edge_table(relaxed)
        with pytest.raises(SubcriticalLevelError) as exc:
            relax(relaxed, source)
        cycle, total = exc.value.cycle, exc.value.cycle_cost
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert len(set(cycle)) == len(cycle) >= 2
        assert all(np.isfinite(cost[y, x]) for y, x in hops)
        assert total == sum(cost[y, x] for y, x in hops) and total < 0


# -- policy iteration and the critical graph ----------------------------------


def _brute_critical(cost):
    """Minimal cycle mean (exact) and the nodes on minimal-mean closed walks,
    from the diagonals of every min-plus power up to the node count."""
    size = len(cost)
    walk, diags = cost.copy(), []
    for _ in range(size):
        diags.append(np.diagonal(walk).copy())
        walk = np.min(walk[:, :, None] + cost[None, :, :], axis=1)
    means = [[Fraction(int(d), k + 1) if np.isfinite(d) else None for d in row]
             for k, row in enumerate(diags)]
    best = min(m for row in means for m in row if m is not None)
    return best, np.array([any(row[x] == best for row in means) for x in range(size)])


@st.composite
def connected_stencils(draw):
    grid = draw(st.sampled_from(LATTICES))
    unit = [k for k in grid.offsets_within(grid.h)]    # every unit step, both ways
    extra = [k for k in grid.offsets_within(2.5 * grid.h, include_zero=True)
             if np.abs(k).sum() > 1 or not k.any()] if grid.periodic else []
    offsets = np.array(unit + [k for k in extra if draw(st.booleans())])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 3, 10]))
    return Stencil(grid, offsets, rng.integers(0, top, (len(offsets), grid.size)).astype(float))


@settings(max_examples=40, deadline=None)
@given(connected_stencils())
def test_policy_iteration_matches_the_brute_force_cycle_means(stencil):
    best, on_best = _brute_critical(_edge_table(stencil))
    crit = policy_iteration(stencil)
    assert crit.mean == float(best)
    assert np.array_equal(crit.mask, on_best)
    hops = list(zip(crit.cycle, crit.cycle[1:] + crit.cycle[:1]))
    assert crit.mean == math.fsum(stencil.edge_cost(y, x) for y, x in hops) / len(hops)


def _planted(n, offsets, base):
    grid = GridSpec(dim=1, n=n)
    offsets = np.array(offsets)[:, None]
    return Stencil(grid, offsets, np.full((len(offsets), n), float(base)))


def _set_edge(stencil, y, x, cost):
    k = (x - y) % stencil.grid.n
    stencil.weights[[i for i, o in enumerate(stencil.offsets[:, 0]) if o % stencil.grid.n == k], x] = cost


def test_planted_three_cycle_without_a_self_loop_is_the_mask():
    stencil = _planted(8, [-2, -1, 0, 1, 2], 10.0)
    for y, x in ((2, 3), (3, 4), (4, 2)):
        _set_edge(stencil, y, x, 1.0)
    for x in range(8):
        _set_edge(stencil, x, x, 5.0)
    crit = policy_iteration(stencil)
    assert crit.mean == 1.0
    assert sorted(crit.cycle) == [2, 3, 4]
    assert np.flatnonzero(crit.mask).tolist() == [2, 3, 4]


def test_one_way_saturated_path_between_critical_loops_is_left_out():
    stencil = _planted(12, [-1, 0, 1], 1.0)
    _set_edge(stencil, 1, 1, 0.0)
    _set_edge(stencil, 6, 6, 0.0)
    for y in range(1, 6):
        _set_edge(stencil, y, y + 1, 0.0)
    crit = policy_iteration(stencil)
    assert crit.mean == 0.0
    # the path 1 -> 2 -> ... -> 6 costs nothing, so it is saturated for the
    # distance-from-the-loops eigenvector, yet it closes no cycle
    assert np.flatnonzero(crit.mask).tolist() == [1, 6]


def test_flat_stencil_is_critical_everywhere():
    grid = GridSpec(dim=2, n=8)
    offsets = grid.offsets_within(grid.h * 1.5, include_zero=True)
    crit = policy_iteration(Stencil(grid, offsets, np.full((len(offsets), grid.size), 0.5)))
    assert crit.mean == 0.5
    assert crit.mask.all()
    assert np.all(crit.bias == 0.0)


def test_take_min_is_the_argmin_oracle_on_ties_infinities_and_nan():
    """Block minima with the index searched only where a block lowers best
    give the full argmin's values and first indices: values drawn from a
    few levels tie often, whole +inf columns lower nothing, and a column
    holding a NaN lowers nothing either."""
    rng = np.random.default_rng(5)
    levels = np.array([0.0, 0.5, 1.0, 2.0, np.inf, np.nan])
    for trial in range(40):
        rows, size = slice(7, 7 + rng.integers(1, 9)), 64
        cand = rng.choice(levels, p=[0.25, 0.25, 0.2, 0.1, 0.15, 0.05],
                          size=(rows.stop - rows.start, size))
        cand[:, :4] = np.inf
        cand[:, 4:8] = 0.5
        best = rng.choice(levels[:5], size=size)
        best[8] = np.nan
        arg = rng.integers(0, 3, size)
        want_best, want_arg = best.copy(), arg.copy()
        take_min_by_argmin(cand, rows, want_best, want_arg)
        _take_min(cand, rows, best, arg)
        assert best.tobytes() == want_best.tobytes()
        assert np.array_equal(arg, want_arg)


def test_policy_iteration_refuses_a_graph_that_is_not_strongly_connected():
    loops = _planted(8, [0], 1.0)
    loops.weights[0, 3] = 0.0
    with pytest.raises(ConfigError, match="strongly connected"):
        policy_iteration(loops)
    one_way = _planted(8, [1], 1.0)
    one_way.weights[0, 0] = np.inf
    with pytest.raises(ConfigError, match="edge into every node"):
        policy_iteration(one_way)
