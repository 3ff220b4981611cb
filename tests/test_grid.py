"""Periodic grid container: geometry, shifts, calculus stencils, CSV, and
the stencil graph with its shortest-path engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakkam.errors import ConfigError, SubcriticalLevelError
from weakkam.grid import (BoxSpec, GridFn, GridSpec, Stencil, load_gridfn_csv,
                          relax, save_gridfn_csv)


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
    g = GridSpec(dim=1, n=16)
    assert g.min_image(0.75) == -0.25
    assert g.min_image(-0.75) == 0.25
    assert g.min_image(0.5) == -0.5  # half-open convention [-1/2, 1/2)
    assert g.min_image(0.25) == 0.25


def test_torus_dist_symmetric_and_wrapped():
    g = GridSpec(dim=1, n=16)
    assert np.allclose(g.torus_dist([0.1], [0.9]), 0.2)
    g2 = GridSpec(dim=2, n=8)
    d = g2.torus_dist(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert np.allclose(d, np.hypot(0.2, 0.2))


def test_index_of_rounds_to_nearest_node():
    g = GridSpec(dim=1, n=8)
    assert g.index_of(np.array([0.24])) == 2
    assert g.index_of(np.array([0.99])) == 0  # wraps
    g2 = GridSpec(dim=2, n=8)
    assert g2.index_of(np.array([0.25, 0.5])) == 2 * 8 + 4


def test_offsets_within_radius_counts_and_clipping():
    g = GridSpec(dim=1, n=16)
    offs = g.offsets_within(2.5 * g.h)
    assert offs.tolist() == [[-2], [-1], [1], [2]]
    offs0 = g.offsets_within(2.5 * g.h, include_zero=True)
    assert offs0.tolist() == [[-2], [-1], [0], [1], [2]]
    # clipped at half the period no matter how large the radius
    offs_all = g.offsets_within(10.0)
    assert int(np.max(np.abs(offs_all))) == 8


def test_roll_flat_reads_predecessor_values():
    g = GridSpec(dim=1, n=8)
    vals = np.arange(8.0)
    rolled = g.roll_flat(vals, np.array([3]))
    # out[i] = values[i - 3]
    assert rolled[3] == 0.0 and rolled[0] == 5.0


def test_gridfn_algebra_and_normalization():
    g = GridSpec(dim=1, n=8)
    f = GridFn.from_callable(g, lambda x: x[:, 0] + 1.0)
    z = GridFn.zeros(g)
    assert (f - f).sup_norm() == 0.0
    assert (f + z).sup_norm() == f.sup_norm()
    assert (f * 2.0).values[1] == 2.0 * f.values[1]
    assert f.normalized_at_origin().values[0] == 0.0


def test_central_gradient_second_order_on_sine():
    g = GridSpec(dim=1, n=256)
    f = GridFn.from_callable(g, lambda x: np.sin(2 * np.pi * x[:, 0]))
    grad = f.central_gradient()[:, 0]
    exact = 2 * np.pi * np.cos(2 * np.pi * g.axis())
    # central differences: error <= (2 pi)^3 h^2 / 6
    assert np.max(np.abs(grad - exact)) <= (2 * np.pi) ** 3 * g.h**2 / 6


def test_one_sided_slopes_bracket_kinks():
    g = GridSpec(dim=1, n=64)
    f = GridFn.from_callable(g, lambda x: np.abs(g.min_image(x[:, 0])))
    bwd, fwd = f.one_sided_slopes(axis=0)
    assert bwd[0] == -1.0 and fwd[0] == 1.0  # convex kink at the origin


def test_second_differences_exact_on_quadratic_of_the_lattice():
    g = GridSpec(dim=1, n=32)
    # use the locally quadratic cosine: q -> -(2 pi)^2 cos at k h -> 0 scale;
    # instead take an exactly representable parabola of the periodic distance
    f = GridFn.from_callable(g, lambda x: np.cos(2 * np.pi * x[:, 0]))
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
    assert np.allclose(f.as_callable()(np.array([[g.h]])), 1.0)


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
    assert b.n_per_axis % 2 == 1
    pts = b.points()
    assert np.allclose(pts[0], [-2.0]) and np.allclose(pts[-1], [2.0])
    assert np.allclose(pts[b.size // 2], [0.0])


def test_grid_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        GridSpec(dim=3, n=8)
    with pytest.raises(ConfigError):
        GridSpec(dim=1, n=0)


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
            if isinstance(grid, GridSpec):
                there = there % grid.n
            elif np.any((there < 0) | (there >= grid.n_per_axis)):
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
    assert np.array_equal(relax(stencil, init, forward=True), forward)


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
    cost = _edge_table(stencil)
    for forward in (False, True):
        with pytest.raises(SubcriticalLevelError) as exc:
            relax(stencil, source, forward=forward)
        cycle, total = exc.value.cycle, exc.value.cycle_cost
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert len(set(cycle)) == len(cycle) >= 2
        assert all(np.isfinite(cost[y, x]) for y, x in hops)
        assert total == sum(cost[y, x] for y, x in hops) and total < 0
