"""Strictness certificates and the two strict-subsolution builders."""

import numpy as np
import pytest
from oracles import check_weakly_strict, min_image

import weakkam as wk
from weakkam.aubry import build_library, build_w, detect_aubry
from weakkam.errors import ConfigError, LadderError
from weakkam.grid import GridFn, GridSpec
from weakkam.hamiltonian import nonstrict_model
from weakkam.metric import build_cost_graph, semidistance
from weakkam.semigroup import (build_kernel, discrete_critical_value,
                               lax_minus, refold_kernel, semigroup_orbit)
from weakkam.subsol import (_near_mask, build_strict_convex,
                            build_strict_strictly_convex, check_strict,
                            density_mix, dyadic_fill_times,
                            sup_convolution_time, truncation_budget)


@pytest.fixture(scope="module")
def nonstrict64():
    """Flat-faced Hamiltonian ladder with its own library and mask."""
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (1.0,)})
    env = wk.sample_realization(spec, 0)
    model = nonstrict_model(dim=1, field_bound=1.0)
    grid = GridSpec(dim=1, n=64)
    raw = build_kernel(model, env, grid, dt=1.0 / 64.0, theta=3.0)
    c = discrete_critical_value(raw)
    kern = refold_kernel(raw, c)
    lib = build_library(kern, n_seeds=4)
    w = build_w(lib)
    mask = detect_aubry(w, kern, 4.0)
    return {"env": env, "model": model, "grid": grid, "kernel": kern,
            "c": c, "w": w, "mask": mask}


def test_dyadic_fill_times_in_bit_reversed_order(pend64):
    kern = pend64["raw_kernel"]
    tau = 0.125
    times = dyadic_fill_times(kern.dt, tau, 6)
    fractions = [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8]
    assert times == [tau * q for q in fractions]


def test_fill_times_rejections(pend64):
    kern = pend64["raw_kernel"]
    with pytest.raises(LadderError, match="tau = dt \\* 2\\^K"):
        dyadic_fill_times(kern.dt, 3 * kern.dt, 2)
    with pytest.raises(ConfigError):
        dyadic_fill_times(kern.dt, 0.0, 2)
    with pytest.raises(ConfigError, match="m_terms"):    # an empty mix is the zero function
        dyadic_fill_times(kern.dt, 0.125, 0)


def test_truncation_budget_is_range_times_two_to_minus_m():
    grid = GridSpec(dim=1, n=8)
    w = GridFn(grid, np.linspace(0.0, 3.0, grid.size))
    assert truncation_budget(w, 4) == pytest.approx(3.0 / 16.0)


def test_zero_function_margin_matches_the_field_maximum(pend64):
    kern, grid, mask = (pend64[k] for k in ("kernel", "grid", "mask"))
    cert = check_strict(GridFn.zeros(grid), kern, mask.mask, 0.1)
    # H(x, 0) equals the field, so the margin is set by the cell nearest the
    # excluded hilltop neighborhood: x = 7/64
    assert cert.delta == pytest.approx(1.0 - np.cos(2 * np.pi * 7 / 64), rel=1e-12)
    assert cert.worst_index == 7
    assert cert.n_region == 51
    assert cert.passed


def test_empty_mask_certifies_everywhere_and_finds_the_peak(pend64):
    kern, grid = pend64["kernel"], pend64["grid"]
    cert = check_strict(GridFn.zeros(grid), kern, np.zeros(grid.size, dtype=bool), 0.1)
    assert cert.n_region == grid.size
    assert cert.delta == 0.0 and not cert.passed
    with pytest.raises(ConfigError):
        check_strict(GridFn.zeros(grid), kern, pend64["mask"].mask, 0.6)


def test_strictly_convex_builder_earns_a_margin(pend64):
    kern, w, mask = (pend64[k] for k in ("kernel", "w", "mask"))
    v = build_strict_strictly_convex(w, kern, 0.125, 6)
    cert = check_strict(v, kern, mask.mask, 0.1)
    assert cert.passed and cert.delta > 0.1
    budget = 0.125 * kern.speed_radius + truncation_budget(w, 6)
    assert float(np.max(np.abs(v.values - w.values))) <= budget


def test_strictly_convex_builder_refuses_flat_faces(nonstrict64):
    with pytest.raises(ConfigError, match="not strictly convex"):
        build_strict_strictly_convex(nonstrict64["w"], nonstrict64["kernel"], 0.125, 6)


def test_sup_convolution_dominates_and_pins_the_maximizer(pend64):
    kern, w = pend64["kernel"], pend64["w"]
    t = 4 * kern.dt
    delta = 0.05
    r_kappa = kern.speed_radius
    # the s-ladder just spans the maximizer window t + 4 delta R(kappa)
    orbit = semigroup_orbit(w, kern, int(np.ceil((t + 4 * delta * r_kappa) / kern.dt - 1e-9)))
    v_t, s_star = sup_convolution_time(w, kern, delta, t, orbit)
    lower = lax_minus(w, kern, t).values
    assert float(np.min(v_t.values - lower)) >= -1e-12
    assert float(np.max(np.abs(s_star - t))) <= 4 * delta * r_kappa


def test_sup_convolution_rejections(pend64):
    kern, w = pend64["kernel"], pend64["w"]
    orbit = semigroup_orbit(w, kern, 1)
    with pytest.raises(ConfigError):
        sup_convolution_time(w, kern, 0.0, 4 * kern.dt, orbit)
    with pytest.raises(LadderError, match="s-ladder"):
        sup_convolution_time(w, kern, 0.05, 4 * kern.dt, orbit)


def test_convex_builder_handles_the_flat_faced_model(nonstrict64):
    kern, w, mask = (nonstrict64[k] for k in ("kernel", "w", "mask"))
    assert list(mask.indices()) == [0]
    delta = 0.05
    r_kappa = kern.speed_radius
    v = build_strict_convex(w, kern, delta, 0.125, 6)
    cert = check_strict(v, kern, mask.mask, 0.1)
    assert cert.passed and cert.delta > 0.1
    budget = 0.125 * r_kappa + truncation_budget(w, 6) + 2 * delta * r_kappa
    assert float(np.max(np.abs(v.values - w.values))) <= budget


def test_density_mix_is_the_exact_convex_combination(pend64):
    grid, w = pend64["grid"], pend64["w"]
    v = GridFn(grid, w.values + 1.0)
    assert np.array_equal(density_mix(v, w, 1).values, v.values)
    mixed = density_mix(v, w, 4)
    assert np.max(np.abs(mixed.values - (0.25 * v.values + 0.75 * w.values))) == 0.0
    with pytest.raises(ConfigError):
        density_mix(v, w, 0)
    with pytest.raises(ConfigError):
        density_mix(v, w, 2.5)


def test_weak_strictness_flat_field_gap_is_the_separation(flat64):
    grid, model, env = flat64["grid"], flat64["model"], flat64["env"]
    graph = build_cost_graph(model, 0.5, env, grid, grid.offsets_within(3 * grid.h))
    rep = check_weakly_strict(GridFn.zeros(grid), [0, 16, 32], semidistance(graph, [0, 16, 32]),
                              np.zeros(grid.size, dtype=bool))
    # S_a at level 1/2 is the torus metric, so the zero function's gap is
    # exactly the minimum allowed separation
    assert rep.min_gap == 2 * grid.h
    assert rep.separation == 2 * grid.h
    assert rep.passed and rep.n_pairs > 0


def test_weak_strictness_on_the_pendulum_mix(pend64):
    grid, model, env = pend64["grid"], pend64["model"], pend64["env"]
    kern, c, w, mask = (pend64[k] for k in ("kernel", "c", "w", "mask"))
    sources = [16, 32, 48]
    sd = semidistance(build_cost_graph(model, c, env, grid, kern.offsets), sources)
    rep = check_weakly_strict(w, sources, sd, mask.mask)
    assert rep.min_gap >= -1e-12
    assert rep.n_pairs > 0 and rep.worst_pair is not None
    with pytest.raises(ConfigError):
        check_weakly_strict(w, sources, sd, np.ones(grid.size, dtype=bool))


def _region_by_displacements(grid, mask, d0):
    """The former route: torus distance to every mask node from an
    N x |mask| displacement array, then the one-cell ring taken out."""
    pts = grid.points()
    src = pts[mask]
    dist = np.full(grid.size, np.inf)
    if len(src):
        d = min_image(pts[:, None, :] - src[None, :, :])
        dist = np.min(np.linalg.norm(d, axis=-1), axis=1)
    m = mask.reshape(grid.shape)
    ring = m.copy()
    for ax in range(grid.dim):
        ring |= np.roll(m, 1, axis=ax) | np.roll(m, -1, axis=ax)
    return (dist >= d0) & ~ring.ravel()


@pytest.mark.parametrize(("dim", "n"), [(1, 64), (1, 512), (2, 16), (2, 32), (2, 64)])
def test_mask_clearance_by_dilation_matches_the_displacement_distance(dim, n):
    """d0 = 0.125 and 0.25 are tie radii on these grids: a node exactly d0
    away stays in the region."""
    grid = GridSpec(dim=dim, n=n)
    rng = np.random.default_rng(dim * 1000 + n)
    for count in (0, 1, 2, 5, 17):
        mask = np.zeros(grid.size, dtype=bool)
        mask[rng.choice(grid.size, count, replace=False)] = True
        for d0 in (0.05, 0.1, 0.125, 0.25, 0.3, 0.5, 0.6):
            assert np.array_equal(~_near_mask(grid, mask, d0),
                                  _region_by_displacements(grid, mask, d0)), (count, d0)
