"""Model catalog: convex duality, momentum radii, speed bounds, reversal."""

import hashlib

import numpy as np
import pytest
from oracles import PRadiusError, legendre, sublevel_margin

import weakkam as wk
from weakkam.config import MODELS
from weakkam.errors import ConfigError, SubcriticalLevelError
from weakkam.hamiltonian import (eikonal_model, field_values, kappa, kappa_at_values,
                                 lipschitz_radius, mechanical_model, nonstrict_model,
                                 reversed_model, tilted_mechanical_model)


def _field(model, env, x, p):
    """(H_p, H_x) of the model's rate function bound to env, at the point
    x with momentum p, given and returned as (dim,) arrays."""
    out = model.rates(env)(*np.asarray(x, dtype=float).tolist(),
                           *np.asarray(p, dtype=float).tolist())
    return np.array(out[:model.dim]), -np.array(out[model.dim:])


@pytest.fixture(scope="module")
def cosine_env():
    spec = wk.EnvSpec(kind="periodic", dimension=1, seed=0,
                      params={"amplitudes": (1.0,)})
    return wk.sample_realization(spec, 0)


def test_mechanical_closed_forms(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    x = np.array([[0.2]])
    p = np.array([[0.7]])
    q = np.array([[-1.3]])
    V = np.cos(2 * np.pi * 0.2)
    assert np.allclose(m.eval_H(x, p, cosine_env), 0.5 * 0.49 + V)
    assert np.allclose(m.L(field_values(cosine_env, x), q), 0.5 * 1.69 - V)
    hp, hx = _field(m, cosine_env, [0.2], [0.7])
    assert hp.tolist() == [0.7]
    assert np.allclose(hx, [-2 * np.pi * np.sin(2 * np.pi * 0.2)])
    assert all(type(v) is float for v in m.rates(cosine_env)(0.2, 0.7))
    hp, hx = _field(mechanical_model(dim=2), None, [0.2, 0.4], [0.7, -0.1])
    assert hp.tolist() == [0.7, -0.1] and hx.tolist() == [0.0, 0.0]
    assert m.strictly_convex and m.tonelli


def test_legendre_transform_recovers_the_dual(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    x = np.array([0.37])
    q = np.array([1.21])
    res = legendre(m, x, q, cosine_env)
    V = np.cos(2 * np.pi * 0.37)
    assert abs(res.value - (0.5 * 1.21**2 - V)) < 1e-6
    assert abs(res.p_star[0] - 1.21) < 1e-4


def test_legendre_flags_scan_boundary(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    with pytest.raises(PRadiusError):
        legendre(m, np.array([0.0]), np.array([100.0]), cosine_env, p_radius=6)


def test_eikonal_lagrangian_is_speed_limited(cosine_env):
    m = eikonal_model(dim=1, offset=2.0, field_bound=1.0)
    x = np.array([[0.0]])
    f0 = 2.0 + 1.0
    assert np.allclose(m.L(field_values(cosine_env, x), np.array([[0.5]])), f0)
    assert np.isinf(m.L(field_values(cosine_env, x), np.array([[1.5]])))
    assert np.allclose(m.eval_H(x, np.array([[0.25]]), cosine_env), 0.25 - f0)
    assert not m.tonelli
    with pytest.raises(ConfigError):
        eikonal_model(dim=1, offset=0.5, field_bound=1.0)


def test_nonstrict_model_flat_piece(cosine_env):
    m = nonstrict_model(dim=1, field_bound=1.0)
    x = np.array([[0.25]])     # field vanishes here
    p_small = np.array([[0.5]])
    p_big = np.array([[2.0]])
    assert np.allclose(m.eval_H(x, p_small, cosine_env), 0.0)  # inside the unit ball
    assert np.allclose(m.eval_H(x, p_big, cosine_env), 1.0)
    assert not m.strictly_convex and not m.tonelli


def test_tilted_shifts_the_momentum_ball(cosine_env):
    m = tilted_mechanical_model(p0=(0.5,), dim=1, field_bound=1.0)
    x = np.array([[0.25]])
    p = np.array([[0.25]])
    assert np.allclose(m.eval_H(x, p, cosine_env), 0.5 * 0.75**2)
    q = np.array([[1.0]])
    assert np.allclose(m.L(field_values(cosine_env, x), q), 0.5 - 0.5)
    # H_p = p + P0, in the IEEE sum numpy takes elementwise
    hp, hx = _field(m, cosine_env, [0.25], [0.1])
    assert hp.tolist() == [0.1 + 0.5] and hx.tolist() == [cosine_env.gradient()(0.25)]
    tilted2 = tilted_mechanical_model(p0=(0.5, -0.25), dim=2)
    hp, hx = _field(tilted2, None, [0.25, 0.5], [0.1, 0.3])
    assert hp.tolist() == [0.1 + 0.5, 0.3 - 0.25] and hx.tolist() == [0.0, 0.0]
    with pytest.raises(ConfigError):
        tilted_mechanical_model(p0=(0.5, 0.5), dim=1)


def test_kappa_exact_on_cosine_well(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    # level 1 touches the field maximum: momenta reach sqrt(2(1 - min V)) = 2
    assert np.isclose(kappa(m, 1.0, cosine_env), 2.0)
    # higher level grows like sqrt(2(a+1))
    assert np.isclose(kappa(m, 3.0, cosine_env), np.sqrt(8.0))
    # the radius is a sup over x: levels below max V still reach momenta
    assert np.isclose(kappa(m, 0.5, cosine_env), np.sqrt(3.0))
    # at the pointwise minimum of H the sublevel degenerates to p = 0
    assert kappa(m, -1.0, cosine_env) == 0.0
    with pytest.raises(SubcriticalLevelError):
        kappa(m, -1.5, cosine_env)


def test_a_level_just_below_the_floor_reads_the_floor_sublevel():
    """Within 1e-9 below the floor min_p H = f(V) every sublevel is empty,
    and kappa reads the sublevel at the floor: the point -P of the
    quadratic profile, the ball |p + P| <= 1 of the flat core."""
    flat = np.zeros(4)
    assert kappa_at_values(tilted_mechanical_model([0.5], dim=1), -1e-12, flat) == 0.5
    assert kappa_at_values(mechanical_model(dim=1), -1e-12, flat) == 0.0
    assert kappa_at_values(nonstrict_model(dim=1), -1e-12, flat) == 1.0
    assert kappa_at_values(eikonal_model(dim=1), -2.0 - 1e-12, flat) == 0.0
    with pytest.raises(SubcriticalLevelError, match="min H = 0"):
        kappa_at_values(tilted_mechanical_model([0.5], dim=1), -1e-6, flat)


def test_sublevel_margin_orders_levels(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    margin = sublevel_margin(m, 1.0, 2.0, cosine_env)
    assert margin > 0
    with pytest.raises(ConfigError):
        sublevel_margin(m, 2.0, 1.0, cosine_env)


def test_lipschitz_radius_matches_the_analytic_envelope():
    m = mechanical_model(dim=1, field_bound=1.0)
    theta = 2.0
    # the mechanical envelope: max(theta + sqrt(theta^2 + 4 vb), vb,
    #                              theta^2/2 + vb, 1) with vb = 1
    expected = max(theta + np.sqrt(theta**2 + 4.0), 1.0, theta**2 / 2 + 1.0, 1.0)
    assert np.isclose(lipschitz_radius(theta, m), expected)


def test_reversal_flips_momentum(cosine_env):
    m = mechanical_model(dim=1, field_bound=1.0)
    r = reversed_model(m)
    x = np.array([[0.3]])
    p = np.array([[0.8]])
    assert np.allclose(r.eval_H(x, p, cosine_env), m.eval_H(x, -p, cosine_env))
    assert np.allclose(r.L(field_values(cosine_env, x), p), m.L(field_values(cosine_env, x), -p))
    # H_x is the same, H_p flips: the reversed flow runs the same curves
    # backward
    tilted = tilted_mechanical_model(p0=(0.5,), dim=1, field_bound=1.0)
    for dim, x, p in [(1, [0.3], [0.8]), (2, [0.3, 0.1], [0.8, -0.6])]:
        tilted = tilted_mechanical_model(p0=(0.5, 0.2)[:dim], dim=dim, field_bound=1.0)
        env = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=dim, seed=1), 0)
        hp, hx = _field(tilted, env, x, -np.array(p))
        rev_hp, rev_hx = _field(reversed_model(tilted), env, x, p)
        assert rev_hp.tobytes() == (-hp).tobytes() and rev_hx.tobytes() == hx.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(MODELS))
def test_one_zero_row_prices_as_zero_momenta_at_every_point(name, dim):
    """critical_value_free prices H(x, 0) with one (1, dim) zero row, which
    every model and its reversal broadcast over the points: the values are
    those of a zero momentum at every point, to the bit."""
    model = MODELS[name]({"field_bound": 1.0, "p0": [0.5], "offset": 2.0}, dim)
    env = wk.sample_realization(wk.EnvSpec(kind="random_fourier", dimension=dim, seed=1), 0)
    x = np.random.default_rng(dim).uniform(-3.0, 3.0, (257, dim))
    for m in (model, reversed_model(model)):
        for field in (env, None):
            row = m.eval_H(x, np.zeros((1, dim)), field)
            assert row.shape == (len(x),)
            assert row.tobytes() == m.eval_H(x, np.zeros_like(x), field).tobytes()


def test_model_catalog_lists_the_four_families():
    assert list(MODELS) == ["mechanical", "tilted_mechanical", "eikonal", "nonstrict"]


def _closed_form_bits(model) -> str:
    """sha256 prefix of the int64 bits of H, L, sigma_a and the sublevel
    radius on fixed field values, momenta and levels.  The values include
    zero gaps for every model (V = a, and V = -a - offset for the eikonal
    one), empty sublevels (NaN rows), -0.0 momenta and the one-row
    broadcast of p and q.  The tilts are powers of two, so q . P rounds the
    same with or without a fused multiply-add."""
    dim = model.dim
    rng = np.random.default_rng(11)
    V = np.concatenate([rng.uniform(-1.0, 1.0, 61), [0.5, -0.5, 0.0]])
    p, q = rng.standard_normal((2, len(V), dim))
    p[::7, 0], q[::5, -1] = -0.0, -0.0
    p[3], q[4] = -0.0, -0.0
    parts = [model.H(V, p), model.H(V, p[:1]), model.L(V, q), model.L(V, q[:1])]
    for a in (-2.5, -1.5, -0.5, 0.0, 0.5, 1.5):
        parts += [model.sigma(V, q, a), model.sigma(V, q[:1], a), model.sublevel_radius(V, a)]
    bits = np.concatenate([np.asarray(part, dtype=float) for part in parts]).view(np.int64)
    return hashlib.sha256(bits.tobytes()).hexdigest()[:16]


CLOSED_FORM_BITS = {
    ("mechanical", 1): "7b37cd9c87c92f2f",
    ("mechanical_reversed", 1): "7b37cd9c87c92f2f",
    ("tilted_mechanical", 1): "a88c247b06879494",
    ("tilted_mechanical_reversed", 1): "6e19e119eb629c63",
    ("eikonal", 1): "25eadc7d23ce048e",
    ("eikonal_reversed", 1): "25eadc7d23ce048e",
    ("nonstrict", 1): "650b0725e0a14980",
    ("nonstrict_reversed", 1): "650b0725e0a14980",
    ("mechanical", 2): "0fe4031e2ff428be",
    ("mechanical_reversed", 2): "0fe4031e2ff428be",
    ("tilted_mechanical", 2): "19a3428ff82c42b2",
    ("tilted_mechanical_reversed", 2): "1f373af34cd22645",
    ("eikonal", 2): "bbea79059489e90b",
    ("eikonal_reversed", 2): "bbea79059489e90b",
    ("nonstrict", 2): "1891d63274f56346",
    ("nonstrict_reversed", 2): "1891d63274f56346",
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", ["mechanical", "tilted_mechanical", "eikonal", "nonstrict"])
def test_closed_forms_keep_their_bits(name, dim):
    """H, L, sigma_a and the sublevel radius of every catalog model and its
    reversal read the bits recorded for them."""
    model = {"mechanical": lambda: mechanical_model(dim=dim),
             "tilted_mechanical": lambda: tilted_mechanical_model((0.5, -0.25)[:dim], dim=dim),
             "eikonal": lambda: eikonal_model(offset=2.0, dim=dim),
             "nonstrict": lambda: nonstrict_model(dim=dim)}[name]()
    for m in (model, reversed_model(model)):
        assert _closed_form_bits(m) == CLOSED_FORM_BITS[m.name, dim], m.name
