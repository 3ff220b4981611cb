"""Hamiltonian models as bundles of closed forms.

In the stationary ergodic setting a Hamiltonian depends on x only through
the environment.  Every catalog model is H(x, p) = phi(p + P) + f(V(x, omega)):
a radial profile phi, a field term f of the realization's scalar field V and
a tilt P.  One factory writes H, L, the sublevel support function sigma and
the sublevel radius once for that shape; the floor min_p H is f(V) itself.

* ``mechanical``        phi = |s|^2/2,          f = V,           P = 0
* ``tilted_mechanical`` phi = |s|^2/2,          f = V,           P = P0
* ``eikonal``           phi = |s|,              f = -(c0 + V),   P = 0
* ``nonstrict``         phi = max(|s| - 1, 0),  f = V,           P = 0

The quadratic profile is strictly convex and Tonelli, the cone
1-homogeneous, the flat core convex but not strict.  Reversal keeps the
profile and the field term and turns the tilt to -P.  The closed forms take
the m field values V where the points would go.  rates alone takes the
realization (None means V = 0), because it needs the gradient of V: it binds
the point gradient once and returns one function of the 2 dim state floats.
eval_H and kappa read V at points once, by field_values; the one-step kernel
reads V off the sampler's parity covers and applies L to the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SubcriticalLevelError
from .grid import lattice_points

__all__ = [
    "HamiltonianModel",
    "mechanical_model",
    "tilted_mechanical_model",
    "eikonal_model",
    "nonstrict_model",
    "reversed_model",
    "field_values",
    "kappa",
    "kappa_at_values",
    "lipschitz_radius",
]


def field_values(env, x) -> np.ndarray:
    """V at the points x, shape (m, dim) or (dim,); zeros when env is None."""
    x = np.atleast_2d(x)
    if env is None:
        return np.zeros(x.shape[0])
    return env.evaluate(x)


def _gradient(env, dim: int):
    """DV as bound by env.gradient(), one function of the dim coordinates;
    the zero field's when env is None."""
    if env is not None:
        return env.gradient()
    if dim == 1:
        return lambda x: 0.0
    return lambda x0, x1: (0.0, 0.0)


def _quadratic_rates(dim: int, tilt: tuple):
    """rates of H = |p + P|^2/2 + V, the tilt P a tuple of dim floats:
    bound to a realization, the function of the 2 dim state floats that
    returns (H_p, -H_x) = (p + P, -DV(x)), positions first."""

    def rates(env):
        gradient = _gradient(env, dim)
        if dim == 1:
            (t,) = tilt
            return lambda x, p: (p + t, -gradient(x))
        t0, t1 = tilt

        def rate(x0, x1, p0, p1):
            g0, g1 = gradient(x0, x1)
            return p0 + t0, p1 + t1, -g0, -g1
        return rate
    return rates


class _Profile(NamedTuple):
    """A radial profile phi(s) >= 0 = phi(0) of the tilted momentum
    s = p + P, the radius core(g) of its sublevel {phi <= g} at a gap
    g >= 0, and its convex dual kin(q).  Only the quadratic profile is
    strictly convex and carries a characteristic flow."""

    phi: callable
    core: callable
    kin: callable
    quadratic: bool


def _speed(x):
    # |x| per row: np.linalg.norm(x, axis=-1)'s arithmetic without its dispatch
    return np.sqrt((x * x).sum(axis=-1))


_QUADRATIC = _Profile(lambda s: 0.5 * (s * s).sum(axis=-1),
                      lambda g: np.sqrt(2.0 * np.maximum(g, 0.0)),
                      lambda q: 0.5 * (q * q).sum(axis=-1), True)
_CONE = _Profile(_speed, lambda g: g,
                 lambda q: np.where(_speed(q) <= 1.0 + 1e-12, 0.0, np.inf), False)
_FLAT_CORE = _Profile(lambda s: np.maximum(_speed(s) - 1.0, 0.0),
                      lambda g: 1.0 + np.maximum(g, 0.0),
                      lambda q: np.where(_speed(q) <= 1.0 + 1e-12, _speed(q), np.inf), False)


@dataclass(frozen=True)
class HamiltonianModel:
    """H(x, p) = phi(p + P) + f(V(x)): a radial profile phi (profile), a
    field term f of the scalar field V (field_term) and a tilt P (tilt, dim
    floats).  Its closed forms take the field values V, an (m,) array, in
    place of the points; core and kin are the profile's (_Profile):

    H(V, p), L(V, q) = kin(q) - q.P - f(V)       Hamiltonian and Lagrangian,
    sigma(V, q, a) = core(a - f(V)) |q| - q.P    support function of the
                                                 sublevel {H(V, .) <= a},
    sublevel_radius(V, a) = |P| + core(a - f(V)) sup |p| over that sublevel,
    lipschitz_radius_analytic(theta)             speed bound of Lax-Oleinik
                                                 optimizers, theta-Lipschitz
                                                 data.

    sigma and sublevel_radius are NaN where the sublevel is empty, a < f(V),
    since f(V) = min_p H.  L and sigma also take one (1, dim) row of q,
    which they broadcast over the m values, and H one (1, dim) row of p.
    eval_H(x, p, env) reads V at the points x first.  The Tonelli data
    rates(env) and l_r(R, env), the Lipschitz rate of the characteristic
    field on |p| <= R, are None off the quadratic profile.  rates binds the
    realization's gradient (EnvRealization.gradient) and returns the
    characteristic field (H_p, -H_x) as one function of the state's 2 dim
    Python floats, positions then momenta, returning 2 dim floats in the
    same order: rate(x, p) in 1D and rate(x0, x1, p0, p1) in 2D, the
    dimensions the validators admit.  The RK4 flow calls it once per stage
    on one point, so it computes in Python float arithmetic.
    """

    name: str
    dim: int
    strictly_convex: bool
    tonelli: bool
    H: callable = field(repr=False)
    L: callable = field(repr=False)
    sigma: callable = field(repr=False)
    sublevel_radius: callable = field(repr=False)
    lipschitz_radius_analytic: callable = field(repr=False)
    profile: _Profile = field(repr=False)
    field_term: callable = field(repr=False)
    tilt: tuple = field(repr=False)
    rates: callable = field(repr=False, default=None)
    l_r: callable = field(repr=False, default=None)

    def eval_H(self, x, p, env=None):
        return self.H(field_values(env, x), np.atleast_2d(p))


def _catalog_model(name: str, dim: int, profile: _Profile, field_term, tilt: tuple,
                   speed_bound) -> HamiltonianModel:
    """The model phi(p + P) + f(V), each closed form written once."""
    P = np.asarray(tilt, dtype=float)
    P_norm = float(np.linalg.norm(P))

    def H(V, p):
        return profile.phi(p + P) + field_term(V)

    def L(V, q):
        return profile.kin(q) - q @ P - field_term(V)

    def sigma(V, q, a):
        gap = a - field_term(V)
        empty = gap < 0
        core = profile.core(gap)
        core *= _speed(q)
        core -= q @ P
        return np.where(empty, np.nan, core)

    def sublevel_radius(V, a):
        gap = a - field_term(V)
        return np.where(gap < 0, np.nan, P_norm + profile.core(gap))

    def l_r(R, env=None):
        return max(1.0, env.hessian_bound() if env is not None else 0.0)

    flow = profile.quadratic
    return HamiltonianModel(
        name=name, dim=dim, strictly_convex=flow, tonelli=flow, H=H, L=L, sigma=sigma,
        sublevel_radius=sublevel_radius, lipschitz_radius_analytic=speed_bound,
        profile=profile, field_term=field_term, tilt=tilt,
        rates=_quadratic_rates(dim, tilt) if flow else None, l_r=l_r if flow else None)


# -- catalog --------------------------------------------------------------


def _plain_field(V):
    return V


def mechanical_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p|^2/2 + V(x): the tilted model at P = 0."""
    return replace(tilted_mechanical_model((0.0,) * dim, dim, field_bound), name="mechanical")


def tilted_mechanical_model(p0, dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p + P0|^2/2 + V(x); the tilt makes support functions signed."""
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.size != dim:
        raise ConfigError(f"tilt vector has size {p0.size}, expected {dim}")
    vb = float(field_bound)
    p0n = float(np.linalg.norm(p0))

    def speed_bound(th):
        u = th + p0n
        return max(u + np.sqrt(u * u + 4.0 * vb), vb, 0.5 * u * u + vb, 1.0)

    return _catalog_model("tilted_mechanical", dim, _QUADRATIC, _plain_field,
                          tuple(p0.tolist()), speed_bound)


def eikonal_model(offset: float = 2.0, dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p| - f(x) with refraction index f = offset + V, offset > sup|V|.

    The Lagrangian is f(x) on speeds |q| <= 1 and +inf beyond; kernels stay
    finite through the displacement cutoff.
    """
    c0 = float(offset)
    vb = float(field_bound)
    if c0 <= vb:
        raise ConfigError("eikonal offset must exceed the field bound so f > 0")
    return _catalog_model("eikonal", dim, _CONE, lambda V: -(c0 + V), (0.0,) * dim,
                          lambda th: max(1.0, c0 + vb, th))


def nonstrict_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = max(|p| - 1, 0) + V(x): convex with a flat unit core, not strict."""
    vb = float(field_bound)
    return _catalog_model("nonstrict", dim, _FLAT_CORE, _plain_field, (0.0,) * dim,
                          lambda th: max(1.0, th + vb))


def reversed_model(model: HamiltonianModel) -> HamiltonianModel:
    """Time reversal p -> -p (so L(x, q) -> L(x, -q)): the same profile and
    field term at the tilt -P.

    Minimal actions of the reversed model are the transposed kernels of the
    original; semidistances swap their arguments.
    """
    return _catalog_model(model.name + "_reversed", model.dim, model.profile, model.field_term,
                          tuple(-t for t in model.tilt), model.lipschitz_radius_analytic)


# -- numeric operations ----------------------------------------------------


def kappa(model: HamiltonianModel, a: float, env=None) -> float:
    """kappa_a = sup { |p| : H(x, p) <= a over sampled x }: kappa_at_values
    on V at 256 points of the unit cell in 1D, a 16 x 16 lattice in 2D."""
    n = 256 if model.dim == 1 else 16
    return kappa_at_values(model, a, field_values(env, lattice_points(np.arange(n) / n, model.dim)))


def kappa_at_values(model: HamiltonianModel, a: float, V: np.ndarray) -> float:
    """sup { |p| : H(V_i, p) <= a over the field values V_i }.

    Read off the model's sublevel radius.  An empty sublevel at every
    value raises, unless a sits within 1e-9 of the floor min_p H = f(V_i)
    at some value, where the sublevel degenerates to the profile's core
    around -P: its radius at the floor is returned.
    """
    radii = np.asarray(model.sublevel_radius(V, a), dtype=float)
    finite = radii[~np.isnan(radii)]
    if finite.size:
        return float(np.max(finite))
    floor = np.asarray(model.field_term(V), dtype=float)
    lowest = int(np.argmin(floor))
    if a >= floor[lowest] - 1e-9:
        return float(model.sublevel_radius(V[lowest:lowest + 1], floor[lowest])[0])
    raise SubcriticalLevelError(
        f"sublevel {{H <= {a}}} is empty at every sampled x (min H = {floor[lowest]:.6g})")


def lipschitz_radius(theta: float, model: HamiltonianModel) -> float:
    """Argmin-excursion radius R(theta), the model's analytic bound.

    For theta-Lipschitz data, any optimizer y of the backward Lax-Oleinik
    formula at (t, x) satisfies |x - y| <= t R(theta), and the semigroup
    moves data by at most t R(theta) in sup norm.  Each catalog model
    writes out one admissible choice: with radial envelopes
    alpha(|p|) <= H(x, p) <= beta(|p|),

        R = max( sup{ r : beta*(r) <= theta r + alpha*(0) },
                 alpha*(0), beta(theta), 1 )

    where beta* is the radial conjugate.  Monotone nondecreasing in theta.
    """
    if theta < 0:
        raise ConfigError("theta must be nonnegative")
    return float(model.lipschitz_radius_analytic(theta))
