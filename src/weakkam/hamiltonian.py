"""Hamiltonian models as bundles of closed forms.

A model carries vectorized callables: H(V,p), L(V,q), the sublevel support
function sigma, the sublevel radius, the speed bound of Lax-Oleinik
optimizers and the momentum Lipschitz bound of H; a Tonelli model also
carries its characteristic field, rates, and the flow-rate bound l_r.  In
the stationary ergodic setting a Hamiltonian depends on x only through the
environment, and every catalog model reads it only through the scalar field
V(x, omega): the closed forms take the m field values V where the points
would go.  rates alone takes the environment realization (None means
V = 0), because it needs the gradient of V: it binds the realization's
point gradient once and returns one function of the 2 dim state floats.
eval_H and kappa take points and a realization and read V there once, by
field_values; the one-step kernel reads V off the sampler's parity covers
and applies L to the values.

Built-in catalog:

* ``mechanical``        H = |p|^2/2 + V(x)          strictly convex, Tonelli
* ``tilted_mechanical`` H = |p + P0|^2/2 + V(x)     strictly convex, Tonelli
* ``eikonal``           H = |p| - f(x), f = c0 + V  convex, 1-homogeneous
* ``nonstrict``         H = max(|p|-1, 0) + V(x)    convex, flat core

Every operation here reads a closed form: kappa the sublevel radius,
lipschitz_radius the analytic speed bound.  The one numeric search left is
kappa's momentum lattice, which tells a level at the pointwise minimum of H
(an empty sublevel that degenerates to p = 0) from one below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _quadratic_rates(dim: int, tilt):
    """rates of H = |p + P0|^2/2 + V, the tilt P0 a list of dim floats or
    None: bound to a realization, the function of the 2 dim state floats
    that returns (H_p, -H_x) = (p + P0, -DV(x)), positions first."""

    def rates(env):
        gradient = _gradient(env, dim)
        if dim == 1 and tilt is None:
            return lambda x, p: (p, -gradient(x))
        if dim == 1:
            (t,) = tilt
            return lambda x, p: (p + t, -gradient(x))
        if tilt is None:
            def rate(x0, x1, p0, p1):
                g0, g1 = gradient(x0, x1)
                return p0, p1, -g0, -g1
            return rate
        t0, t1 = tilt

        def rate(x0, x1, p0, p1):
            g0, g1 = gradient(x0, x1)
            return p0 + t0, p1 + t1, -g0, -g1
        return rate
    return rates


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian H(x, p) = H(V(x), p) with its closed forms, each a
    function of the field values V, an (m,) array, in place of the points.

    H(V, p), L(V, q)                  Hamiltonian and Lagrangian,
    sigma(V, q, a)                    support function of {p : H(V,p) <= a};
                                      NaN rows mark empty sublevels,
    sublevel_radius(V, a)             sup |p| over that sublevel, NaN where
                                      it is empty,
    lipschitz_radius_analytic(theta)  speed bound of Lax-Oleinik optimizers
                                      for theta-Lipschitz data,
    dhp_bound(R)                      sup |H_p| over |p| <= R.

    L and sigma also take one (1, dim) row of q, which they broadcast over
    the m values, and H one (1, dim) row of p.  eval_H(x, p, env) reads
    V at the points x first.  The Tonelli data
    rates(env) and l_r(R, env), the Lipschitz rate of the characteristic
    field on |p| <= R, are None on models without a characteristic flow.
    rates binds the realization's gradient (EnvRealization.gradient) and
    returns the characteristic field as one function of the state's 2 dim
    Python floats, positions then momenta, that returns (H_p, -H_x) as
    2 dim floats in the same order: rate(x, p) in 1D and
    rate(x0, x1, p0, p1) in 2D, the dimensions the validators admit.  It
    computes in Python float arithmetic, since the RK4 flow calls it once
    per stage on one point.
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
    dhp_bound: callable = field(repr=False)
    rates: callable = field(repr=False, default=None)
    l_r: callable = field(repr=False, default=None)

    def eval_H(self, x, p, env=None):
        return self.H(field_values(env, x), np.atleast_2d(p))


# -- catalog --------------------------------------------------------------


def mechanical_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p|^2/2 + V(x)."""
    vb = float(field_bound)

    def H(V, p):
        return 0.5 * np.sum(p * p, axis=-1) + V

    def L(V, q):
        return 0.5 * np.sum(q * q, axis=-1) - V

    def sigma(V, q, a):
        gap = a - V
        rad = np.sqrt(2.0 * np.clip(gap, 0.0, None))
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(V, a):
        gap = a - V
        return np.where(gap < 0, np.nan, np.sqrt(2.0 * np.clip(gap, 0.0, None)))

    return HamiltonianModel(
        name="mechanical", dim=dim, strictly_convex=True, tonelli=True,
        H=H, L=L, rates=_quadratic_rates(dim, None), sigma=sigma,
        sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(
            th + np.sqrt(th * th + 4.0 * vb), vb, 0.5 * th * th + vb, 1.0),
        l_r=lambda R, env=None: max(1.0, env.hessian_bound() if env is not None else 0.0),
        dhp_bound=lambda R: R,
    )


def tilted_mechanical_model(p0, dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p + P0|^2/2 + V(x); the tilt makes support functions signed."""
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.size != dim:
        raise ConfigError(f"tilt vector has size {p0.size}, expected {dim}")
    vb = float(field_bound)
    p0n = float(np.linalg.norm(p0))

    def H(V, p):
        s = np.atleast_2d(p) + p0[None, :]
        return 0.5 * np.sum(s * s, axis=-1) + V

    def L(V, q):
        q = np.atleast_2d(q)
        return 0.5 * np.sum(q * q, axis=-1) - q @ p0 - V

    def sigma(V, q, a):
        gap = a - V
        rad = np.sqrt(2.0 * np.clip(gap, 0.0, None))
        q = np.atleast_2d(q)
        out = rad * np.linalg.norm(q, axis=-1) - q @ p0
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(V, a):
        gap = a - V
        return np.where(gap < 0, np.nan, p0n + np.sqrt(2.0 * np.clip(gap, 0.0, None)))

    return HamiltonianModel(
        name="tilted_mechanical", dim=dim, strictly_convex=True, tonelli=True,
        H=H, L=L, rates=_quadratic_rates(dim, p0.tolist()), sigma=sigma,
        sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(
            (th + p0n) + np.sqrt((th + p0n) ** 2 + 4.0 * vb),
            vb, 0.5 * (th + p0n) ** 2 + vb, 1.0),
        l_r=lambda R, env=None: max(1.0, env.hessian_bound() if env is not None else 0.0),
        dhp_bound=lambda R: R + p0n,
    )


def eikonal_model(offset: float = 2.0, dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p| - f(x) with refraction index f = offset + V, offset > sup|V|.

    The Lagrangian is f(x) on speeds |q| <= 1 and +inf beyond; kernels stay
    finite through the displacement cutoff.
    """
    c0 = float(offset)
    vb = float(field_bound)
    if c0 <= vb:
        raise ConfigError("eikonal offset must exceed the field bound so f > 0")

    def H(V, p):
        return np.linalg.norm(np.atleast_2d(p), axis=-1) - (c0 + V)

    def L(V, q):
        speed = np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(speed <= 1.0 + 1e-12, (c0 + V).astype(float), np.inf)

    def sigma(V, q, a):
        rad = a + (c0 + V)
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(rad < 0, np.nan, out)

    def sublevel_radius(V, a):
        rad = a + (c0 + V)
        return np.where(rad < 0, np.nan, rad)

    return HamiltonianModel(
        name="eikonal", dim=dim, strictly_convex=False, tonelli=False,
        H=H, L=L, sigma=sigma, sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(1.0, c0 + vb, th),
        dhp_bound=lambda R: 1.0,
    )


def nonstrict_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = max(|p| - 1, 0) + V(x): convex with a flat unit core, not strict."""
    vb = float(field_bound)

    def H(V, p):
        speed = np.linalg.norm(np.atleast_2d(p), axis=-1)
        return np.clip(speed - 1.0, 0.0, None) + V

    def L(V, q):
        speed = np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(speed <= 1.0 + 1e-12, speed - V, np.inf)

    def sigma(V, q, a):
        gap = a - V
        rad = 1.0 + np.clip(gap, 0.0, None)
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(V, a):
        gap = a - V
        return np.where(gap < 0, np.nan, 1.0 + np.clip(gap, 0.0, None))

    return HamiltonianModel(
        name="nonstrict", dim=dim, strictly_convex=False, tonelli=False,
        H=H, L=L, sigma=sigma, sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(1.0, th + vb),
        dhp_bound=lambda R: 1.0,
    )


def reversed_model(model: HamiltonianModel) -> HamiltonianModel:
    """Time reversal: same model with p -> -p (so L(x, q) -> L(x, -q)).

    Minimal actions of the reversed model are the transposed kernels of the
    original; semidistances swap their arguments.
    """

    def H(V, p):
        return model.H(V, -np.atleast_2d(p))

    def L(V, q):
        return model.L(V, -np.atleast_2d(q))

    def sigma(V, q, a):
        return model.sigma(V, -np.atleast_2d(q), a)

    rates = None
    if model.rates is not None:
        def rates(env):
            rate = model.rates(env)
            if model.dim == 1:
                def reversed_rate(x, p):
                    v, w = rate(x, -p)
                    return -v, w
                return reversed_rate

            def reversed_rate(x0, x1, p0, p1):
                v0, v1, w0, w1 = rate(x0, x1, -p0, -p1)
                return -v0, -v1, w0, w1
            return reversed_rate

    return HamiltonianModel(
        name=model.name + "_reversed", dim=model.dim,
        strictly_convex=model.strictly_convex, tonelli=model.tonelli,
        H=H, L=L, rates=rates, sigma=sigma,
        sublevel_radius=model.sublevel_radius,
        lipschitz_radius_analytic=model.lipschitz_radius_analytic,
        l_r=model.l_r, dhp_bound=model.dhp_bound,
    )


# -- numeric operations ----------------------------------------------------


def kappa(model: HamiltonianModel, a: float, env=None) -> float:
    """kappa_a = sup { |p| : H(x, p) <= a over sampled x }: kappa_at_values
    on V at 256 points of the unit cell in 1D, a 16 x 16 lattice in 2D."""
    n = 256 if model.dim == 1 else 16
    return kappa_at_values(model, a, field_values(env, lattice_points(np.arange(n) / n, model.dim)))


def kappa_at_values(model: HamiltonianModel, a: float, V: np.ndarray) -> float:
    """sup { |p| : H(V_i, p) <= a over the field values V_i }.

    Read off the model's sublevel radius.  An empty sublevel at every
    value raises, unless a sits exactly at the pointwise minimum of H
    (degenerate level -> 0), which a momentum lattice decides.
    """
    radii = np.asarray(model.sublevel_radius(V, a), dtype=float)
    finite = radii[~np.isnan(radii)]
    if finite.size:
        return float(np.max(finite))
    # all empty: degenerate iff some V has min_p H within tol of a
    lattice = lattice_points(np.linspace(-8.0, 8.0, 257), model.dim)
    min_h = min(float(np.min(model.H(v, lattice))) for v in V)
    if a >= min_h - 1e-9:
        return 0.0
    raise SubcriticalLevelError(
        f"sublevel {{H <= {a}}} is empty at every sampled x (min H = {min_h:.6g})")


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
