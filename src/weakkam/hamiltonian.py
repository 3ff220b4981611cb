"""Hamiltonian models as bundles of closed forms.

A model carries vectorized callables: H(x,p), L(x,q), the sublevel support
function sigma, the sublevel radius, the speed bound of Lax-Oleinik
optimizers and the momentum Lipschitz bound of H; a Tonelli model also
carries DH and the flow-rate bound l_r.  Every callable takes points of
shape (m, dim), except DH, which takes one point as Python floats, and an
environment realization supplying the scalar field V (None means V = 0).

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
    "kappa",
    "lipschitz_radius",
]


def _field_values(env, x):
    if env is None:
        return np.zeros(np.atleast_2d(x).shape[0])
    return env.evaluate(x)


def _field_gradient(env, x):
    """DV at one point x, given as dim floats, as a list of dim floats."""
    if env is None:
        return [0.0] * len(x)
    return env.gradient(x)


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian H(x, p) with its closed forms.

    H(x, p, env), L(x, q, env)       Hamiltonian and Lagrangian,
    sigma(x, q, a, env)              support function of {p : H(x,p) <= a};
                                     NaN rows mark empty sublevels,
    sublevel_radius(x, a, env)       sup |p| over that sublevel, NaN where
                                     it is empty,
    lipschitz_radius_analytic(theta) speed bound of Lax-Oleinik optimizers
                                     for theta-Lipschitz data,
    dhp_bound(R)                     sup |H_p| over |p| <= R.

    L and sigma also take one (1, dim) row of q, which they broadcast over
    the m points, and H one (1, dim) row of p.  The Tonelli data
    DH(x, p, env) -> (H_x, H_p) and l_r(R, env), the Lipschitz rate of the
    characteristic field on |p| <= R, are None on models without a
    characteristic flow.  DH is point-wise: x and p are dim floats each
    and H_x, H_p come back as lists of floats, computed in Python float
    arithmetic (see EnvRealization.gradient), since the RK4 flow calls it
    once per stage on one point.
    """

    name: str
    dim: int
    strictly_convex: bool
    tonelli: bool
    field_bound: float
    H: callable = field(repr=False)
    L: callable = field(repr=False)
    sigma: callable = field(repr=False)
    sublevel_radius: callable = field(repr=False)
    lipschitz_radius_analytic: callable = field(repr=False)
    dhp_bound: callable = field(repr=False)
    DH: callable = field(repr=False, default=None)
    l_r: callable = field(repr=False, default=None)

    def eval_H(self, x, p, env=None):
        return self.H(np.atleast_2d(x), np.atleast_2d(p), env)

    def eval_L(self, x, q, env=None):
        return self.L(np.atleast_2d(x), np.atleast_2d(q), env)


# -- catalog --------------------------------------------------------------


def mechanical_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p|^2/2 + V(x)."""
    vb = float(field_bound)

    def H(x, p, env):
        return 0.5 * np.sum(p * p, axis=-1) + _field_values(env, x)

    def L(x, q, env):
        return 0.5 * np.sum(q * q, axis=-1) - _field_values(env, x)

    def DH(x, p, env):
        return _field_gradient(env, x), list(p)

    def sigma(x, q, a, env):
        gap = a - _field_values(env, x)
        rad = np.sqrt(2.0 * np.clip(gap, 0.0, None))
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(x, a, env):
        gap = a - _field_values(env, x)
        return np.where(gap < 0, np.nan, np.sqrt(2.0 * np.clip(gap, 0.0, None)))

    return HamiltonianModel(
        name="mechanical", dim=dim, strictly_convex=True, tonelli=True,
        field_bound=vb, H=H, L=L, DH=DH, sigma=sigma, sublevel_radius=sublevel_radius,
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
    p0_list = p0.tolist()
    vb = float(field_bound)
    p0n = float(np.linalg.norm(p0))

    def H(x, p, env):
        s = np.atleast_2d(p) + p0[None, :]
        return 0.5 * np.sum(s * s, axis=-1) + _field_values(env, x)

    def L(x, q, env):
        q = np.atleast_2d(q)
        return 0.5 * np.sum(q * q, axis=-1) - q @ p0 - _field_values(env, x)

    def DH(x, p, env):
        return _field_gradient(env, x), [a + b for a, b in zip(p, p0_list)]

    def sigma(x, q, a, env):
        gap = a - _field_values(env, x)
        rad = np.sqrt(2.0 * np.clip(gap, 0.0, None))
        q = np.atleast_2d(q)
        out = rad * np.linalg.norm(q, axis=-1) - q @ p0
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(x, a, env):
        gap = a - _field_values(env, x)
        return np.where(gap < 0, np.nan, p0n + np.sqrt(2.0 * np.clip(gap, 0.0, None)))

    return HamiltonianModel(
        name="tilted_mechanical", dim=dim, strictly_convex=True, tonelli=True,
        field_bound=vb, H=H, L=L, DH=DH, sigma=sigma, sublevel_radius=sublevel_radius,
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

    def f_of(x, env):
        return c0 + _field_values(env, x)

    def H(x, p, env):
        return np.linalg.norm(np.atleast_2d(p), axis=-1) - f_of(x, env)

    def L(x, q, env):
        speed = np.linalg.norm(np.atleast_2d(q), axis=-1)
        vals = f_of(x, env).astype(float)
        return np.where(speed <= 1.0 + 1e-12, vals, np.inf)

    def sigma(x, q, a, env):
        rad = a + f_of(x, env)
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(rad < 0, np.nan, out)

    def sublevel_radius(x, a, env):
        rad = a + f_of(x, env)
        return np.where(rad < 0, np.nan, rad)

    return HamiltonianModel(
        name="eikonal", dim=dim, strictly_convex=False, tonelli=False,
        field_bound=vb, H=H, L=L, sigma=sigma, sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(1.0, c0 + vb, th),
        dhp_bound=lambda R: 1.0,
    )


def nonstrict_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = max(|p| - 1, 0) + V(x): convex with a flat unit core, not strict."""
    vb = float(field_bound)

    def H(x, p, env):
        speed = np.linalg.norm(np.atleast_2d(p), axis=-1)
        return np.clip(speed - 1.0, 0.0, None) + _field_values(env, x)

    def L(x, q, env):
        speed = np.linalg.norm(np.atleast_2d(q), axis=-1)
        vals = speed - _field_values(env, x)
        return np.where(speed <= 1.0 + 1e-12, vals, np.inf)

    def sigma(x, q, a, env):
        gap = a - _field_values(env, x)
        rad = 1.0 + np.clip(gap, 0.0, None)
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(x, a, env):
        gap = a - _field_values(env, x)
        return np.where(gap < 0, np.nan, 1.0 + np.clip(gap, 0.0, None))

    return HamiltonianModel(
        name="nonstrict", dim=dim, strictly_convex=False, tonelli=False,
        field_bound=vb, H=H, L=L, sigma=sigma, sublevel_radius=sublevel_radius,
        lipschitz_radius_analytic=lambda th: max(1.0, th + vb),
        dhp_bound=lambda R: 1.0,
    )


def reversed_model(model: HamiltonianModel) -> HamiltonianModel:
    """Time reversal: same model with p -> -p (so L(x, q) -> L(x, -q)).

    Minimal actions of the reversed model are the transposed kernels of the
    original; semidistances swap their arguments.
    """

    def H(x, p, env):
        return model.H(x, -np.atleast_2d(p), env)

    def L(x, q, env):
        return model.L(x, -np.atleast_2d(q), env)

    def sigma(x, q, a, env):
        return model.sigma(x, -np.atleast_2d(q), a, env)

    DH = None
    if model.DH is not None:
        def DH(x, p, env):
            gx, gp = model.DH(x, [-v for v in p], env)
            return gx, [-v for v in gp]

    return HamiltonianModel(
        name=model.name + "_reversed", dim=model.dim,
        strictly_convex=model.strictly_convex, tonelli=model.tonelli,
        field_bound=model.field_bound, H=H, L=L, DH=DH, sigma=sigma,
        sublevel_radius=model.sublevel_radius,
        lipschitz_radius_analytic=model.lipschitz_radius_analytic,
        l_r=model.l_r, dhp_bound=model.dhp_bound,
    )


# -- numeric operations ----------------------------------------------------


def _default_x_samples(model: HamiltonianModel) -> np.ndarray:
    """256 points of the unit cell in 1D, a 16 x 16 lattice in 2D."""
    n = 256 if model.dim == 1 else 16
    return lattice_points(np.arange(n) / n, model.dim)


def kappa(model: HamiltonianModel, a: float, env=None, x_samples=None) -> float:
    """kappa_a = sup { |p| : H(x, p) <= a over sampled x }.

    Read off the model's sublevel radius.  An empty sublevel at every
    sample raises, unless a sits exactly at the pointwise minimum of H
    (degenerate level -> 0), which a momentum lattice decides.
    """
    xs = x_samples if x_samples is not None else _default_x_samples(model)
    radii = np.asarray(model.sublevel_radius(xs, a, env), dtype=float)
    finite = radii[~np.isnan(radii)]
    if finite.size:
        return float(np.max(finite))
    # all empty: degenerate iff some x has min_p H within tol of a
    lattice = lattice_points(np.linspace(-8.0, 8.0, 257), model.dim)
    min_h = min(float(np.min(model.eval_H(np.repeat(x[None, :], len(lattice), axis=0), lattice, env)))
                for x in xs)
    if a >= min_h - 1e-9:
        return 0.0
    raise SubcriticalLevelError(
        f"sublevel {{H <= {a}}} is empty at every sampled x (min H = {min_h:.6g})",
        empty_at=np.asarray(xs[0]))


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
