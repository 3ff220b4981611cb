"""Hamiltonian models and the fiberwise convex-analysis toolbox.

A model is a bundle of vectorized callables H(x,p), L(x,q), derivatives and
growth envelopes, plus convexity flags that gate which pipelines accept it.
Every callable takes points of shape (m, dim) and an optional environment
realization supplying the scalar field V (None means V = 0).

Built-in catalog:

* ``mechanical``        H = |p|^2/2 + V(x)          strictly convex, Tonelli
* ``tilted_mechanical`` H = |p + P0|^2/2 + V(x)     strictly convex, Tonelli
* ``eikonal``           H = |p| - f(x), f = c0 + V  convex, 1-homogeneous
* ``nonstrict``         H = max(|p|-1, 0) + V(x)    convex, flat core

The numeric operations (legendre, kappa, sublevel_margin, lipschitz_radius)
never require the closed forms; models that have them use them as oracles in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PRadiusError, SubcriticalLevelError

__all__ = [
    "HamiltonianModel",
    "mechanical_model",
    "tilted_mechanical_model",
    "eikonal_model",
    "nonstrict_model",
    "model_catalog",
    "LegendreResult",
    "legendre",
    "kappa",
    "sublevel_margin",
    "lipschitz_radius",
]


def _field_values(env, x):
    if env is None:
        return np.zeros(np.atleast_2d(x).shape[0])
    return env.evaluate(x)


def _field_gradient(env, x):
    """DV at the (m, dim) points x, handed to the field without a wrapper
    or a copy.

    Bit rule: the RK4 flow calls this once per stage on one (1, dim) row,
    and a trajectory keeps its bits only while every stage makes the same
    numpy calls on that row shape (see EnvRealization.gradient)."""
    if env is None:
        return np.zeros_like(x)
    return env.gradient(x)


@dataclass(frozen=True)
class HamiltonianModel:
    """A Hamiltonian H(x, p) with its Lagrangian and growth data.

    growth_alpha / growth_beta are radial envelopes with
    alpha(|p|) <= H(x,p) <= beta(|p|) for every admissible field; they feed
    the generic Lipschitz-radius estimate.  Optional closed forms:

    sigma(x, q, a, env)      support function of {p : H(x,p) <= a}; NaN rows
                             mark empty sublevels,
    sublevel_radius(x, a)    radius data used by the numeric kappa shortcut,
    lipschitz_radius_analytic(theta)  documented speed/rate bound.
    """

    name: str
    dim: int
    convex: bool
    strictly_convex: bool
    tonelli: bool
    field_bound: float
    H: callable = field(repr=False, default=None)
    L: callable = field(repr=False, default=None)
    DH: callable = field(repr=False, default=None)
    sigma: callable = field(repr=False, default=None)
    sublevel_radius: callable = field(repr=False, default=None)
    growth_alpha: callable = field(repr=False, default=None)
    growth_beta: callable = field(repr=False, default=None)
    lipschitz_radius_analytic: callable = field(repr=False, default=None)
    l_r: callable = field(repr=False, default=None)
    nu_r: callable = field(repr=False, default=None)
    dhp_bound: callable = field(repr=False, default=None)

    def eval_H(self, x, p, env=None):
        return self.H(np.atleast_2d(x), np.atleast_2d(p), env)

    def eval_L(self, x, q, env=None):
        if self.L is None:
            raise ConfigError(f"model {self.name} has no closed-form Lagrangian; use legendre()")
        return self.L(np.atleast_2d(x), np.atleast_2d(q), env)

    def eval_DH(self, x, p, env=None):
        if self.DH is None:
            raise ConfigError(f"model {self.name} has no derivative data")
        return self.DH(np.atleast_2d(x), np.atleast_2d(p), env)


# -- catalog --------------------------------------------------------------


def mechanical_model(dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p|^2/2 + V(x)."""
    vb = float(field_bound)

    def H(x, p, env):
        return 0.5 * np.sum(p * p, axis=-1) + _field_values(env, x)

    def L(x, q, env):
        return 0.5 * np.sum(q * q, axis=-1) - _field_values(env, x)

    def DH(x, p, env):
        return _field_gradient(env, x), p.astype(float)

    def sigma(x, q, a, env):
        gap = a - _field_values(env, x)
        rad = np.sqrt(2.0 * np.clip(gap, 0.0, None))
        out = rad * np.linalg.norm(np.atleast_2d(q), axis=-1)
        return np.where(gap < 0, np.nan, out)

    def sublevel_radius(x, a, env):
        gap = a - _field_values(env, x)
        return np.where(gap < 0, np.nan, np.sqrt(2.0 * np.clip(gap, 0.0, None)))

    return HamiltonianModel(
        name="mechanical", dim=dim, convex=True, strictly_convex=True, tonelli=True,
        field_bound=vb, H=H, L=L, DH=DH, sigma=sigma, sublevel_radius=sublevel_radius,
        growth_alpha=lambda r: 0.5 * r * r - vb,
        growth_beta=lambda r: 0.5 * r * r + vb,
        lipschitz_radius_analytic=lambda th: max(
            th + np.sqrt(th * th + 4.0 * vb), vb, 0.5 * th * th + vb, 1.0),
        l_r=lambda R, env=None: max(1.0, env.hessian_bound() if env is not None else 0.0),
        nu_r=lambda R: 1.0,
        dhp_bound=lambda R: R,
    )


def tilted_mechanical_model(p0, dim: int = 1, field_bound: float = 1.0) -> HamiltonianModel:
    """H = |p + P0|^2/2 + V(x); the tilt makes support functions signed."""
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.size != dim:
        raise ConfigError(f"tilt vector has size {p0.size}, expected {dim}")
    p0_row = p0[None, :]
    vb = float(field_bound)
    p0n = float(np.linalg.norm(p0))

    def H(x, p, env):
        s = np.atleast_2d(p) + p0[None, :]
        return 0.5 * np.sum(s * s, axis=-1) + _field_values(env, x)

    def L(x, q, env):
        q = np.atleast_2d(q)
        return 0.5 * np.sum(q * q, axis=-1) - q @ p0 - _field_values(env, x)

    def DH(x, p, env):
        return _field_gradient(env, x), p + p0_row

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
        name="tilted_mechanical", dim=dim, convex=True, strictly_convex=True, tonelli=True,
        field_bound=vb, H=H, L=L, DH=DH, sigma=sigma, sublevel_radius=sublevel_radius,
        growth_alpha=lambda r: 0.5 * max(r - p0n, 0.0) ** 2 - vb,
        growth_beta=lambda r: 0.5 * (r + p0n) ** 2 + vb,
        lipschitz_radius_analytic=lambda th: max(
            (th + p0n) + np.sqrt((th + p0n) ** 2 + 4.0 * vb),
            vb, 0.5 * (th + p0n) ** 2 + vb, 1.0),
        l_r=lambda R, env=None: max(1.0, env.hessian_bound() if env is not None else 0.0),
        nu_r=lambda R: 1.0,
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
        name="eikonal", dim=dim, convex=True, strictly_convex=False, tonelli=False,
        field_bound=vb, H=H, L=L, DH=None, sigma=sigma, sublevel_radius=sublevel_radius,
        growth_alpha=lambda r: r - (c0 + vb),
        growth_beta=lambda r: r - (c0 - vb),
        lipschitz_radius_analytic=lambda th: max(1.0, c0 + vb, th),
        l_r=None, nu_r=None,
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
        name="nonstrict", dim=dim, convex=True, strictly_convex=False, tonelli=False,
        field_bound=vb, H=H, L=L, DH=None, sigma=sigma, sublevel_radius=sublevel_radius,
        growth_alpha=lambda r: r - 1.0 - vb,
        growth_beta=lambda r: r + vb,
        lipschitz_radius_analytic=lambda th: max(1.0, th + vb),
        l_r=None, nu_r=None,
        dhp_bound=lambda R: 1.0,
    )


def model_catalog() -> dict:
    """Factories by config name."""
    return {
        "mechanical": mechanical_model,
        "tilted_mechanical": tilted_mechanical_model,
        "eikonal": eikonal_model,
        "nonstrict": nonstrict_model,
    }


def reversed_model(model: HamiltonianModel) -> HamiltonianModel:
    """Time reversal: same model with p -> -p (so L(x, q) -> L(x, -q)).

    Minimal actions of the reversed model are the transposed kernels of the
    original; semidistances swap their arguments.
    """

    def H(x, p, env):
        return model.H(x, -np.atleast_2d(p), env)

    L = None
    if model.L is not None:
        def L(x, q, env):
            return model.L(x, -np.atleast_2d(q), env)

    DH = None
    if model.DH is not None:
        def DH(x, p, env):
            gx, gp = model.DH(x, -p, env)
            return gx, -gp

    sigma = None
    if model.sigma is not None:
        def sigma(x, q, a, env):
            return model.sigma(x, -np.atleast_2d(q), a, env)

    return HamiltonianModel(
        name=model.name + "_reversed", dim=model.dim, convex=model.convex,
        strictly_convex=model.strictly_convex, tonelli=model.tonelli,
        field_bound=model.field_bound, H=H, L=L, DH=DH, sigma=sigma,
        sublevel_radius=model.sublevel_radius,
        growth_alpha=model.growth_alpha, growth_beta=model.growth_beta,
        lipschitz_radius_analytic=model.lipschitz_radius_analytic,
        l_r=model.l_r, nu_r=model.nu_r, dhp_bound=model.dhp_bound,
    )


# -- numeric operations ----------------------------------------------------


def _p_lattice(dim: int, p_radius: float, n_p: int) -> np.ndarray:
    ax = np.linspace(-p_radius, p_radius, n_p)
    if dim == 1:
        return ax[:, None]
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _on_lattice_boundary(idx: int, dim: int, n_p: int) -> bool:
    if dim == 1:
        return idx in (0, n_p - 1)
    i, j = divmod(idx, n_p)
    return i in (0, n_p - 1) or j in (0, n_p - 1)


@dataclass
class LegendreResult:
    value: float
    p_star: np.ndarray
    boundary: bool


def legendre(model: HamiltonianModel, x, q, env=None,
             p_radius: float = 6.0, n_p: int = 129,
             on_boundary: str = "raise") -> LegendreResult:
    """Numeric Legendre transform L(x,q) = sup_p <p,q> - H(x,p).

    Grid search over a momentum lattice followed by a one-step quadratic
    polish along each axis.  An argmax on the lattice boundary means either
    p_radius is too small or the supremum is genuinely infinite (velocity
    outside the model's cone); with on_boundary="flag" the grid value is
    returned with boundary=True instead of raising.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    q = np.asarray(q, dtype=float).reshape(1, -1)
    lattice = _p_lattice(model.dim, p_radius, n_p)
    objective = (lattice @ q[0]) - model.eval_H(np.repeat(x, len(lattice), axis=0), lattice, env)
    k = int(np.argmax(objective))
    boundary = _on_lattice_boundary(k, model.dim, n_p)
    p_star = lattice[k].copy()
    value = float(objective[k])
    if boundary:
        if on_boundary == "flag":
            return LegendreResult(value=value, p_star=p_star, boundary=True)
        raise PRadiusError(
            f"p_radius too small: Legendre argmax for q={q[0]} sits on the momentum "
            f"lattice boundary (|p|={np.linalg.norm(p_star):.3g})",
            q=q[0], p_star=p_star, value=value)
    # quadratic polish, axis by axis, using lattice neighbors
    dp = 2.0 * p_radius / (n_p - 1)
    for a in range(model.dim):
        trial = np.repeat(p_star[None, :], 3, axis=0)
        trial[0, a] -= dp
        trial[2, a] += dp
        v = (trial @ q[0]) - model.eval_H(np.repeat(x, 3, axis=0), trial, env)
        denom = v[0] - 2.0 * v[1] + v[2]
        if denom < -1e-14:
            shift = 0.5 * (v[0] - v[2]) / denom * dp
            p_star[a] += float(np.clip(shift, -dp, dp))
    polished = float(p_star @ q[0] - model.eval_H(x, p_star[None, :], env)[0])
    if polished > value:
        value = polished
    return LegendreResult(value=value, p_star=p_star, boundary=False)


def _default_x_samples(model: HamiltonianModel, n: int = 256) -> np.ndarray:
    if model.dim == 1:
        return (np.arange(n) / n)[:, None]
    m = max(int(np.sqrt(n)), 8)
    ax = np.arange(m) / m
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def kappa(model: HamiltonianModel, a: float, env=None, x_samples=None,
          p_radius: float = 8.0, n_p: int = 257, degenerate_tol: float = 1e-9) -> float:
    """kappa_a = sup { |p| : H(x, p) <= a over sampled x }.

    Uses the model's sublevel radius when available, otherwise a momentum
    lattice.  Empty sublevel at every sample raises, unless a sits exactly
    at the pointwise minimum of H (degenerate level -> 0).
    """
    xs = x_samples if x_samples is not None else _default_x_samples(model)
    if model.sublevel_radius is not None:
        radii = np.asarray(model.sublevel_radius(xs, a, env), dtype=float)
        finite = radii[~np.isnan(radii)]
        if finite.size:
            return float(np.max(finite))
        # all empty: degenerate iff some x has min_p H within tol of a
        lattice = _p_lattice(model.dim, p_radius, n_p)
        min_h = min(float(np.min(model.eval_H(np.repeat(x[None, :], len(lattice), axis=0), lattice, env)))
                    for x in xs)
        if a >= min_h - degenerate_tol:
            return 0.0
        raise SubcriticalLevelError(
            f"sublevel {{H <= {a}}} is empty at every sampled x (min H = {min_h:.6g})",
            empty_at=np.asarray(xs[0]))
    lattice = _p_lattice(model.dim, p_radius, n_p)
    norms = np.linalg.norm(lattice, axis=1)
    best = -np.inf
    min_h = np.inf
    for x in np.atleast_2d(xs):
        h = model.eval_H(np.repeat(x[None, :], len(lattice), axis=0), lattice, env)
        min_h = min(min_h, float(np.min(h)))
        inside = h <= a + 1e-12
        if np.any(inside):
            best = max(best, float(np.max(norms[inside])))
    if best > -np.inf:
        return best
    if a >= min_h - degenerate_tol:
        return 0.0
    raise SubcriticalLevelError(
        f"sublevel {{H <= {a}}} is empty at every sampled x (min H = {min_h:.6g})",
        empty_at=np.asarray(np.atleast_2d(xs)[0]))


def _unit_directions(dim: int, m: int = 16) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def sublevel_margin(model: HamiltonianModel, a: float, b: float, env=None,
                    x_samples=None, p_radius: float = 8.0,
                    iters: int = 48) -> float:
    """Largest rho with Z_a(x) + B_rho inside Z_b(x) over sampled x.

    For each sample and each probe direction, the boundary point of Z_a
    along the ray from an interior center is located by bisection and pushed
    rho further; dyadic search returns the largest verified rho.  Exact for
    the radial catalog models, a sampled certificate for general convex ones.
    """
    if b < a:
        raise ConfigError(f"need b >= a, got a={a}, b={b}")
    xs = np.atleast_2d(x_samples if x_samples is not None else _default_x_samples(model, 64))
    dirs = _unit_directions(model.dim)
    boundary_pts = []
    lattice = _p_lattice(model.dim, p_radius, 65)
    for x in xs:
        xrep = np.repeat(x[None, :], len(lattice), axis=0)
        h = model.eval_H(xrep, lattice, env)
        inside = h <= a + 1e-12
        if not np.any(inside):
            continue
        center = lattice[int(np.argmin(h))]
        for e in dirs:
            lo_t, hi_t = 0.0, 2.0 * p_radius
            if model.eval_H(x[None, :], (center + hi_t * e)[None, :], env)[0] <= a:
                raise PRadiusError("p_radius too small: sublevel reaches the probe radius")
            for _ in range(iters):
                mid = 0.5 * (lo_t + hi_t)
                if model.eval_H(x[None, :], (center + mid * e)[None, :], env)[0] <= a:
                    lo_t = mid
                else:
                    hi_t = mid
            boundary_pts.append((x, center + lo_t * e, e))
    if not boundary_pts:
        raise SubcriticalLevelError(f"sublevel {{H <= {a}}} empty at every sampled x")

    def feasible(rho: float) -> bool:
        for x, z, e in boundary_pts:
            if model.eval_H(x[None, :], (z + rho * e)[None, :], env)[0] > b + 1e-12:
                return False
        return True

    lo, hi = 0.0, 2.0 * p_radius
    if feasible(hi):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def lipschitz_radius(theta: float, model: HamiltonianModel,
                     s_max: float = 64.0, n: int = 8193) -> float:
    """Conservative argmin-excursion radius R(theta).

    For theta-Lipschitz data, any optimizer y of the backward Lax-Oleinik
    formula at (t, x) satisfies |x - y| <= t R(theta), and the semigroup
    moves data by at most t R(theta) in sup norm.  Formula (documented, one
    admissible choice): with radial envelopes alpha <= H <= beta,

        R = max( sup{ r : beta*(r) <= theta r + alpha*(0) },
                 alpha*(0), beta(theta), 1 )

    where beta* is the radial conjugate.  Monotone nondecreasing in theta.
    Models with an analytic bound use it directly.
    """
    if theta < 0:
        raise ConfigError("theta must be nonnegative")
    if model.lipschitz_radius_analytic is not None:
        return float(model.lipschitz_radius_analytic(theta))
    s = np.linspace(0.0, s_max, n)
    alpha = np.asarray([model.growth_alpha(v) for v in s])
    beta = np.asarray([model.growth_beta(v) for v in s])
    alpha_star0 = float(-np.min(alpha))
    beta_theta = float(model.growth_beta(theta))

    def beta_star(r: float) -> float:
        return float(np.max(r * s - beta))

    r_hi = 1.0
    while beta_star(r_hi) <= theta * r_hi + alpha_star0:
        r_hi *= 2.0
        if r_hi > 1e9:
            raise ConfigError("growth envelopes too weak: excursion radius diverges")
    r_lo = 0.0
    for _ in range(64):
        mid = 0.5 * (r_lo + r_hi)
        if beta_star(mid) <= theta * mid + alpha_star0:
            r_lo = mid
        else:
            r_hi = mid
    return max(r_hi, alpha_star0, beta_theta, 1.0)
