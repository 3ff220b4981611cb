"""Strict critical subsolutions from weakly strict ones.

Two builders upgrade a working subsolution w to a strict one w_eps that
stays uniformly below the level off the Aubry mask while agreeing with w on
it:

* strictly convex Hamiltonians: a renormalized geometric mix of semigroup
  images T^-_{t_n} w at a dyadic fill of (0, tau) — strict convexity turns
  any gradient disagreement between the images into a negative margin;
* merely convex Hamiltonians: the same mix, but each image is first
  sup-convolved in time with a quadratic penalty, which restores the
  differentiability the mix argument needs.

Builders work at the level folded into the kernel (ActionKernel.shift),
whose images T^-_t w already carry the + a t, and its speed radius
R(kappa).  Certification is separate from construction: check_strict
measures the margin of H(x, Dv) below the kernel's level on a region
bounded away from the mask.  Builders return plain grid functions;
callers assemble certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LadderError
from .grid import GridFn, geometric_mix, lattice_points
from .semigroup import ActionKernel, _whole_steps, lax_minus_images, semigroup_orbit

__all__ = [
    "StrictnessCertificate",
    "check_strict",
    "dyadic_fill_times",
    "build_strict_strictly_convex",
    "sup_convolution_time",
    "build_strict_convex",
    "density_mix",
    "truncation_budget",
]


def _near_mask(grid, mask: np.ndarray, d0: float) -> np.ndarray:
    """Nodes at torus distance < d0 from the mask, or whose central stencil
    touches it: the mask dilated by every lattice offset k with |k| h < d0
    and by the one-cell ring."""
    half = np.arange(-(grid.n // 2), grid.n - grid.n // 2)    # minimal images
    ks = lattice_points(half, grid.dim)
    ks = ks[(np.sum(np.abs(ks), axis=1) <= 1) | (np.linalg.norm(ks * grid.h, axis=1) < d0)]
    m = mask.reshape(grid.shape)
    out = np.zeros_like(m)
    for k in ks:
        out |= np.roll(m, tuple(k), axis=tuple(range(grid.dim)))
    return out.ravel()


@dataclass
class StrictnessCertificate:
    """Margin of H(x, Dv) below the level on cells >= d0 from the mask.

    delta > 0 <=> PASS; worst_point is where the margin is smallest
    inside the certified region.
    """

    d0: float
    delta: float
    worst_index: int
    worst_point: np.ndarray
    n_region: int
    passed: bool


def check_strict(v: GridFn, kernel: ActionKernel, mask: np.ndarray,
                 d0: float) -> StrictnessCertificate:
    """Certify H(x, D_h v(x)) <= a - delta on {dist(x, mask) >= d0} at the
    kernel's level a, model and environment.

    Central differences; cells whose stencil touches the mask are excluded
    rather than one-sided, so kinks sitting on the mask cannot fake a
    margin.  An empty mask certifies the whole grid.
    """
    grid = v.grid
    region = ~_near_mask(grid, mask, d0)
    if not np.any(region):
        raise ConfigError(
            f"no cells at distance >= d0={d0} from the mask; shrink d0")
    grads = v.central_gradient()
    pts = grid.points()
    h_vals = np.asarray(kernel.model.eval_H(pts[region], grads[region], kernel.env), dtype=float)
    worst_local = int(np.argmax(h_vals))
    worst = int(np.nonzero(region)[0][worst_local])
    delta = float(kernel.shift - h_vals[worst_local])
    return StrictnessCertificate(
        d0=d0, delta=delta, worst_index=worst, worst_point=pts[worst],
        n_region=int(region.sum()), passed=bool(delta > 0.0))


# -- builders --------------------------------------------------------------


def dyadic_fill_times(dt: float, tau: float, m_terms: int) -> list:
    """First m_terms dyadic fractions of (0, tau) in binary-reflected order.

    Every time must land on the ladder of step dt, which holds whenever tau
    is dt times a power of two exceeding m_terms.  The rule reads nothing
    but dt, tau and m_terms, so the config validator applies it up front.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if m_terms < 1:
        raise ConfigError(f"m_terms must be at least 1, got {m_terms}")
    times = []
    for i in range(1, m_terms + 1):
        q, j, scale = 0.0, i, 0.5
        while j:
            if j & 1:
                q += scale
            scale *= 0.5
            j >>= 1
        t = tau * q
        try:
            _whole_steps(t, dt)
        except LadderError as exc:
            raise LadderError(
                f"fill time {t:g} (term {i} of tau={tau:g}) is off the ladder; "
                f"choose tau = dt * 2^K with 2^K > m_terms") from exc
        times.append(t)
    return times


def truncation_budget(w: GridFn, m_terms: int) -> float:
    """Sup-range cost of cutting the geometric sum at m_terms."""
    rng = float(np.max(w.values) - np.min(w.values))
    return 2.0**-m_terms * rng


def build_strict_strictly_convex(w: GridFn, kernel: ActionKernel,
                                 tau: float, m_terms: int) -> GridFn:
    """Renormalized mix of T^-_{t_n} w + a t_n over a dyadic fill of (0, tau),
    a the kernel's level.

    Needs strict convexity in p: the strictness of the mix comes from the
    images' gradients disagreeing off the mask, which only prices into a
    margin when level sets of H have no flat faces.  Deviation from w is at
    most tau * kernel.speed_radius plus the truncation budget.
    """
    if not kernel.model.strictly_convex:
        raise ConfigError(
            f"model {kernel.model.name} is not strictly convex in p; "
            f"use build_strict_convex (time sup-convolution) instead")
    times = dyadic_fill_times(kernel.dt, tau, m_terms)
    return geometric_mix(w.grid, lax_minus_images(w, kernel, times))


def sup_convolution_time(w: GridFn, kernel: ActionKernel, delta: float, t: float,
                         orbit: np.ndarray) -> tuple:
    """max over ladder s of (T^-_s w + a s)(x) - (s - t)^2 / (2 delta), a
    the kernel's level.

    orbit holds the folded images T^-_s w + a s at s = 0, dt, ... (a
    semigroup_orbit of w), and its last time is the top of the s-ladder.
    The penalty pins the maximizer within 2 delta R(kappa) of t (the
    kernel's speed_radius), so the s-ladder must span [0, t + 4 delta
    R(kappa)]; shorter ladders are refused rather than silently truncating
    the sup.  Returns the value function and the maximizing s per node.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive: delta=0 degenerates the penalty")
    s = kernel.dt * np.arange(orbit.shape[0])
    window = t + 4.0 * delta * kernel.speed_radius
    if s[-1] < window - 1e-12:
        raise LadderError(
            f"s-ladder spans [0, {s[-1]:g}] but the maximizer window needs "
            f"[0, {window:g}] (t + 4 delta R(kappa))")
    scores = orbit - (s[:, None] - t) ** 2 / (2.0 * delta)
    best = np.argmax(scores, axis=0)
    vals = scores[best, np.arange(w.grid.size)]
    return GridFn(w.grid, vals), s[best]


def build_strict_convex(w: GridFn, kernel: ActionKernel, delta: float, tau: float,
                        m_terms: int) -> GridFn:
    """Strict builder for merely convex Hamiltonians.

    Same geometric mix as the strictly convex branch, but each image is the
    time sup-convolution at t_n, evaluated from one shared orbit up to
    tau + 4 delta R(kappa), R(kappa) the kernel's speed radius.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive: delta=0 degenerates the penalty")
    times = dyadic_fill_times(kernel.dt, tau, m_terms)
    n_steps = int(np.ceil((tau + 4.0 * delta * kernel.speed_radius) / kernel.dt - 1e-9))
    orbit = semigroup_orbit(w, kernel, n_steps)
    return geometric_mix(w.grid, [sup_convolution_time(w, kernel, delta, t, orbit)[0].values
                                  for t in times])


def density_mix(v_strict: GridFn, u: GridFn, n: int) -> GridFn:
    """(1/n) v_strict + (1 - 1/n) u: strict approximants converging to u."""
    if int(n) != n or n < 1:
        raise ConfigError("n must be a positive integer")
    lam = 1.0 / float(n)
    return GridFn(u.grid, lam * v_strict.values + (1.0 - lam) * u.values)
