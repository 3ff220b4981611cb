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

Certification is separate from construction: check_strict measures the
margin of H(x, Dv) below the level on a region bounded away from the mask,
check_weakly_strict measures the gap against the semidistance on sampled
pairs.  Builders return plain grid functions; callers assemble certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LadderError
from .grid import GridFn, geometric_mix
from .hamiltonian import kappa, lipschitz_radius
from .semigroup import ActionKernel, lax_minus_images, semigroup_orbit

__all__ = [
    "StrictnessCertificate",
    "check_strict",
    "WeakStrictnessReport",
    "check_weakly_strict",
    "dyadic_fill_times",
    "build_strict_strictly_convex",
    "sup_convolution_time",
    "build_strict_convex",
    "density_mix",
    "truncation_budget",
]


def _mask_array(mask) -> np.ndarray:
    """Accept an AubryMask or a plain boolean array."""
    arr = getattr(mask, "mask", mask)
    return np.asarray(arr, dtype=bool)


def _near_mask(grid, mask: np.ndarray, d0: float) -> np.ndarray:
    """Nodes at torus distance < d0 from the mask, or whose central stencil
    touches it: the mask dilated by every lattice offset k with |k| h < d0
    and by the one-cell ring."""
    half = np.arange(-(grid.n // 2), grid.n - grid.n // 2)    # minimal images
    ks = np.stack(np.meshgrid(*[half] * grid.dim, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    ks = ks[(np.sum(np.abs(ks), axis=1) <= 1) | (np.linalg.norm(ks * grid.h, axis=1) < d0)]
    m = mask.reshape(grid.shape)
    out = np.zeros_like(m)
    for k in ks:
        out |= np.roll(m, tuple(k), axis=tuple(range(grid.dim)))
    return out.ravel()


@dataclass
class StrictnessCertificate:
    """Margin of H(x, Dv) below the level on cells >= d0 from the mask.

    delta > tol <=> PASS; worst_point is where the margin is smallest
    inside the certified region.
    """

    a: float
    d0: float
    delta: float
    worst_index: int
    worst_point: np.ndarray
    h: float
    tol: float
    n_region: int
    passed: bool


def check_strict(v: GridFn, model, env, mask, d0: float,
                 a: float = 0.0) -> StrictnessCertificate:
    """Certify H(x, D_h v(x)) <= a - delta on {dist(x, mask) >= d0}.

    Central differences; cells whose stencil touches the mask are excluded
    rather than one-sided, so kinks sitting on the mask cannot fake a
    margin.  An empty mask certifies the whole grid.
    """
    grid = v.grid
    m = _mask_array(mask)
    region = ~_near_mask(grid, m, d0)
    if not np.any(region):
        raise ConfigError(
            f"no cells at distance >= d0={d0} from the mask; shrink d0")
    grads = v.central_gradient()
    pts = grid.points()
    h_vals = np.asarray(model.eval_H(pts[region], grads[region], env), dtype=float)
    worst_local = int(np.argmax(h_vals))
    worst = int(np.nonzero(region)[0][worst_local])
    delta = float(a - h_vals[worst_local])
    return StrictnessCertificate(
        a=a, d0=d0, delta=delta, worst_index=worst, worst_point=pts[worst],
        h=grid.h, tol=0.0, n_region=int(region.sum()),
        passed=bool(delta > 0.0))


@dataclass
class WeakStrictnessReport:
    """Smallest gap S(y, x) - (v(x) - v(y)) over sampled off-mask pairs."""

    min_gap: float
    worst_pair: tuple
    n_pairs: int
    separation: float
    tol: float
    passed: bool


def check_weakly_strict(v: GridFn, semidist, mask) -> WeakStrictnessReport:
    """Strict inequality against the semidistance, sampled.

    Pairs run over the semidistance's off-mask sources y and all off-mask
    targets x with torus separation >= 2h; the diagonal saturates S
    identically and is excluded.
    """
    grid = v.grid
    m = _mask_array(mask)
    sep = 2.0 * grid.h
    pts = grid.points()
    min_gap = np.inf
    worst = None
    n_pairs = 0
    for row, y_idx in enumerate(semidist.source_indices):
        if m[y_idx]:
            continue
        far = grid.torus_dist(pts, pts[y_idx]) >= sep - 1e-12
        sel = far & ~m
        if not np.any(sel):
            continue
        gaps = semidist.values[row, sel] - (v.values[sel] - v.values[y_idx])
        n_pairs += int(sel.sum())
        j = int(np.argmin(gaps))
        if gaps[j] < min_gap:
            min_gap = float(gaps[j])
            worst = (int(y_idx), int(np.nonzero(sel)[0][j]))
    if n_pairs == 0:
        raise ConfigError(
            "no valid off-mask pairs at the requested separation; "
            "the mask complement is empty or the separation too large")
    return WeakStrictnessReport(min_gap=min_gap, worst_pair=worst,
                                n_pairs=n_pairs, separation=sep,
                                tol=0.0, passed=bool(min_gap > 0.0))


# -- builders --------------------------------------------------------------


def dyadic_fill_times(kernel: ActionKernel, tau: float, m_terms: int) -> list:
    """First m_terms dyadic fractions of (0, tau) in binary-reflected order.

    Every time must land on the kernel ladder, which holds whenever tau is
    dt times a power of two exceeding m_terms.
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
            kernel.steps_of(t)
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


def build_strict_strictly_convex(w: GridFn, kernel: ActionKernel, a: float,
                                 tau: float, m_terms: int) -> GridFn:
    """Renormalized mix of T^-_{t_n} w + a t_n over a dyadic fill of (0, tau).

    Needs strict convexity in p: the strictness of the mix comes from the
    images' gradients disagreeing off the mask, which only prices into a
    margin when level sets of H have no flat faces.  Deviation from w is at
    most tau * speed-radius plus the truncation budget.
    """
    if not kernel.model.strictly_convex:
        raise ConfigError(
            f"model {kernel.model.name} is not strictly convex in p; "
            f"use build_strict_convex (time sup-convolution) instead")
    times = dyadic_fill_times(kernel, tau, m_terms)
    stack = [img + (a - kernel.shift) * t
             for t, img in zip(times, lax_minus_images(w, kernel, times))]
    return geometric_mix(w.grid, stack)


def _default_r_kappa(kernel: ActionKernel, a: float) -> float:
    return lipschitz_radius(kappa(kernel.model, a, kernel.env), kernel.model)


def sup_convolution_time(w: GridFn, kernel: ActionKernel, a: float,
                         delta: float, t: float,
                         r_kappa: float | None = None,
                         s_max: float | None = None,
                         orbit: np.ndarray | None = None) -> tuple:
    """max over ladder s of (T^-_s w + a s)(x) - (s - t)^2 / (2 delta).

    The quadratic penalty pins the maximizer within 2 delta R(kappa) of t,
    so the s-ladder must span [0, t + 4 delta R(kappa)]; shorter ladders
    are refused rather than silently truncating the sup.  Returns the value
    function and the maximizing s per node.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive: delta=0 degenerates the penalty")
    if r_kappa is None:
        r_kappa = _default_r_kappa(kernel, a)
    window = t + 4.0 * delta * r_kappa
    if s_max is None:
        s_max = window
    if s_max < window - 1e-12:
        raise LadderError(
            f"s-ladder spans [0, {s_max:g}] but the maximizer window needs "
            f"[0, {window:g}] (t + 4 delta R(kappa))")
    n_steps = int(np.ceil(s_max / kernel.dt - 1e-9))
    if orbit is None or orbit.shape[0] < n_steps + 1:
        orbit = semigroup_orbit(w, kernel, n_steps)
    s = kernel.dt * np.arange(n_steps + 1)
    scores = orbit[: n_steps + 1] \
        + (a - kernel.shift) * s[:, None] \
        - (s[:, None] - t) ** 2 / (2.0 * delta)
    best = np.argmax(scores, axis=0)
    vals = scores[best, np.arange(w.grid.size)]
    return GridFn(w.grid, vals), s[best]


def build_strict_convex(w: GridFn, kernel: ActionKernel, a: float,
                        delta: float, tau: float, m_terms: int,
                        r_kappa: float | None = None) -> GridFn:
    """Strict builder for merely convex Hamiltonians.

    Same geometric mix as the strictly convex branch, but each image is the
    time sup-convolution at t_n, evaluated from one shared orbit up to
    tau + 4 delta R(kappa).
    """
    if delta <= 0:
        raise ConfigError("delta must be positive: delta=0 degenerates the penalty")
    if r_kappa is None:
        r_kappa = _default_r_kappa(kernel, a)
    times = dyadic_fill_times(kernel, tau, m_terms)
    s_max = tau + 4.0 * delta * r_kappa
    n_steps = int(np.ceil(s_max / kernel.dt - 1e-9))
    orbit = semigroup_orbit(w, kernel, n_steps)
    stack = []
    for t in times:
        v_t, _ = sup_convolution_time(w, kernel, a, delta, t,
                                      r_kappa=r_kappa, s_max=s_max, orbit=orbit)
        stack.append(v_t.values)
    return geometric_mix(w.grid, stack)


def density_mix(v_strict: GridFn, u: GridFn, n: int) -> GridFn:
    """(1/n) v_strict + (1 - 1/n) u: strict approximants converging to u."""
    if int(n) != n or n < 1:
        raise ConfigError("n must be a positive integer")
    lam = 1.0 / float(n)
    return GridFn(u.grid, lam * v_strict.values + (1.0 - lam) * u.values)
