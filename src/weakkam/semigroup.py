"""Lax-Oleinik semigroups by min-plus dynamic programming.

The one-step kernel prices a displacement d covered in time dt at
dt * (L(midpoint, d/dt) + shift).  It is a grid.Stencil, the offset stencil
the cost graphs of the metric side share.  T^-_t u = min_y u(y) + h_t(y, x)
is t/dt backward (pull) steps of the stencil; T^+_t is t/dt pull steps of
the same stencil with every edge turned around, the reversal identity
T^+_t u = -(reversed T^-_t)(-u) without a second kernel.  Ladder times are
step counts, so T_{s+t} = T_s o T_t holds to the last bit.  Rows h_t(y, .)
of a block of sources are t/dt steps of the stencil walked together
(Stencil.walk_costs); columns h_t(., x) are rows of the reversed stencil.
The whole N x N table (ActionKernel.at) has no caller in the package.

The stencil is also a weighted graph; its minimal cycle mean (Karp) is the
exact critical value of the discretized system, the level at which min-plus
powers stay bounded.  Folding the kernel by that value puts the discrete
Aubry phenomenon at machine precision instead of bisection precision.
Karp's N-step walk from node 0 is taken twice, once to its end and once to
score each row against it, by Stencil.walk: per node and step it sums a
shortlist of cheap in-edges, and all of them only where a certified bound
says another could win, with the bits of a pull.  Beyond O(N) vectors it
holds a few shortlisted edges per node and sums in chunks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, LadderError, WeakKamError
from .grid import GridFn, GridSpec, Stencil, relax
from .hamiltonian import lipschitz_radius

__all__ = [
    "ActionKernel",
    "build_kernel",
    "lax_minus",
    "lax_plus",
    "semigroup_orbit",
    "lax_minus_images",
    "discrete_critical_value",
    "MonotoneReport",
    "check_monotone_semigroup",
    "CorrectorReport",
    "check_corrector",
    "lax_friedrichs_evolve",
    "TimeDependentReport",
    "check_time_dependent_solution",
]


@dataclass
class ActionKernel(Stencil):
    """One-step minimal action h_dt(y, x) as an offset stencil.

    The stencil edge y -> x costs h_dt(y, x); no other pair is joined in one
    step.  ``shift`` is the energy folding added to L (use the critical
    value to normalize).
    """

    model: object
    env: object
    dt: float
    theta: float
    radius_one: float
    shift: float

    # -- ladder ----------------------------------------------------------

    def ladder(self, t_max: float) -> list:
        """Dyadic times dt * 2^k up to t_max."""
        out = []
        t = self.dt
        while t <= t_max * (1 + 1e-12):
            out.append(t)
            t *= 2.0
        return out

    def steps_of(self, t: float) -> int:
        m = t / self.dt
        mi = int(round(m))
        if mi < 1 or abs(m - mi) > 1e-9:
            raise LadderError(
                f"time {t} is not a positive multiple of dt={self.dt}; "
                f"pick times on the kernel ladder")
        return mi

    # -- all-pairs tables (no caller in the package) -----------------------

    def at(self, t: float) -> np.ndarray:
        """All-pairs table h_t(y, x) for any positive multiple of dt."""
        return self.walk_costs(np.arange(self.size), self.steps_of(t))

    def power(self, k: int) -> np.ndarray:
        """All-pairs table for t = dt * 2^k."""
        return self.at(self.dt * 2**k)


def build_kernel(model, env, grid: GridSpec, dt: float, theta: float,
                 shift: float = 0.0) -> ActionKernel:
    """One-step minimal-action kernel with reach dt R(theta) + 2h.

    Uses the model's closed-form Lagrangian when present, else the numeric
    Legendre transform per edge.  Offsets whose speed is outside the model's
    cone (L = +inf everywhere) are pruned; a kernel whose graph is then not
    strongly connected is refused (ConfigError), because its cycle mean
    from node 0 would price only part of the torus.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    R = lipschitz_radius(theta, model)
    radius_one = dt * R + 2.0 * grid.h
    offsets = grid.offsets_within(radius_one, include_zero=True)
    pts = grid.points()
    kept, rows = [], []
    for k in offsets:
        disp = np.asarray(k, dtype=float) * grid.h
        q = disp / dt
        mids = grid.wrap(pts + 0.5 * disp[None, :])
        if model.L is not None:
            lvals = model.eval_L(mids, np.repeat(q[None, :], grid.size, axis=0), env)
        else:
            from .hamiltonian import legendre

            lvals = np.array([
                legendre(model, mids[i], q, env, on_boundary="flag").value
                for i in range(grid.size)])
        cost = dt * (np.asarray(lvals, dtype=float) + shift)
        if not np.any(np.isfinite(cost)):
            continue
        kept.append(k)
        rows.append(grid.roll_flat(cost, k))   # cost was priced at the start node
    kept = np.asarray(kept, dtype=int).reshape(-1, grid.dim)
    weights = np.asarray(rows, dtype=float).reshape(-1, grid.size)
    del rows    # room for the connectivity check
    # offsets +-n/2 along an axis join the same pair of nodes: keep the last
    # of them, priced at the cheaper move
    last = {}
    for i, k in enumerate(map(tuple, kept % grid.n)):
        if k in last:
            np.minimum(weights[i], weights[last[k]], out=weights[i])
        last[k] = i
    keep = sorted(last.values())
    offsets, weights = kept[keep], weights[keep]
    # Strongly connected iff every node reaches node 0 and is reached from
    # it.  Hop costs 0 and +inf are exact in float32, at half the memory.
    hops = Stencil(grid, offsets, np.where(np.isfinite(weights), np.float32(0), np.float32(np.inf)))
    start = np.where(np.arange(grid.size) == 0, 0.0, np.inf)
    if not all(np.all(np.isfinite(relax(hops, start, forward))) for forward in (False, True)):
        fastest = float(np.max(np.linalg.norm(offsets, axis=1), initial=0.0)) * grid.h / dt
        raise ConfigError(
            f"the one-step kernel graph is not strongly connected: a one-cell move "
            f"needs speed h/dt = {grid.h / dt:g}, the model's speed cone kept moves "
            f"up to speed {fastest:g}; choose dt and n with h/dt <= its maximal speed")
    return ActionKernel(grid=grid, model=model, env=env, dt=dt, theta=theta,
                        radius_one=radius_one, shift=shift, offsets=offsets, weights=weights)


def refold_kernel(kernel: ActionKernel, shift: float) -> ActionKernel:
    """Same kernel with a different energy folding.

    Only the constant dt * (shift - old shift) moves on every finite edge,
    so the edge set and reach are reused.
    """
    weights = kernel.weights + kernel.dt * (shift - kernel.shift)
    return ActionKernel(grid=kernel.grid, model=kernel.model, env=kernel.env,
                        dt=kernel.dt, theta=kernel.theta,
                        radius_one=kernel.radius_one, shift=float(shift),
                        offsets=kernel.offsets, weights=weights)


# -- operators ---------------------------------------------------------------


def lax_minus(u: GridFn, kernel: ActionKernel, t: float) -> GridFn:
    """T^-_t u, by t/dt backward steps of the stencil."""
    vals = u.values
    for _ in range(kernel.steps_of(t)):
        vals = kernel.pull(vals)
    return GridFn(u.grid, vals)


def lax_plus(u: GridFn, kernel: ActionKernel, t: float) -> GridFn:
    """T^+_t u = max_y u(y) - h_t(x, y), by t/dt steps of the reversed stencil.

    h_t of the reversed model is the transpose of the forward one, so
    T^+_t u = -min_y (h_t(x, y) - u(y)) needs no second kernel.
    """
    vals, reverse = -u.values, kernel.reversed()
    for _ in range(kernel.steps_of(t)):
        vals = reverse.pull(vals)
    return GridFn(u.grid, -vals)


def semigroup_orbit(u: GridFn, kernel: ActionKernel, n_steps: int) -> np.ndarray:
    """Values of T^-_{m dt} u for m = 0..n_steps, shape (n_steps+1, size)."""
    out = np.empty((n_steps + 1, u.grid.size))
    out[0] = u.values
    for m in range(1, n_steps + 1):
        out[m] = kernel.pull(out[m - 1])
    return out


def lax_minus_images(u: GridFn, kernel: ActionKernel, times) -> np.ndarray:
    """Values of T^-_t u for each t in times, in the order given.

    They are read off one orbit to the largest time: the same pulls as
    lax_minus takes, so the same bits.
    """
    steps = [kernel.steps_of(t) for t in times]
    return semigroup_orbit(u, kernel, max(steps, default=0))[steps]


def discrete_critical_value(kernel: ActionKernel) -> float:
    """Critical value of the discretized system via Karp's cycle mean.

    The minimal mean cycle of the one-step graph equals dt (mean L + shift)
    along the best closed orbit; the value returned is the total level
    (shift included) that makes that mean zero, i.e. the exact level at
    which min-plus powers of the folded kernel stay bounded.

    Karp's table D_k(v) (least cost of a k-step walk from node 0 to v) is
    walked once to D_N and walked again to score every row against it, so
    it takes O(N) memory instead of O(N^2).  Both walks are Stencil.walk,
    each row the pulled one to the bit, so the level is that of the stored
    table.  A NaN weight is refused up front: pull would carry it into the
    rows, and the walk's shortlists need not see it.
    """
    if np.isnan(np.min(kernel.weights)):
        k, x = np.argwhere(np.isnan(kernel.weights))[0]
        raise WeakKamError(f"the kernel weight of offset {tuple(kernel.offsets[k].tolist())} "
                           f"into node {x} is NaN")
    size = kernel.grid.size
    start = np.where(np.arange(size) == 0, 0.0, np.inf)
    final = deque(kernel.walk(start, size), maxlen=1)[0]
    worst = np.full(size, -np.inf)     # max over k of (D_N - D_k) / (N - k)
    with np.errstate(invalid="ignore"):
        for k, row in enumerate(chain([start], kernel.walk(start, size - 1))):
            np.maximum(worst, np.where(np.isfinite(row), (final - row) / (size - k), -np.inf),
                       out=worst)
    scored = np.isfinite(final) & (worst > -np.inf)
    if not np.any(scored):
        raise ConfigError("kernel graph has no cycles reachable from node 0")
    return kernel.shift - float(np.min(worst[scored])) / kernel.dt


# -- verification ------------------------------------------------------------


@dataclass
class MonotoneReport:
    times: list
    min_increment: float
    tol: float
    passed: bool


def check_monotone_semigroup(u: GridFn, kernel: ActionKernel, a: float,
                             times) -> MonotoneReport:
    """For subsolutions of level a, t -> T^-_t u + a t must not decrease.

    Checks all consecutive ladder pairs pointwise, including the step from
    t = 0.  Violations beyond the quadrature tolerance 4 h Ltilde (Ltilde
    from metric.lippo_scale) flag either a non-subsolution or an
    inconsistent level.
    """
    from .metric import lippo_scale

    times = sorted(times)
    tol = 4.0 * u.grid.h * lippo_scale(kernel.model, a, kernel.env, u.grid)
    rise = (np.vstack([u.values, lax_minus_images(u, kernel, times)])
            + (a - kernel.shift) * np.array([0.0] + times)[:, None])
    worst = float(np.min(np.diff(rise, axis=0), initial=np.inf))
    return MonotoneReport(times=list(times), min_increment=worst, tol=float(tol),
                          passed=bool(worst >= -tol))


@dataclass
class CorrectorReport:
    times: list
    residuals: np.ndarray
    tol: float
    passed: bool


def check_corrector(u: GridFn, kernel: ActionKernel, a: float, times,
                    tol: float) -> CorrectorReport:
    """Fixed-point test sup |T^-_t u + a t - u| at each ladder time."""
    times = sorted(times)
    res = np.array([float(np.max(np.abs(cur + (a - kernel.shift) * t - u.values)))
                    for t, cur in zip(times, lax_minus_images(u, kernel, times))])
    return CorrectorReport(times=times, residuals=res, tol=float(tol),
                           passed=bool(np.all(res <= tol)))


# -- independent finite-difference oracle ------------------------------------


def lax_friedrichs_evolve(u0: GridFn, model, env, t_final: float) -> GridFn:
    """Monotone upwind (local Lax-Friedrichs) scheme for u_t + H(x, Du) = 0.

    Completely independent of the kernel machinery: explicit time stepping
    at CFL number 0.4 with one-sided differences and a dissipation at least
    the momentum Lipschitz bound of H over the slopes present in the data.
    """
    grid = u0.grid
    slope = max(float(np.max(np.abs(b))) for b in
                [np.concatenate(u0.one_sided_slopes(a)) for a in range(grid.dim)])
    dissipation = float(model.dhp_bound(1.5 * slope + 2.0)) if model.dhp_bound else 1.5 * slope + 2.0
    dissipation = max(dissipation, 1.0)
    h = grid.h
    dt = 0.4 * h / (dissipation * grid.dim)
    steps = max(int(np.ceil(t_final / dt)), 1)
    dt = t_final / steps
    pts = grid.points()
    u = u0.values.copy()
    for _ in range(steps):
        fn = GridFn(grid, u)
        centers = []
        visc = np.zeros(grid.size)
        for axis in range(grid.dim):
            bwd, fwd = fn.one_sided_slopes(axis)
            centers.append(0.5 * (bwd + fwd))
            visc += 0.5 * dissipation * (fwd - bwd)
        grad = np.stack(centers, axis=1)
        u = u - dt * (model.eval_H(pts, grad, env) - visc)
    return GridFn(grid, u)


@dataclass
class TimeDependentReport:
    t_final: float
    max_discrepancy: float
    tol: float
    passed: bool


def check_time_dependent_solution(u0: GridFn, kernel: ActionKernel,
                                  t_final: float) -> TimeDependentReport:
    """Kernel evolution vs the independent monotone scheme.

    Both discretize the same Cauchy problem; agreement to the scheme's
    sqrt(h)-scale accuracy, tol = 4 sqrt(h) (1 + t_final), ties the
    variational route to the PDE route.
    """
    dp = lax_minus(u0, kernel, t_final)
    dp_vals = dp.values - kernel.shift * t_final
    fd = lax_friedrichs_evolve(u0, kernel.model, kernel.env, t_final)
    diff = float(np.max(np.abs(dp_vals - fd.values)))
    tol = 4.0 * np.sqrt(u0.grid.h) * (1.0 + t_final)
    return TimeDependentReport(t_final=t_final, max_discrepancy=diff,
                               tol=float(tol), passed=bool(diff <= tol))
